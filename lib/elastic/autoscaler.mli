(** Autoscaling policies: who decides, each slice, how much capacity to
    commit to and whether to consolidate the fleet.

    A policy is consulted once per slice, {e after} the slice's rate
    deltas were applied to the live engine (so it sees the fleet the
    new rates forced into existence), and returns:

    - [reserved] — the number of VMs committed at the reserved hourly
      rate for this slice; any fleet above it is billed on demand.
    - [consolidate] — whether to run a {!Mcss_engine.Engine.consolidate}
      pass to drain slack VMs. Engine delta application
      only ever {e grows} the fleet under load (it drops a VM when it
      empties, but falling rates leave VMs underfull, not empty), so
      scale-down is always an explicit, charged decision.

    Both a reservation change and a consolidation pass count as one
    scaling action and are charged
    [Reservation.scaling_usd_per_action] each by the week simulator.

    Policies are stateful closures — cooldown counters and the current
    commitment live inside [t]; build a fresh one per run. *)

type observation = {
  slice : int;
  fleet : int;  (** VMs in the plan after this slice's deltas. *)
  min_fleet : int;
      (** Load-based lower bound [ceil (total load / BC)] on the fleet
          any consolidation could reach. *)
  utilization : float;
      (** Total broker load over fleet capacity, in [0, 1]. *)
  forecast : int array;
      (** Predicted fleet need for the next slices ([forecast.(0)] is
          slice [slice + 1]); scaled from the scenario curve. Empty for
          policies that asked for no lookahead. *)
}

type decision = { reserved : int; consolidate : bool }

type t = { name : string; horizon : int; decide : observation -> decision }
(** [horizon] is how many slices of [forecast] the policy wants (0 for
    purely reactive policies). *)

val static : fleet:int -> t
(** The paper's baseline: one plan sized for the peak, reserved in
    full for the whole horizon, never touched again. *)

type hysteresis_config = {
  down_cooldown : int;
      (** Consecutive slices the fleet must sit below the commitment
          before the commitment is lowered to it. *)
  consolidate_below : float;
      (** Utilization threshold that triggers a consolidation pass. *)
  consolidate_cooldown : int;
      (** Minimum slices between consolidation passes. *)
}

val default_hysteresis : hysteresis_config
(** [down_cooldown = 2], [consolidate_below = 0.9],
    [consolidate_cooldown = 2]. A consolidated fleet sits near full
    utilization, so the threshold is deliberately close to 1 — it
    re-arms as soon as demand has visibly sagged, and the cooldown does
    the damping. *)

val hysteresis : ?config:hysteresis_config -> unit -> t
(** Reactive hysteresis: commits to the observed fleet immediately on
    the way up (overflow is expensive), and only after [down_cooldown]
    quiet slices on the way down; consolidates when utilization sinks
    below the threshold and the cooldown allows. *)

type lookahead_config = {
  horizon : int;  (** Slices of forecast fed into the value iteration. *)
  consolidate_below : float;
  consolidate_cooldown : int;
}

val default_lookahead : lookahead_config
(** [horizon = 6], thresholds as {!default_hysteresis}. *)

val lookahead :
  ?config:lookahead_config ->
  pricing:Mcss_pricing.Reservation.t ->
  slice_hours:float ->
  unit ->
  t
(** Finite-horizon lookahead: rolls the forecast [horizon] slices
    forward and picks today's commitment by value iteration over the
    discretized commitment ladder [0 .. max demand] —
    [V_j R = min_{R'} (change cost + slice cost of R' under demand j
    + V_{j+1} R')] — so it holds a commitment through a short dip when
    two scaling charges would cost more than the idle capacity, and
    pre-books cheap reserved capacity ahead of a forecast ramp.
    Consolidation uses the same slack trigger as {!hysteresis}. *)
