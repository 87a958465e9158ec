(** The supervision loop: run a deployment through a fault campaign in
    epochs, watch the SLA, and repair.

    Each epoch simulates [epoch_duration] horizons of traffic under the
    campaign's active outages, then reads two signals the way an
    operator would — from measurements, not from the campaign script:

    + {e τ-violations}: subscribers whose measured delivery missed the
      scaled threshold ({!Mcss_sim.Simulator.check});
    + {e dead VMs}: VMs with analytical load but zero measured traffic
      across the whole epoch (a mid-epoch crash is only caught one epoch
      later, and a short zone burst never looks dead — it recovers by
      itself).

    A VM suspected dead for [hysteresis] consecutive epochs (flapping
    guard) while subscribers are in violation triggers a repair: the
    plan is adopted by a fresh {!Mcss_engine.Engine} (drift re-solves
    off), {!Mcss_engine.Engine.fail} is consulted, and its plan adopted
    if it stays within the [max_new_vms] budget and its extra hourly
    cost does not exceed the SLA penalty rate
    ([penalty_usd_per_violation_hour · violations]). Otherwise the
    orchestrator enters {e degraded mode}: survivors keep their pairs,
    orphans are re-homed best benefit-cost ratio first onto remaining
    free capacity (plus new VMs only as the budget allows — none at all
    when pricing vetoed the repair), and the leftovers are {e shed}.
    Attempts that end degraded or infeasible arm an exponential backoff
    (with seeded jitter) before the next attempt.

    Repairs renumber the fleet ({!Mcss_engine.Engine.fail} packs
    survivor ids); pending outage windows follow the surviving VMs and
    windows on replaced VMs die with them. Campaign faults always name
    fleet slots {e at the moment they strike}. *)

type policy = {
  epochs : int;  (** How many epochs to supervise. *)
  epoch_duration : float;  (** Simulated horizons per epoch. *)
  epoch_hours : float;  (** Wall-clock hours one epoch represents. *)
  tolerance : float;  (** Measurement slack for {!Mcss_sim.Simulator.check}. *)
  hysteresis : int;
      (** Consecutive dead epochs before a VM is declared failed. *)
  base_backoff : int;  (** Epochs of cooldown after the first failed repair. *)
  max_backoff : int;  (** Cap on the exponential cooldown. *)
  jitter : int;  (** Max extra cooldown epochs, drawn from the seeded RNG. *)
  seed : int;  (** Jitter entropy, mixed with the campaign's own seed. *)
  recovery : bool;  (** [false] = observe only (the ablation baseline). *)
  max_new_vms : int;  (** Replacement-VM budget across the whole drill. *)
  penalty_usd_per_violation_hour : float;
      (** SLA penalty rate; also what {!Sla.report} bills downtime at. *)
}

val default_policy : policy
(** 8 epochs of 0.5 horizons / 1 h each, tolerance 0, hysteresis 1,
    backoff 1 → 8 with jitter 1, seed 42, recovery on, unlimited budget,
    $50 per violation-hour. *)

type outcome = {
  plan : Mcss_engine.Engine.plan;  (** The plan after the drill. *)
  sla : Sla.report;
  epoch_log : Sla.epoch list;
  repairs : int;  (** Full repairs adopted. *)
  repair_attempts : int;  (** Including degraded and infeasible ones. *)
  backoff_skips : int;
      (** Epochs where a suspect was left alone because a backoff
          cooldown was still running. *)
  shed : (int * int) list;
      (** (topic, subscriber) pairs given up in degraded mode. *)
  vms_added : int;  (** Replacement VMs deployed across all repairs. *)
  verified : (unit, string) result;
      (** Final plan vs {!Mcss_core.Verifier} — [Error] if the drill
          ended degraded (shed pairs cannot verify). *)
}

val run :
  ?obs:Mcss_obs.Registry.t ->
  ?policy:policy ->
  ?zones:int ->
  ?log:(string -> unit) ->
  campaign:Failure_model.campaign ->
  Mcss_core.Problem.t ->
  outcome
(** Solve the problem cold (GSP + CBP), then supervise it through the
    campaign. [obs] (default {!Mcss_obs.Registry.noop}) records one
    [epoch] span per epoch (with the inner [simulate] and [replan]
    children), the campaign counters ([resilience.epochs],
    [resilience.suspect_detections], [resilience.repair_attempts],
    [resilience.repairs_adopted], [resilience.backoff_skips],
    [resilience.degraded_rebuilds], [resilience.vms_added],
    [resilience.pairs_shed], [resilience.violation_epochs]) and the
    [resilience.recovery_latency_epochs] histogram (epochs from first
    suspicion to an adopted repair).
    [zones] (default 1) scopes {!Failure_model.Zone_burst}
    faults. [log] receives one deterministic line per notable event
    (epoch summary, detection, repair decision). *)

val evaluate :
  ?obs:Mcss_obs.Registry.t ->
  ?policy:policy ->
  ?zones:int ->
  campaign:Failure_model.campaign ->
  Mcss_core.Problem.t ->
  Mcss_core.Allocation.t ->
  Sla.report
(** Passive drill: meter a {e fixed} allocation (e.g. a k-redundant
    placement from {!Redundancy.place}) through the campaign with no
    recovery, and report the SLA. This is how replicas are compared
    against repairs. [obs] is forwarded to each epoch's
    {!Mcss_sim.Simulator.run}. *)

val backoff : policy -> Mcss_prng.Rng.t -> failures:int -> int
(** Cooldown epochs after the [failures]-th consecutive failed repair:
    [min max_backoff (base_backoff · 2^(failures-1))] plus a jitter draw
    in [[0, jitter]]. Exposed for tests. *)
