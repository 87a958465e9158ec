(** The week simulator: step a scenario slice-by-slice through live
    engines, one per policy, and account every dollar.

    For each adaptive policy the simulator clones the base plan into a
    private {!Mcss_engine.Engine}, then per slice: applies the slice's
    delta batch, consults the policy, runs a
    {!Mcss_engine.Engine.consolidate} pass if asked, verifies the
    resulting plan against the slice's problem with
    {!Mcss_core.Verifier}, and prices the slice — reserved capacity at
    the reservation rate, overflow on demand, the slice's traffic
    through the cost model's [C2], and a flat charge per scaling
    action (reservation change or consolidation; the initial
    commitment is free for every policy).

    Two baselines frame the policies:

    - {b static} — the paper's regime: one cold solve of the envelope
      (per-topic peak) workload, fully reserved for the whole horizon,
      verified once against the envelope problem (by rate dominance it
      over-delivers in every slice). Its per-slice bandwidth is the
      envelope allocation re-priced under that slice's rates.
    - {b oracle} — knows the whole curve: tracks every slice with free
      consolidation, commits exactly its fleet at the reserved rate
      each slice, and pays no scaling charges. A lower frame, not a
      reachable policy.

    Determinism: given the same scenario, workload, and policies, every
    figure except the [apply_seconds] timings is reproducible
    bit-for-bit. *)

type slice_row = {
  slice : int;
  multiplier : float;
  fleet : int;  (** VMs in the plan billed for this slice. *)
  reserved : int;
  overflow : int;  (** [max 0 (fleet - reserved)], billed on demand. *)
  consolidated : bool;
  scaling_actions : int;
  vm_usd : float;
  bandwidth_usd : float;
  scaling_usd : float;
  apply_seconds : float;
      (** Wall time of this slice's plan surgery (delta apply plus any
          consolidation); [0.] for the static baseline. *)
  clean : bool;  (** The verifier found no violations. *)
}

type policy_run = {
  policy : string;
  rows : slice_row array;
  vm_usd : float;
  bandwidth_usd : float;
  scaling_usd : float;
  total_usd : float;  (** The policy's week cost: sum of the above. *)
  scaling_actions : int;
  reprovisions : int;
      (** Slices whose plan actually changed (delta surgery touched
          pairs or VMs, a drift re-solve fired, or consolidation
          drained something). *)
  apply_p95_seconds : float;
  clean : bool;  (** Every slice verified clean. *)
}

type result = {
  scenario : Scenario.t;
  static_fleet : int;
  static : policy_run;
  policies : policy_run list;  (** In the order given to {!run}. *)
  oracle_usd : float;
  oracle_fleet : int array;  (** The oracle's per-slice fleet. *)
}

val run :
  ?pricing:Mcss_pricing.Reservation.t ->
  ?capacity_events:float ->
  ?policies:Autoscaler.t list ->
  ?on_slice:(policy:string -> slice_row -> unit) ->
  workload:Mcss_workload.Workload.t ->
  tau:float ->
  model:Mcss_pricing.Cost_model.t ->
  Scenario.t ->
  result
(** [pricing] defaults to [Reservation.default ()] over the model's
    instance; [capacity_events] overrides the model-derived [BC] as in
    {!Mcss_core.Problem.of_pricing}; [policies] defaults to
    [hysteresis] and [lookahead] with their default configs.
    [on_slice] observes each row as it is produced (ledger streaming).
    Raises {!Mcss_core.Problem.Infeasible} if the envelope workload (or
    any slice) cannot be allocated — check the scenario's peak
    multiplier against the capacity before running. *)

val write_ledger : string -> result -> unit
(** Write the full per-slice ledger as JSON: scenario parameters, one
    row array per policy (static included), and the oracle series. The
    schema is documented in EXPERIMENTS.md. *)
