(** The stateful incremental planning engine — the one re-planning API
    behind [solve], churn absorption ({!retarget}, {!apply}), failure
    repair ({!fail}), defragmentation ({!consolidate}), and the planning
    service's live [update] endpoint.

    The paper closes (§IV-F) by arguing the allocator is fast enough to
    "run periodically to adapt to the changes in the event rates, new
    subscriptions, unsubscriptions, etc.". This module makes that loop
    incremental instead of periodic-from-scratch: an engine owns a
    problem, its Stage-1 selection, and its Stage-2 allocation (with the
    per-VM residual capacities and per-subscriber remaining thresholds
    implied by them, see {!residual} and {!rem_v}), and {!apply} folds a
    batch of {!Delta} events into all three in time proportional to the
    {e change}, not the workload:

    + only {e dirty} subscribers — those whose interest set changed or
      who follow a topic whose rate changed — re-run Stage-1 selection
      ({!Mcss_core.Selection.reselect}). GSP is per-subscriber
      deterministic, so every clean subscriber provably keeps its exact
      old selection;
    + surviving pairs stay on the VM they already occupy;
    + VMs pushed over capacity by rate increases evict pairs of their
      highest-rate topic until they fit again;
    + deselected pairs are dropped, newly selected and evicted pairs are
      placed with the CustomBinPacking insertion rule (grouped per
      topic, most-free VM first, fresh VMs on overflow);
    + VMs left empty are dropped.

    {b Drift.} Local surgery can wander away from what a cold solve
    would build. The engine counts churned pairs since the last full
    solve and, once they exceed [drift_threshold] × current pairs, runs
    {!Mcss_core.Solver.solve} (same config) instead — so a
    drift-triggered re-solve is bit-for-bit the cold answer, and the
    counter resets.

    Engines are single-owner mutable state and not thread-safe; the
    planning service serialises access per engine. *)

type plan = {
  problem : Mcss_core.Problem.t;
  selection : Mcss_core.Selection.t;
  allocation : Mcss_core.Allocation.t;
}
(** A deployment plan snapshot. *)

type change_stats = {
  pairs_kept : int;  (** Survived in place. *)
  pairs_added : int;  (** Newly selected, placed fresh. *)
  pairs_removed : int;  (** Deselected, dropped from their VM. *)
  pairs_evicted : int;  (** Still selected but moved off an overloaded VM. *)
  vms_added : int;
  vms_removed : int;
  dirty_subscribers : int;  (** How many subscribers re-ran Stage 1. *)
  resolved : bool;
      (** The drift threshold tripped and this change was answered by a
          full cold re-solve; the pair counters then describe the
          wholesale replacement (everything removed, everything added),
          not in-place surgery. *)
}

type recovery_stats = {
  vms_lost : int;
  pairs_rehomed : int;  (** Pairs that lived on failed VMs. *)
  vms_added : int;  (** Fresh VMs deployed to absorb them. *)
}

type t

val create :
  ?config:Mcss_core.Solver.config ->
  ?drift_threshold:float ->
  ?domains:int ->
  Mcss_core.Problem.t ->
  t
(** Cold GSP+CBP solve ([config] defaults to {!Mcss_core.Solver.default},
    also used for drift re-solves). [drift_threshold] (default [0.5])
    is the churned-pairs fraction that triggers a full re-solve;
    [infinity] disables drift re-solves, so every change is answered by
    in-place surgery. [domains] (default 1) is passed to every
    {!Mcss_core.Solver.solve} the engine runs — cold and drift-triggered
    alike — and never changes the plans produced (the parallel solve is
    bit-identical). Raises
    {!Mcss_core.Problem.Infeasible} like the solver. *)

val of_plan :
  ?config:Mcss_core.Solver.config ->
  ?drift_threshold:float ->
  ?domains:int ->
  plan ->
  t
(** Adopt an existing plan (e.g. reloaded through
    {!Mcss_core.Plan_io}). The allocation is copied with
    {!Mcss_core.Allocation.copy}, so the engine never mutates the
    caller's plan and starts from the same fleet whether the plan came
    from the solver or from its decoded text. [of_plan ~drift_threshold:infinity]
    followed by {!retarget} or {!fail} is an input-preserving repair: a
    pure function of the plan that never falls back to a cold solve. *)

val apply : t -> Delta.t list -> change_stats
(** Fold a delta batch into the engine. Raises [Invalid_argument] on
    inconsistent deltas (see {!Delta.apply}) before touching any state,
    and {!Mcss_core.Problem.Infeasible} if a selected pair no longer fits
    any VM — after which the engine must be discarded (its state may be
    half-updated). Deterministic: the same engine state and delta list
    always produce the same plan, which is what lets the planning
    service replay journaled updates after a crash. *)

val retarget : t -> Mcss_core.Problem.t -> change_stats
(** The re-solve core under {!apply}: adapt the engine to an explicit new
    problem (same append-only id space, e.g. evolved by {!Delta.apply}).
    Every subscriber re-runs Stage 1 (GSP is deterministic, so untouched
    ones keep their exact old choice); surviving pairs stay in place,
    VMs pushed over capacity evict, new and evicted pairs are placed with
    the insertion rule, and emptied VMs are dropped. The result always
    satisfies the new problem — run it through {!Mcss_core.Verifier} to
    confirm, as the tests do. Raises {!Mcss_core.Problem.Infeasible}
    when a needed pair cannot fit any VM. *)

val fail : t -> failed:int list -> recovery_stats
(** Treat the listed VM ids as permanently dead: survivors keep their
    placements (renumbered densely), orphaned pairs are re-placed with
    the insertion rule (most-free survivor first, fresh VMs on
    overflow). Unknown ids are ignored; failing every VM does not raise
    but rebuilds from scratch, with every pair counted as rehomed. Stats
    count this call's damage only. Raises
    {!Mcss_core.Problem.Infeasible} if an orphaned pair fits no VM
    (capacity shrank, never from failure alone). *)

val plan : t -> plan
(** The engine's current plan. The allocation is the engine's live one —
    treat it as read-only while the engine stays in use. *)

val problem : t -> Mcss_core.Problem.t
val num_vms : t -> int

val cost : t -> float
(** [C1(num_vms) + C2(total bandwidth)] of the current plan. *)

val residual : t -> int -> float
(** Free capacity ([BC - bw_b]) of the VM with the given id. Raises
    [Invalid_argument] on an unknown id. *)

val rem_v : t -> int -> float
(** The subscriber's remaining satisfaction gap
    [max 0 (τ_v - selected rate)] — [0.] for every subscriber of a valid
    plan. *)

val churned_pairs : t -> int
(** Pairs added + removed since the last cold solve — the drift
    counter. *)

val canonicalize : t -> unit
(** Put the engine into exactly the state {!of_plan} of its own
    {!plan} would build (same config, drift threshold and domains): the
    fleet re-laid in {!Mcss_core.Allocation.copy}'s order with loads
    re-summed in that order (see {!Mcss_core.Allocation.canonicalize})
    and the drift counter reset to [0]. Every later {!apply}, {!retarget}
    or {!fail} then answers exactly as on a freshly adopted engine. It
    costs O(topic groups), not O(pairs), which is what lets the planning
    service keep the engine behind its last update resident instead of
    re-adopting its plan. *)

val default_drift_threshold : float

val consolidate : ?max_moves:int -> plan -> plan * change_stats
(** Defragment a fleet that accumulated slack through churn: repeatedly
    try to drain the least-loaded VM into the rest of the fleet
    (all-or-nothing per VM, so bandwidth never grows without a VM being
    freed) until no VM can be fully drained or [max_moves] pair moves
    (default 10_000) have been spent. The input plan's allocation is not
    modified; the result is a fresh plan over the same problem.
    [vms_removed] counts the drained VMs and [pairs_evicted] the pairs
    moved; every other counter is zero. *)
