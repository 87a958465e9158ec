(** Stage 1 of the MCSS heuristic (§III-A): choose, for every subscriber,
    a subset of its interests whose total event rate reaches the
    subscriber-specific threshold [τ_v], minimising bandwidth.

    Three selectors are provided:
    - {!gsp} — GreedySelectPairs (Alg. 2), driven by the benefit-cost ratio
      of Alg. 1, in an O(Σ_v |T_v| log |T_v|) formulation;
    - {!gsp_reference} — a literal transcription of Alg. 2's quadratic
      rescan loop, kept as an executable specification (tests assert it
      picks exactly the same sets as {!gsp});
    - {!rsp} — RandomSelectPairs (Alg. 6), the paper's naive baseline that
      takes interests in arbitrary order until the threshold is met.

    Additionally {!optimal_per_subscriber} solves each subscriber's
    min-cost covering subproblem exactly by dynamic programming (the paper
    notes the per-subscriber problem is a knapsack variant "that can be
    solved optimally using dynamic programming" but deems it too slow at
    scale); it is used in ablation experiments to measure how far GSP's
    greedy choice is from per-subscriber optimal. *)

type t = {
  chosen : Mcss_workload.Workload.topic array array;
      (** Per subscriber, the selected topics, sorted ascending. A row
          may be physically shared with the workload's own row
          ({!Mcss_workload.Workload.interests}: a decoded plan that
          places all of a subscriber's interests) or with a previous
          selection's ({!reselect}), so a row must never be mutated. *)
  selected_rate : float array;
      (** Per subscriber, [Σ_{t chosen} ev_t]. *)
  num_pairs : int;  (** Total number of selected (t, v) pairs. *)
  outgoing_rate : float;
      (** [Σ_{(t,v) selected} ev_t] — the outgoing-traffic part of the
          bandwidth any allocation of this selection must carry. *)
}

val gsp : ?obs:Mcss_obs.Registry.t -> Problem.t -> t
(** GreedySelectPairs. Deterministic: ties in the benefit-cost ratio are
    broken towards the lowest topic id, matching {!gsp_reference}.
    [obs] (default {!Mcss_obs.Registry.noop}) receives Stage-1 work
    counters: [stage1.subscribers], [stage1.pairs_selected],
    [stage1.candidates_considered], [stage1.eligible_set_ops] and the
    [stage1.outgoing_rate] gauge. *)

val gsp_parallel : ?obs:Mcss_obs.Registry.t -> ?domains:int -> Problem.t -> t
(** {!gsp} fanned out over OCaml 5 domains — subscribers are independent
    in Stage 1, so the selection parallelises embarrassingly. Produces
    {e exactly} the same selection as {!gsp} (property-tested); the
    paper's 25-minute full-Twitter Stage 1 is the part this accelerates.
    [domains] defaults to [Domain.recommended_domain_count ()], and
    values <= 1 fall back to the sequential code. *)

val reselect :
  ?obs:Mcss_obs.Registry.t -> Problem.t -> previous:t -> dirty:bool array -> t
(** Incremental GSP for the planning engine: re-run {!gsp}'s
    per-subscriber kernel only for the subscribers marked [dirty] and
    share [previous]'s arrays for the rest. Because the kernel is a
    deterministic function of the subscriber's interests, those topics'
    rates, and [τ], the result is {e bit-for-bit} the full {!gsp} of the
    new problem whenever [dirty] covers every subscriber whose inputs
    changed (property-tested). [dirty] must have exactly
    [num_subscribers] entries and mark every subscriber beyond
    [previous]'s range; raises [Invalid_argument] otherwise. [obs]
    receives Stage-1 counters for the re-run subscribers only. *)

val gsp_reference : ?obs:Mcss_obs.Registry.t -> Problem.t -> t
(** Literal Alg. 2: recompute every remaining ratio after each pick and
    scan for the argmax (first maximum in topic-id order). Quadratic per
    subscriber; use only on small instances. *)

val rsp : ?obs:Mcss_obs.Registry.t -> Problem.t -> t
(** RandomSelectPairs: interests in topic-id order until satisfied. *)

val rsp_shuffled : ?obs:Mcss_obs.Registry.t -> Mcss_prng.Rng.t -> Problem.t -> t
(** RSP with each subscriber's interests visited in random order. *)

val optimal_per_subscriber : ?max_budget:int -> Problem.t -> t option
(** Exact per-subscriber selection by DP over integer event rates,
    minimising the selected rate subject to reaching [τ_v]. Returns [None]
    if any event rate is not (close to) a nonnegative integer or if some
    [⌈τ_v⌉] exceeds [max_budget] (default 100_000), which bounds the DP
    table. *)

val benefit_cost_ratio : ev:float -> rem:float -> float
(** Alg. 1: [min(1, ev/rem) / (2·ev)] when [rem > 0], else [0]. Exposed
    for unit tests. *)

val satisfies : Problem.t -> t -> bool
(** Every subscriber's selected rate reaches [τ_v] (up to epsilon) — the
    Stage-1 postcondition [Σ_v f_v = |V|]. *)

type by_topic = private {
  offsets : int array;
      (** [num_topics + 1] entries, indexed by topic id: topic [t]'s
          selected subscribers are
          [subscribers.(offsets.(t)) .. subscribers.(offsets.(t + 1) - 1)].
          [offsets.(0) = 0] and [offsets.(num_topics) = num_pairs]. *)
  subscribers : Mcss_workload.Workload.subscriber array;
      (** Every selected pair's subscriber, topic-major: one slice per
          topic, ascending by subscriber id within the slice. *)
  topics : Mcss_workload.Workload.topic array;
      (** The topics with at least one selected pair, ascending. *)
}
(** The selection regrouped per topic as one flat table — the input view
    Stage-2's CustomBinPacking (and the other topic-grouped packers)
    consume. Three arrays whatever the topic count: a packer places a
    group straight from its slice ([Allocation.place ~subscribers ~from
    ~count]) without building a per-topic array. *)

val pairs_by_topic : ?domains:int -> Problem.t -> t -> by_topic
(** Build the {!by_topic} table by a counting sort over the selection:
    O(num_topics + num_pairs) time, and the three arrays plus one
    [num_topics] cursor array per domain. [domains] (default 1)
    parallelises the counting and filling over subscriber chunks, with
    per-chunk write cursors laid out in chunk order: the table is
    {e identical} at any domain count. *)

val iter_pairs :
  t -> (Mcss_workload.Workload.topic -> Mcss_workload.Workload.subscriber -> unit) -> unit
(** Iterate selected pairs grouped by subscriber, ascending ids — the
    arbitrary-order view FFBinPacking consumes. *)
