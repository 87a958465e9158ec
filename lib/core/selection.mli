(** Stage 1 of the MCSS heuristic (§III-A): choose, for every subscriber,
    a subset of its interests whose total event rate reaches the
    subscriber-specific threshold [τ_v], minimising bandwidth.

    Three selectors are provided, all run by one subscriber-chunked
    loop:
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
  offs : int array;
      (** [num_subscribers + 1] offsets into {!field-topics}: subscriber
          [v]'s slice is [topics.(offs.(v)) .. topics.(offs.(v + 1) -
          1)]. [offs.(0) = 0] and [offs.(num_subscribers) = num_pairs]. *)
  topics : Mcss_workload.Workload.topic array;
      (** Every subscriber's selected topics, one slice after another in
          subscriber order (the CSR layout); each slice ascends. The
          array belongs to this selection: every selector, {!reselect}
          and the plan decoder build a fresh one, and nothing mutates
          it afterwards. *)
  selected_rate : float array;
      (** Per subscriber, [Σ_{t chosen} ev_t]. *)
  num_pairs : int;  (** Total number of selected (t, v) pairs. *)
  outgoing_rate : float;
      (** [Σ_{(t,v) selected} ev_t] — the outgoing-traffic part of the
          bandwidth any allocation of this selection must carry. *)
}

val num_subscribers : t -> int
(** [Array.length offs - 1]. *)

val row : t -> Mcss_workload.Workload.subscriber -> Mcss_workload.Workload.topic array
(** A fresh copy of subscriber [v]'s slice (for cold paths and tests). *)

val of_rows : Mcss_workload.Workload.topic array array -> selected_rate:float array -> t
(** Lay [rows] out as one selection, copying each row verbatim: no
    sort and no validation, so a malformed row (out of order, repeated,
    outside the workload) stays malformed for {!Verifier.verify} to
    report. [num_pairs] is the total row length and [outgoing_rate] the
    left-to-right sum of [selected_rate], which is adopted as given.
    Used by the selectors outside this module (budgeted admission, the
    global greedy, brute force). *)

val gsp : ?obs:Mcss_obs.Registry.t -> ?domains:int -> Problem.t -> t
(** GreedySelectPairs. Each chunk of subscribers appends its picks to
    one buffer of its own and sorts each subscriber's slice there
    ({!Mcss_workload.Workload.sort_ids_sub}); after the join each
    chunk's slices are blitted into {!field-topics} at their offsets,
    so no array is allocated per subscriber. Deterministic: ties in the
    benefit-cost ratio are broken towards the lowest topic id, matching
    {!gsp_reference}.
    [domains] (default 1) cuts the subscribers into that many ordered
    chunks ({!Arena.map_chunks}), one per OCaml 5 domain: subscribers
    are independent in Stage 1, and the totals are summed in subscriber
    order afterwards, so the selection is {e bit-identical} at any
    domain count (property-tested). [obs] (default
    {!Mcss_obs.Registry.noop}) receives Stage-1 work counters, merged
    over the chunks: [stage1.subscribers], [stage1.pairs_selected],
    [stage1.candidates_considered], [stage1.eligible_set_ops] and the
    [stage1.outgoing_rate] gauge. *)

val reselect :
  ?obs:Mcss_obs.Registry.t -> Problem.t -> previous:t -> dirty:bool array -> t
(** Incremental GSP for the planning engine: re-run {!gsp}'s
    per-subscriber kernel only for the subscribers marked [dirty] and
    copy [previous]'s slices and rates for the rest. Because the kernel is a
    deterministic function of the subscriber's interests, those topics'
    rates, and [τ], the result is {e bit-for-bit} the full {!gsp} of the
    new problem whenever [dirty] covers every subscriber whose inputs
    changed (property-tested). [dirty] must have exactly
    [num_subscribers] entries and mark every subscriber beyond
    [previous]'s range; raises [Invalid_argument] otherwise. It runs
    through {!gsp}'s subscriber loop on one domain. [obs] receives the Stage-1
    counters; the work counts ([stage1.candidates_considered],
    [stage1.eligible_set_ops]) cover the re-run subscribers only. Only
    the dirty subscribers' picks are buffered; each run of consecutive
    clean subscribers is one blit from [previous]'s topic column, so the
    result shares no array with [previous] and costs O(num_subscribers
    + num_pairs) words, however few subscribers are dirty. *)

val gsp_reference : ?obs:Mcss_obs.Registry.t -> Problem.t -> t
(** Literal Alg. 2: recompute every remaining ratio after each pick and
    scan for the argmax (first maximum in topic-id order). Quadratic per
    subscriber; use only on small instances. *)

val rsp : ?obs:Mcss_obs.Registry.t -> Problem.t -> t
(** RandomSelectPairs: interests in topic-id order until satisfied. *)

val rsp_shuffled : ?obs:Mcss_obs.Registry.t -> Mcss_prng.Rng.t -> Problem.t -> t
(** RSP with each subscriber's interests visited in random order. Runs
    on one domain: the subscribers draw from the one [Rng.t] in id
    order. *)

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

val iter_pairs :
  t -> (Mcss_workload.Workload.topic -> Mcss_workload.Workload.subscriber -> unit) -> unit
(** Iterate selected pairs grouped by subscriber, ascending ids — the
    arbitrary-order view FFBinPacking consumes. *)
