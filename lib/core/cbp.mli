(** CustomBinPacking (Alg. 4), Stage 2 of the MCSS heuristic, with the
    paper's optimisations as independent switches:

    - grouping of pairs by topic — optimisation (b) — is inherent to this
      algorithm: each topic's selected pairs are allocated together;
    - {!topic_order} = [Expensive_first] — optimisation (c): topics are
      processed in non-increasing order of event rate, so the topics whose
      splitting costs the most incoming bandwidth get first pick of space;
    - {!vm_choice} = [Most_free] — optimisation (d): when a topic's group
      must be spread over already-deployed VMs, the VM with the most free
      capacity is filled first;
    - {!cost_decision} — optimisation (e): before spreading a group over
      existing VMs, compare the estimated total cost of doing so against
      deploying fresh VMs (Alg. 7) and pick the cheaper option.

    The flow per topic group: try the most recently deployed VM first; if
    the whole group does not fit there, spread it over existing VMs (or go
    straight to new VMs when optimisation (e) says so); deploy new VMs for
    whatever remains. *)

type topic_order =
  | Arbitrary  (** Topic-id order, as Stage 1 produced the groups. *)
  | Expensive_first  (** Non-increasing event rate, ties by topic id. *)
  | Heaviest_group_first
      (** Non-increasing total outgoing volume [ev_t · |pairs of t|] —
          the literal reading of Alg. 4 line 3's
          [argmax Σ_{(t,v)∈S} ev_t], kept as a variant because the
          paper's prose describes optimisation (c) as plain
          event-rate order. Compared in the ablation benchmarks. *)

type vm_choice =
  | First_fit  (** Deployment order, first VM with room for a pair. *)
  | Most_free  (** Largest free capacity among VMs with room for a pair. *)

type options = {
  topic_order : topic_order;
  vm_choice : vm_choice;
  cost_decision : bool;
}

val grouping_only : options
(** Optimisation ladder step (b): [Arbitrary], [First_fit], no cost
    decision. *)

val with_expensive_first : options  (** Step (c). *)

val with_most_free : options  (** Step (d). *)

val with_cost_decision : options  (** Step (e) — the full CBP. *)

val order :
  topic_order -> Problem.t -> Arena.Transpose.t -> Mcss_workload.Workload.topic array
(** The topics with a nonempty column row in the selection's transpose
    (one row per subscriber, one column row per topic id below
    [num_topics]) in packing order, as a fresh array: ascending ids for
    [Arbitrary]; for the two sorted orders, the key ([ev_t], or
    [ev_t · |pairs of t|]) descending with ties by ascending topic id —
    the order of [(-key, id)], so exactly the order a sort of
    [(-key, id)] tuples gives. The sort is a stable LSD radix sort of
    the ascending ids on the complemented IEEE bits of the key, which
    ascend with a nonnegative float's value; a byte digit every key
    shares is skipped. O(num_topics + G) for G nonempty topics. The one
    expensive-first order every topic-grouped packer
    uses (CBP, the replica rounds of redundant placement, best-fit
    decreasing). *)

val run :
  ?obs:Mcss_obs.Registry.t ->
  ?domains:int ->
  Problem.t ->
  Selection.t ->
  options ->
  Allocation.t
(** Raises {!Problem.Infeasible} if some selected pair cannot fit even an
    empty VM. Transposes the selection into one topic-major column
    ({!Arena.Transpose.of_slices}, read straight from the selection's
    flat slices), orders its topics by {!order}, and
    copies each group's column row once into one reused [int] scratch
    that every placement of the group reads — no per-topic array. Cost:
    the transpose's O(num_topics + num_pairs), the order's O(num_topics + G),
    then the packing fold, which scans the fleet only when a group
    misses the current VM (O(G·|B|) worst case for G groups and |B| VMs,
    plus an O(|B| log |B|) sort per Alg. 7 estimate). [domains] (default
    1) parallelises the transpose; the packing fold itself is inherently
    sequential (every placement depends on the residuals the previous
    ones left), so the resulting allocation is identical at any domain
    count. [obs] (default {!Mcss_obs.Registry.noop}) receives the
    Stage-2 work counters ([stage2.groups], [stage2.vms_deployed],
    [stage2.placements], [stage2.whole_group_fits],
    [stage2.decision_distribute] / [stage2.decision_deploy],
    [stage2.cost_decisions]) and the [stage2.vm_residual_frac] per-VM
    residual-capacity histogram. *)

val cheaper_to_distribute :
  Problem.t -> Allocation.t -> ev:float -> count:int ->
  hosts:(Allocation.vm -> bool) -> bool
(** The Alg. 7 estimate: [true] if spreading [count] pairs of a topic with
    rate [ev] over the existing fleet is estimated cheaper than deploying
    new VMs for them. [hosts vm] tells whether the VM already carries the
    topic (its incoming stream is then already paid for). Exposed for unit
    tests. The most-free-first simulation heap-sorts VM ids on a float
    snapshot of their free capacities with [Array.sort]; VMs with exactly
    equal free capacity keep the order that sort leaves them in. *)
