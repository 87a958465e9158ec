(** Independent validation of a Stage-2 result against the MCSS
    constraints (Eq. 2–3). Everything is recomputed from scratch — loads
    from the raw pair placements, satisfaction from the placed pairs — so
    incremental-accounting bugs in the allocation algorithms cannot hide.

    Checks performed:
    - capacity: every recomputed [bw_b <= BC] (epsilon slack);
    - accounting: every VM's incremental load equals the recomputed load;
    - satisfaction: for every subscriber, the distinct topics [t] with a
      placed pair [(t, v)] carry at least [τ_v] events;
    - consistency: placed pairs are exactly the selected pairs, each
      placed exactly once (the algorithms never duplicate a pair), and
      every placed pair names a topic and a subscriber of the workload
      ({!Allocation.place} accepts any ids). A pair outside the workload
      is reported and left out of the load and delivery sums. *)

type violation =
  | Over_capacity of { vm : int; load : float }
  | Load_mismatch of { vm : int; tracked : float; recomputed : float }
  | Unsatisfied of { subscriber : int; delivered : float; required : float }
  | Pair_not_selected of { topic : int; subscriber : int }
  | Pair_duplicated of { topic : int; subscriber : int }
  | Pair_missing of { topic : int; subscriber : int }
  | Pair_outside_workload of { topic : int; subscriber : int }

type report = {
  violations : violation list;
  num_vms : int;
  total_bandwidth : float;  (** Recomputed [Σ_b bw_b]. *)
  cost : float;
}

val verify : Problem.t -> Selection.t -> Allocation.t -> report
(** Audit a plan. Precondition: every subscriber's slice of the
    selection is strictly increasing (as every selector and {!Plan_io}
    produce). A slice entry that does not exceed every in-workload entry
    before it (out of order, or repeated) is treated as unselected; a
    chosen topic outside the workload is never placed, so it is reported
    missing.

    Cost: one counting-sort transpose of the selection's flat slices
    into per-topic subscriber runs ({!Arena.Transpose.of_slices}, read
    in place, O(selected pairs + topics)),
    then one pass over the placed groups: each group [(t, run)] is
    merged along topic [t]'s run of selecting subscribers, galloping
    forward from the previous match, so an ascending run (every run of
    a solver plan) costs O(run + gaps) and a run that steps down
    restarts its search at the topic's first subscriber. Marks are one
    byte per selected pair; the floats are summed pair by pair in walk
    order, so the report is the same bit for bit whatever the index.

    Violations are listed in discovery order: per VM (in deployment
    order) its [Pair_outside_workload] / [Pair_duplicated] /
    [Pair_not_selected] entries in {!Allocation.iter_vm_pairs} order
    (topics ascending, each topic's subscribers in run order), then its
    [Over_capacity] and [Load_mismatch]; then every [Pair_missing] in
    (subscriber, topic) order; then every [Unsatisfied] by subscriber. *)

val is_valid : report -> bool
(** No violations. *)

val pp_violation : Format.formatter -> violation -> unit

val check_exn : Problem.t -> Selection.t -> Allocation.t -> report
(** Like {!verify} but raises [Failure] with a rendered message when any
    violation is found. *)
