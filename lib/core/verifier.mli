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
(** Audit a plan. Precondition: every [chosen] row of the selection is
    strictly increasing (as every selector and {!Plan_io} produce); a
    topic out of order in its row is treated as unselected.

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
