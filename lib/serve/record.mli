(** The journal record: the one owner of the format of the [load],
    [plan] and [update] ops that {!Service} journals, replicates and
    folds into snapshots. One JSON object per line.

    Floats that must round-trip exactly (the solve params feed the
    plan-cache key, which renders them at [%.17g]) are written as
    [%.17g] strings: the JSON printer rounds numbers to 12 significant
    digits. Journals from older builds must replay to the same state,
    so these bytes are pinned.

    Every op names the node that accepted it ([origin]). Replay ignores
    it; replication keeps it, so the nemesis can group journaled writes
    by (frame epoch, origin) and check that no epoch had two writers. *)

type t =
  | Load of { origin : string option; digest : string; wio : string }
      (** A workload's content digest and {!Mcss_workload.Wio} text. *)
  | Plan of {
      origin : string option; digest : string; params : Protocol.solve_params;
      plan : string;  (** {!Mcss_core.Plan_io} text. *)
      bandwidth : float; bandwidth_gb : float; cost : float;
      stage1_s : float; stage2_s : float; solve_s : float;
    }
  | Update of {
      origin : string option; digest : string; params : Protocol.solve_params;
      deltas : string;  (** {!Mcss_engine.Delta_io} text. *)
      new_digest : string;
    }
      (** An update is journaled as its cause: replay re-applies [deltas]
          to the plan solved for [(digest, params)] and must land on
          [new_digest]. No [Load] of the evolved workload precedes it,
          and snapshots keep it as this record. *)

val to_string : t -> string
(** [op], [origin] (none when [None]), [digest], then the op's fields;
    [bc] only when the params carry a capacity override. *)

val of_string : string -> t option
(** [None] unless one of the three ops with every required field of the
    right type. Floats read as [%.17g] strings or JSON numbers.
    Optional: [origin] (absent unless a string), [bc] (absent unless
    a readable float), and a plan's [stage1_s], [stage2_s], [solve_s]
    ([0.] unless readable). Never raises. *)
