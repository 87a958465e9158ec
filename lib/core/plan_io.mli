(** Persistence for computed deployment plans, so a plan solved once can
    be audited, re-verified, diffed, or replayed (CLI: [mcss solve
    --save-plan] / [mcss simulate --plan]) without re-running the solver.

    Format (line oriented, ['#'] comments allowed):
    {v
    mcss-plan 1
    capacity <BC>
    vms <n>
    place <vm> <topic> <k> <subscriber_1> ... <subscriber_k>
    ...
    v}

    A plan file stores only placements; the selection is reconstructed
    from them (every placed pair is a selected pair — the verifier's
    consistency rules make the two views equivalent for any plan the
    solver emits). *)

exception Parse_error of string

val save : Allocation.t -> string -> unit

val output : out_channel -> Allocation.t -> unit

val load : workload:Mcss_workload.Workload.t -> string -> Allocation.t * Selection.t
(** Rebuild the fleet and the implied selection against the workload the
    plan was computed for. Raises {!Parse_error} on malformed input, a
    topic/subscriber id outside the workload, a duplicated pair, a
    capacity that is not a finite positive float, or a [vms] count
    above the workload's pair count (a plan never needs more VMs than
    pairs: solver and engine plans hold no empty VM), so garbage is
    rejected before any fleet is allocated; raises [Sys_error] on I/O
    failure. The input is read line by line, never whole. Loads do
    {e not} re-check capacity — run {!Verifier.verify} on the result,
    as the CLI does. *)

val input : workload:Mcss_workload.Workload.t -> in_channel -> Allocation.t * Selection.t

val to_string : Allocation.t -> string
(** The canonical rendering {!save} writes — what the planning service
    journals and digests ([plan_digest] in solve replies), so its bytes
    must never change for a given allocation. *)

val of_string :
  workload:Mcss_workload.Workload.t -> string -> Allocation.t * Selection.t
(** Parse an in-memory rendering; raises {!Parse_error} like {!load}. *)

(** {2 The int writer}

    The writer's digit loop, shared with other canonical renderings
    that must stay byte-stable (the planning service's workload
    digest). *)

val digit_scratch : unit -> Bytes.t
(** Scratch space for {!add_int_then}; reuse one per rendering. *)

val add_int_then : Bytes.t -> Buffer.t -> int -> char -> unit
(** [add_int_then digits buf n c] appends [string_of_int n ^ String.make
    1 c] without allocating a string (for [n >= 0]). *)
