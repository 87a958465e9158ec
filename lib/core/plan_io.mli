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
    as the CLI does.

    Discovery order: the first offending line wins. Within a [place]
    line the VM id, the topic and the count are checked in that order,
    then every subscriber token is parsed, and only then is each
    subscriber in turn checked for range, interest in the topic, and an
    earlier placement of the same pair — so the message names the
    line's first failing pair.

    Cost: one pass per [place] line. A line of plain decimal tokens (at
    most 18 digits each) with a valid VM, topic and a positive count
    that matches is read in that one pass straight into an int scratch;
    any other line is re-read by the general tokenizer, which raises
    the line's message. A line whose topic lies above every group of
    its VM, as on every line a canonical plan holds, is appended to the
    fleet without a search, its run one exact-size copy. The pass
    counts each subscriber's placed pairs and logs four ints per line
    (number, VM, topic, count). The selection is then laid out flat
    ({!Selection.t}): a prefix sum of the counts gives every slice, one
    walk of the fleet's groups scatters each placed topic into its
    slice, and each slice is sorted and merged once against the
    subscriber's id-sorted interest row, which checks every pair and
    sums [selected_rate] left to right in ascending topic order (for a
    subscriber with every interest placed, the same bits as its
    interest rate). O(lines + placed pairs + workload pairs), with no
    index of the workload built. Only on invalid input does a replay of
    the log find the first faulty pair in reading order, with a binary
    search per pair and a byte of marks per workload pair. The
    selection shares no array with the workload. *)

val input : workload:Mcss_workload.Workload.t -> in_channel -> Allocation.t * Selection.t

val to_string : Allocation.t -> string
(** The canonical rendering {!save} writes — what the planning service
    journals and digests ([plan_digest] in solve replies), so its bytes
    must never change for a given allocation. One walk of the fleet
    measures every line, so the text is allocated once at its final
    size. *)

val of_string :
  workload:Mcss_workload.Workload.t -> string -> Allocation.t * Selection.t
(** Parse an in-memory rendering; raises {!Parse_error} like {!load}. *)
