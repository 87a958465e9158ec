(** Text serialisation for delta streams, in the same line-oriented style
    as {!Mcss_workload.Wio} — so recorded churn can be replayed by
    [mcss update], [mcss simulate --deltas], and perfbench, and the
    planning service can journal a batch of deltas as one WAL op.

    Format (['#'] comments and blank lines allowed):
    {v
    mcss-deltas 1
    subscribe <subscriber> <topic>
    unsubscribe <subscriber> <topic>
    rate <topic> <new-rate>
    new-topic <rate>
    new-subscriber <k> <topic_1> ... <topic_k>
    v}

    Rates are printed with [%.17g], so a round trip through text is
    bit-exact. Validity against a particular workload (ids in range,
    no double subscribes, ...) is {e not} checked here — that is
    {!Delta.apply}'s job; the codec only rejects syntax (and
    non-positive rates, which no workload could accept). *)

exception Parse_error of string
(** Carries a [line N: ...] message. *)

val to_string : Delta.t list -> string
val of_string : string -> Delta.t list

val save : Delta.t list -> string -> unit
val load : string -> Delta.t list
(** [load]/[save] raise [Sys_error] on I/O failure, {!Parse_error} on
    malformed input. *)

val output : out_channel -> Delta.t list -> unit
val input : in_channel -> Delta.t list
