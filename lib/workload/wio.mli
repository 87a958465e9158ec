(** Plain-text (de)serialisation of workloads, so generated traces can be
    saved once and replayed by the CLI, benches, and examples.

    Format (line-oriented, ['#'] comments allowed anywhere):
    {v
    mcss-workload 1
    topics <l>
    subscribers <n>
    rates
    <l lines: one float per line, topic 0 first>
    interests
    <n lines: k t_1 ... t_k, subscriber 0 first>
    v} *)

exception Parse_error of string
(** Raised with a human-readable message (including line number) when the
    input does not conform to the format. *)

val save : Workload.t -> string -> unit
(** [save w path] writes [w] to [path], replacing any existing file. *)

val load : string -> Workload.t
(** [load path] reads a workload back. Raises {!Parse_error} on malformed
    input and [Sys_error] on I/O failure. The header's counts size
    nothing: rates and interest rows are collected as their lines
    arrive, so a count the input cannot back (up to [max_int]) is a
    line-numbered {!Parse_error} at the end of the input, never an
    allocation of that size. *)

val output : out_channel -> Workload.t -> unit
val input : in_channel -> Workload.t

val to_string : Workload.t -> string
(** The canonical rendering {!save} writes — what the planning service
    journals and digests. *)

val of_string : string -> Workload.t
(** Parse an in-memory rendering; raises {!Parse_error} like {!load}. *)
