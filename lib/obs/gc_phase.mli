(** Per-phase GC allocation accounting.

    [measure] brackets a phase with [Gc.minor_words] and [Gc.counters]
    samples and attributes the words the {e calling domain} allocated in
    between to a named phase in a process-wide table (allocations made by domains spawned
    inside the phase are not charged — OCaml GC counters are
    per-domain, and that under-count is exactly the interesting number:
    what the orchestrating domain itself still allocates).

    The table is cumulative over the process, like [Gc.stat]; the
    benchmark writers splice it into every BENCH_*.json [runtime] block
    via {!Runtime_stats.to_json}, and [measure] also bumps
    [gc.<phase>.minor_words] / [gc.<phase>.major_words] counters on the
    given registry so the numbers surface in [--metrics-out] dumps.

    Minor words are exact: the same allocations are charged the same
    words whether or not a minor collection falls inside the phase.
    Major words include the words that minor collections inside the
    phase promoted, which may have been allocated before it began. *)

type totals = {
  mutable minor_words : float;
  mutable major_words : float;
  mutable samples : int;  (** Number of [measure] calls for the phase. *)
}

val measure : ?obs:Registry.t -> string -> (unit -> 'a) -> 'a
(** Run the thunk, charging its allocations to the phase. Exceptions
    propagate; the partial phase is still recorded. Thread-safe. *)

val totals : unit -> (string * totals) list
(** Snapshot of every phase recorded so far, sorted by phase name. *)

val reset : unit -> unit
(** Forget all phases (tests). *)

val to_json : unit -> Mcss_json.Json.t
(** The table as a JSON object, phases in sorted order:
    [{"stage1":{"minor_words":...,"major_words":...,"samples":...},...}]. *)
