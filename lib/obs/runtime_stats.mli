(** Process-level resource figures sampled at reporting time, so every
    benchmark record says not just how fast a run was but what it cost
    the machine to get there.

    Peak RSS comes from [/proc/self/status]'s [VmHWM] line (Linux); on
    platforms without procfs it is reported as [0] rather than guessed.
    Allocation pressure comes from [Gc.stat] — [major_words] is
    cumulative over the process, so per-phase attribution needs two
    samples. *)

type t = {
  peak_rss_bytes : int;  (** [VmHWM], in bytes; [0] when unavailable. *)
  gc_major_words : float;
      (** Words promoted to or allocated in the major heap since
          process start. *)
  gc_major_collections : int;
  gc_heap_words : int;  (** Current major heap size, in words. *)
}

val sample : unit -> t

val to_json : t -> Mcss_json.Json.t
(** The sample as a JSON object, e.g. [{"peak_rss_bytes":123,...}] —
    the ["runtime"] field of every BENCH_*.json. Also embeds the
    process-wide per-phase allocation table ({!Gc_phase.to_json}) as a
    ["gc_phases"] field, read at formatting time. *)
