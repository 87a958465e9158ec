(** The planning service proper: resident workloads, the plan cache, the
    admission gate, the solver circuit breaker, and the request
    dispatcher — everything except the sockets, so it can be driven
    in-process by tests and perfbench as well as by {!Server}.

    A workload is registered once ([load]) and addressed thereafter by
    its content digest ({!digest_of_workload}), so the same content
    always maps to the same digest no matter how it arrived. Plans are cached under [(digest, solver params)]; a [solve]
    or [whatif] point that hits the cache is answered without running
    the solver (the [serve.solver.runs] counter does not move and no
    solver timing is recorded — only [serve.cache.hits]). Concurrent
    misses on the same key are single-flighted: one request runs the
    solver, the rest share its result as a hit.

    {b Durability.} With a {!Journal} configured, every workload a
    [load] registers, every solved plan and every applied [update] is
    appended to a write-ahead log as one {!Record} (a [load], [plan]
    or [update] op); {!create} replays the log so a restarted (even
    [kill -9]'d) daemon answers the same [solve] as a cache hit, with
    the same [plan_digest], without re-running the solver. A snapshot
    folds the whole state into records: each root as its [load] and
    [plan] records, each update-derived version as its [update] record
    in creation order (after the solver plan it started from, the first
    time one is needed), then the plan cache's entries in LRU order. It
    costs O(roots × pairs + updates × Δ), not O(versions × pairs).

    {b Live updates.} An [update] request evolves a cached plan through
    the incremental engine ({!Mcss_engine.Engine}), adopting the cached
    allocation directly (no plan text is decoded). The evolved workload
    gets its own content digest, so existing plans for the old digest
    stay valid and the plan cache never serves a stale allocation for
    the new content. Only the delta batch is journaled — one [update]
    record, whose size grows with the batch, not the workload; no
    [load] record of the evolved workload precedes it. Replay and
    replication re-apply the batch to the base plan, re-deriving the
    evolved workload and plan; the engine is deterministic, so the
    restarted daemon reproduces the exact [plan_digest] the live run
    answered with (and drops the record if it does not). Journals from
    older builds, which did write that [load] record, replay to the same
    state.

    The service keeps one {e resident} engine: the one that produced the
    most recent update's cache entry. An update whose base entry is
    physically that entry ([==]) folds its deltas into the resident
    engine instead of adopting the entry's plan with
    {!Mcss_engine.Engine.of_plan}; any other base (a branch from an
    older digest, a solved plan) is adopted as before and its engine
    becomes resident. Before its entry is published, the engine is
    canonicalised ({!Mcss_engine.Engine.canonicalize}: the fleet re-laid
    in {!Mcss_core.Allocation.copy}'s order, VM loads re-summed in that
    order, the drift counter reset), so it is in exactly the state
    [of_plan] would build from the entry — which is what replay and
    replication still do — and both paths answer bit-identically. The
    slot is emptied before the deltas are applied, so a batch that
    raises leaves no half-applied engine behind, and it is dropped on
    [reset_to_snapshot], [demote] and [close]. Because every update
    starts from a zero drift counter, drift re-solves never accumulate
    across requests: only a single batch that churns more than the
    threshold re-solves cold. The [serve.updates.resident] counter
    counts the updates the resident engine served.

    {b Retention.} The {!Versions} store decides what stays in memory.
    A root — a workload a client loaded, or one whose solver plan an
    update started from — is kept for the service's life, with its
    plans. Of the versions updates derive, only the newest is kept in
    full; the one it replaces is evicted ([serve.versions.evicted]
    counts it), and what is left of it is its [update] record, O(Δ),
    which the journal holds too. That record is kept for the service's
    life, so memory still grows by O(Δ) per update, and a restart
    replays every update. A loaded root that an update derives again,
    and that no update started from, becomes a version like any other.
    An evicted version is never lost: a request that names its digest
    ([solve], [update], [whatif], [chaos]) first rebuilds it by
    replaying the records forward from its nearest resident ancestor —
    the engine's deterministic replay, not a solver run, so it leaves
    [solver_runs] and the circuit breaker alone. Each replayed version
    is made resident as the newest as soon as it is made
    ([serve.versions.rebuilt] counts it), so a rebuild costs O(depth ×
    pairs) once, and a rebuild cut short is resumed by the next request,
    not restarted. The rebuild runs under the update lock (other updates
    wait for it) and the admission gate (a full gate answers
    [overloaded]); the request's deadline is checked between replayed
    versions, so each request replays at least one and answers [timeout]
    past its deadline, having overrun it by at most one version's
    replay. Rebuilt, the version answers as it did when it was made: a
    [solve] at the update's params is a cache hit with the update's
    [plan_digest]; under an open circuit, a [solve] at other params is
    answered [degraded] from that same plan. Startup replay and
    replication rebuild an evicted base the same way (without gate or
    deadline), so an update branched from it replays instead of being
    skipped. Journals from builds that snapshotted every workload as
    [load] and [plan] records hold no [update] record for a version made
    before that snapshot: replayed, such a version is a root and stays
    in memory; only versions derived afterwards are bounded.

    {b Degradation.} Consecutive solver failures (deadline blowouts or
    internal errors) open a circuit breaker; while it is open, cache
    misses are answered [degraded] from the last solved plan for the
    digest (see {!Protocol}) instead of queueing doomed work.

    All entry points are thread-safe; the heavy phases (solving, chaos
    drills) run outside the internal lock so concurrent workers only
    contend for microseconds. *)

type config = {
  cache_capacity : int;  (** Plan-cache entries (default 128). *)
  max_in_flight : int;  (** Concurrent solver runs (default 4). *)
  default_deadline_ms : float option;
      (** Applied when a request carries no ["deadline_ms"]. *)
  journal : Journal.config option;
      (** Where to persist state; [None] (default) serves from memory
          only. *)
  breaker : Breaker.config;  (** Solver circuit breaker thresholds. *)
  name : string;
      (** This node's name, stamped as ["origin"] into every journal op
          it accepts as leader (default ["node"]). Replication preserves
          the field, so post-mortem invariant checks can attribute every
          record in any journal to the leader that wrote it. *)
  quorum_acks : int;
      (** Replicas (including this leader) that must have fsynced a
          non-idempotent record ([update], first-time [load]) before its
          reply goes out. [1] (default) keeps replication fully async;
          with more, the reply waits on the {!set_commit_gate} gate and
          becomes [no_quorum] on timeout. Idempotent verbs never wait. *)
  quorum_timeout_ms : float;
      (** How long a write may wait for its quorum (default 2000). *)
}

val default_config : config

type t

(** A service is either a [Leader] — journals its own ops and may feed
    them to followers — or a [Follower], whose journal is a verbatim
    mirror of its leader's record sequence: local ops are never
    journaled, [update] is refused with [not_leader], and only
    {!apply_replicated}/{!reset_to_snapshot} write its journal.
    Followers still serve reads (a replicated plan is a cache hit with
    the leader's exact [plan_digest]); {!promote} turns one into a
    leader in place. *)
type role = Leader | Follower

val create :
  ?obs:Mcss_obs.Registry.t ->
  ?config:config ->
  ?role:role ->
  ?replay_to:int ->
  unit ->
  t
(** [obs] (default a fresh enabled registry) receives the per-endpoint
    request counters and latency histograms, the cache/in-flight/breaker
    gauges, the journal counters, and the solver-run counter/duration
    histogram; it is what the [metrics] request renders. When
    [config.journal] is set, opens the journal and replays it (raising
    [Unix.Unix_error]/[Sys_error] if the directory cannot be created or
    opened). [role] defaults to [Leader]. [replay_to] caps replay at the
    first N recovered records (snapshot records first, then WAL) —
    point-in-time recovery for [mcss journal --seek]. *)

val close : t -> unit
(** Close the journal (no-op without one). Idempotent. *)

val handle_line : t -> string -> Json.t
(** Decode one request line and dispatch it. Never raises: malformed
    input becomes a [bad_request] reply, unexpected exceptions an
    [internal] one. *)

val handle : t -> Protocol.envelope -> Json.t
(** Dispatch an already-decoded request. Never raises. *)

val load_workload : t -> Mcss_workload.Workload.t -> string
(** Register a workload directly (the CLI uses this to preload), returns
    its digest. Journaled unless the digest is already resident. *)

val digest_of_workload : Mcss_workload.Workload.t -> string
(** The content digest: hex MD5 of a canonical rendering of the
    workload's content — a [mcss-workload-digest 1] header, the topic
    and subscriber counts, each event rate at [%.17g] on its own line,
    then one line per subscriber listing its topic ids, each followed by
    a space. It is not the {!Mcss_workload.Wio} text, and its bytes are
    pinned: journals and clients address workloads by it.

    This is the from-scratch case of the renderer a served [update]
    uses. The resident engine keeps its workload's rendering (the text
    and each subscriber row's end offset); the next update renders
    against it, copying every run of rows that are physically ([==]) the
    previous workload's with one blit, rendering only touched and new
    rows, and hashing the text once. It writes into a spare buffer that
    it trades with the kept one, so an update allocates no new text. The
    bytes, and hence the digest, are the same either way. *)

val draining : t -> bool
(** Set forever once a [shutdown] request has been answered; {!Server}
    polls it to stop accepting and drain. *)

type replay_stats = {
  workloads_recovered : int;
  plans_recovered : int;
  updates_replayed : int;
      (** Journaled delta batches re-applied through the engine, each
          verified to land on the [new_digest] the live run recorded. *)
  records_skipped : int;
      (** Records that no longer decode or reference a workload that was
          not recovered; skipped, never fatal. *)
  wal_truncated_bytes : int;  (** Torn tail cut off the WAL. *)
  corrupt_records : int;  (** Framing/CRC failures hit during replay. *)
  dropped_frames : int;
      (** Best-effort count of whole frames lost to the cut tail (see
          {!Journal.replay}). *)
}

val replay_stats : t -> replay_stats option
(** What {!create} recovered from the journal; [None] without one. *)

(** {2 Replication}

    The leader side exposes its journal as an indexed record stream
    ({!set_journal_hook} for the live tail, {!sync_state} for a full
    snapshot); the follower side applies it ({!apply_replicated},
    {!reset_to_snapshot}). {!Replication} wires the two over a socket. *)

val role : t -> role
val role_to_string : role -> string

val epoch : t -> int
(** This node's fencing epoch: the journal's {!Journal.epoch}, or a
    volatile in-memory term when running without one. *)

val promote : ?epoch:int -> t -> bool
(** Make this service a leader (idempotent); [true] when it actually was
    a follower. A follower-to-leader transition always bumps the fencing
    epoch to [max (own + 1) epoch] — pass the highest epoch observed
    cluster-wide so the promotion fences every earlier leader; an
    already-leading node adopts [epoch] when ahead but does not re-bump.
    The caller (the serve loop) is responsible for stopping the
    follower's replication pull. *)

val demote : t -> epoch:int -> (bool, string) result
(** Fenced step-down: become a follower and adopt [epoch], but only when
    [epoch] is strictly ahead of this node's own — [Error] otherwise, so
    a laggard's stale view can never demote a genuinely newer leader.
    [Ok true] when the node was actually leading. The caller restarts
    the replication pull. *)

type journal_event = Appended of { index : int; epoch : int; payload : string }

val set_journal_hook : t -> (journal_event -> unit) option -> unit
(** Observe leader-side journal appends, with each record's absolute
    index and frame epoch. Called under the journal lock — the hook must
    be quick and must not call back into journaling. *)

val set_commit_gate : t -> (index:int -> (unit, string) result) option -> unit
(** Install the quorum gate replies to non-idempotent verbs wait on when
    [config.quorum_acks > 1] (the replication hub provides it: block
    until enough followers acked [index], [Error] on timeout). Called
    outside all service locks. *)

val journal_last_index : t -> int option
(** The journal's {!Journal.last_index}; [None] without a journal. *)

val journal_last_epoch : t -> int option
(** The journal's {!Journal.last_epoch}; [None] without a journal. *)

val journal_epoch_at : t -> index:int -> int option
(** {!Journal.epoch_at}: the epoch of the WAL record at [index], [None]
    when not in the WAL (or no journal). *)

val journal_read_from :
  t -> index:int -> ((int * int * string) list, [ `Resync ]) result
(** {!Journal.read_from} on the service's journal: the
    [(index, epoch, payload)] records strictly after absolute index
    [index]. [Error `Resync] when that span is no longer available (or
    there is no journal) — stream a {!sync_state} snapshot instead. *)

val sync_state : t -> int * int * string list
(** A consistent [(last_index, epoch, full state)] triple for seeding a
    follower that is too far behind for an incremental tail: replaying
    the records on an empty service reproduces this service's answers.
    Raises [Invalid_argument] without a journal. *)

val apply_replicated :
  t -> index:int -> epoch:int -> string -> (unit, string) result
(** Apply one leader record on a follower — through the same replay path
    a restart uses — and mirror it into the local journal at the
    leader's frame [epoch]. [index] must be exactly
    [journal_last_index + 1]; [Error] (gap, rewind, no journal, or this
    node is itself a leader — the split-brain guard) means the caller
    must stop or resync. Records that no longer replay locally are
    mirrored anyway and counted, never fatal. *)

val reset_to_snapshot :
  t -> base:int -> epoch:int -> string list -> (unit, string) result
(** Replace the journal and the in-memory state with a leader's
    {!sync_state} snapshot taken at absolute index [base] under [epoch].
    Any local records past [base] are a divergent un-acked tail and are
    truncated (counted in [serve.replication.truncated_records]).
    Refused on a leader. *)

val obs : t -> Mcss_obs.Registry.t
val cache_stats : t -> Plan_cache.stats

val cached_plan :
  t -> digest:string -> Protocol.solve_params -> Mcss_core.Solver.result option
(** The solver result cached for [(digest, params)], read without
    promoting it or counting a hit or miss — an audit hook: its
    allocation must render to the text the served [plan_digest]
    hashes. *)

val solver_runs : t -> int

val breaker : t -> Breaker.t
(** The solver circuit breaker (tests trip and inspect it directly). *)
