(** Crash-safe persistence for the planning daemon: a write-ahead log of
    framed records plus a periodically rewritten snapshot, so a
    [kill -9]'d server recovers its workload registry and plan cache on
    restart instead of re-running the solver.

    The journal stores opaque string payloads ({!Service} encodes its
    ops as one JSON object per record). On disk each record is framed as

    {v
    <u32 LE payload length> <u32 LE CRC-32> <u64 LE epoch> <payload bytes>
    v}

    where the CRC covers the epoch field followed by the payload, under
    [DIR/wal.mcssj]; [DIR/snapshot.mcssj] holds the same framing and is
    only ever replaced atomically (write to a temp file, fsync, rename),
    after which the WAL is truncated. Replay reads the snapshot then the
    WAL; a torn tail — a crash mid-append leaves a short header or a
    payload whose CRC does not match — is cut off the WAL in place
    ([ftruncate] to the last good record) and everything before it is
    recovered. A corrupt snapshot record stops the snapshot replay at
    that point but is never "repaired": the snapshot is only written
    whole.

    All operations are thread-safe. *)

type config = {
  dir : string;  (** Created (with parents) on {!open_} when missing. *)
  fsync : bool;
      (** [fsync] the WAL after every append (default). Disabling trades
          the tail of the log on power loss for append latency. *)
  snapshot_every : int;
      (** WAL records after which {!snapshot_due} turns true; [0] never. *)
}

val default_config : dir:string -> config
(** [fsync = true], [snapshot_every = 256]. *)

type replay = {
  records : (int * string) list;
      (** Recovered [(epoch, payload)] records: snapshot first, then
          WAL. *)
  snapshot_records : int;
  wal_records : int;
  truncated_bytes : int;  (** Torn tail cut off the WAL. *)
  corrupt_records : int;  (** Framing/CRC failures hit during replay. *)
  dropped_frames : int;
      (** Best-effort count of whole frames lost to the cut tail: the
          scan keeps following frame headers past the first failure
          (without trusting their payloads) and counts any
          unsynchronised remainder as one more frame. [0] on a clean
          log. *)
}

type t

val open_ : ?obs:Mcss_obs.Registry.t -> config -> t * replay
(** Replay what is on disk, truncate any torn WAL tail, and reopen the
    WAL for appending. [obs] receives [serve.journal.*] counters and the
    fsync latency histogram. Raises [Unix.Unix_error]/[Sys_error] when
    the directory cannot be created or opened. *)

val append : ?epoch:int -> t -> string -> unit
(** Frame, write, and (per {!config}) fsync one record. Without [epoch]
    the frame is stamped with the journal's current epoch; with it, the
    frame is stamped with exactly [epoch] (a follower mirroring a
    leader's backlog must reproduce each frame byte for byte, including
    frames below its own adopted epoch) and the journal's epoch floor is
    raised when [epoch] is ahead. Counts one [serve.journal.appends] and
    the frame's size (header included) in [serve.journal.append_bytes]. *)

val wal_records : t -> int
(** Records currently in the WAL (replayed + appended since the last
    {!snapshot}). *)

val snapshot_due : t -> bool

val snapshot : t -> string list -> unit
(** Atomically replace the snapshot with the given full state and start
    a fresh WAL. The caller (the service) passes every record needed to
    rebuild its state from scratch. Snapshot frames are stamped with the
    current epoch. *)

val snapshots_taken : t -> int

(** {2 Fencing epochs}

    Every record carries the epoch it was written under. The epoch is a
    monotonically increasing term number bumped by leader promotion:
    replication rejects a leader presenting a lower epoch than its
    follower has already adopted, which is what makes a revived stale
    leader harmless. [DIR/epoch.mcssj] persists the current epoch
    atomically; on {!open_} the journal adopts the maximum of the
    persisted value and the highest epoch seen in any recovered frame,
    so the invariant survives a crash between the record fsync and the
    sidecar write. *)

val epoch : t -> int
(** The epoch new appends are stamped with ([0] initially). *)

val last_epoch : t -> int
(** Epoch of the most recently written record ([0] on an empty
    journal) — what the replication handshake reports, so a leader can
    detect a divergent tail and not just a divergent length. *)

val set_epoch : t -> int -> unit
(** Adopt a higher epoch (persisted before the in-memory update). Lower
    or equal values are ignored: epochs never regress. *)

val bump_epoch : t -> int
(** Atomically raise the epoch by one and return the new value
    (promotion). *)

(** {2 Record indices}

    Every record appended to the journal has a dense, monotonically
    increasing absolute index starting at 1. [DIR/base.mcssj] persists
    the index of the last record folded into the snapshot, so indices
    survive both restarts and snapshot folds; the WAL always holds
    records [base_index + 1 .. last_index]. Replication uses these
    indices to negotiate incremental resync: a follower reports its
    [last_index] and the leader streams the missing suffix when it still
    has it in its WAL, or ships a full snapshot otherwise. *)

val base_index : t -> int
(** Index of the last record folded into the snapshot ([0] before any
    fold). *)

val last_index : t -> int
(** Index of the most recently appended record:
    [base_index t + wal_records t]. [0] on an empty journal. *)

val read_from :
  t -> index:int -> ((int * int * string) list, [ `Resync ]) result
(** [read_from t ~index] returns the WAL records strictly after absolute
    index [index] as [(index, epoch, payload)] triples, in order.
    [Error `Resync] when the span is gone — [index < base_index t]
    (folded into the snapshot) or [index > last_index t] (the caller is
    ahead of this journal, e.g. after a divergent restart) — in which
    case the caller must take a full snapshot instead. *)

val epoch_at : t -> index:int -> int option
(** Epoch of the WAL record at absolute index [index]; [None] when that
    record is not in the WAL (folded into the snapshot, or past the
    end). The replication handshake uses this to detect a follower whose
    tail diverged — same index, different epoch — and force a reset. *)

val iter_from :
  t ->
  index:int ->
  (index:int -> epoch:int -> string -> unit) ->
  (int, [ `Resync ]) result
(** [iter_from t ~index f] applies [f] to each record {!read_from}
    returns and yields how many records were visited. Same [`Resync]
    contract as {!read_from}. *)

val install_snapshot : t -> base:int -> epoch:int -> string list -> unit
(** Atomically replace this journal's entire contents with a full state
    received from elsewhere (follower resync): adopts [epoch] (raises
    only), writes the payloads as the new snapshot, persists [base] as
    the new base index, and truncates the WAL — discarding any divergent
    local tail. After the call [last_index t = base]. The caller owns
    the corresponding in-memory state reset. *)

val wal_path : t -> string
val snapshot_path : t -> string

val close : t -> unit
(** Idempotent. Appending after [close] raises [Sys_error]. *)

(** {2 Read-only verification} *)

type verify_report = {
  v_snapshot_records : int;
  v_wal_records : int;
  v_corrupt_records : int;  (** Framing/CRC failures across both files. *)
  v_dropped_frames : int;  (** Frames apparently lost past a failure. *)
  v_trailing_bytes : int;
      (** Bytes past the last good WAL frame (torn or corrupt tail). *)
  v_base_index : int;
  v_persisted_epoch : int;  (** Contents of [epoch.mcssj]. *)
  v_min_epoch : int;  (** Over recovered records; [0] when empty. *)
  v_max_epoch : int;
  v_epoch_regressions : int;
      (** Adjacent record pairs whose epoch decreased — always [0] on a
          journal written by this code. *)
}

val verify : dir:string -> verify_report
(** Scan [dir]'s snapshot and WAL without opening anything for write:
    unlike {!open_} a torn tail is reported, never truncated — the
    journal on disk is byte-identical before and after. Backs
    [mcss journal --verify]. *)

(** {2 Framing}

    Exposed for tests, the fault-injection suite (corrupting a frame
    deliberately requires computing what the good CRC would have been),
    and {!Replication}, which reuses the on-disk framing as its wire
    format. *)

val crc32 : string -> int32
(** IEEE 802.3 (zlib) CRC-32 of the whole string. *)

val frame : epoch:int -> string -> string
(** [frame ~epoch payload] is the on-disk/on-wire encoding of one
    record: [<u32 LE length><u32 LE crc><u64 LE epoch><payload>], the
    CRC taken over the 8 epoch bytes followed by the payload. Raises
    [Invalid_argument] past {!max_record_bytes} or on a negative
    epoch. *)

val header_bytes : int
(** Frame header size in bytes (16). *)

val max_record_bytes : int
(** Upper bound on a single payload (256 MiB); larger lengths in a frame
    header are treated as corruption. *)

val read_base : string -> int
(** [read_base dir] reads [dir/base.mcssj] ([0] when absent). *)

val read_epoch : string -> int
(** [read_epoch dir] reads [dir/epoch.mcssj] ([0] when absent). *)
