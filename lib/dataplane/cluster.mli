(** The broker fleet behind a plan: one {!Broker_proc} per VM of an
    allocation, a topic → live-broker routing table, and the live
    re-home machinery that replays plan changes onto running brokers
    without losing events.

    {b Zero-loss re-home ordering.} {!apply_plan} moves a pair from
    broker A to broker B as: (1) [rehome add] on B, (2) the routing
    table serves the {e union} of old and new hosts for the affected
    topics (derived from the mirrors, which are updated add-first),
    (3) [rehome remove] on A. Between (1) and (3) every publication of
    the topic reaches both brokers, so the pair may see duplicates —
    sinks deduplicate by (seq, subscriber) — but never a gap. This is
    drain-then-move at the granularity the line protocol allows.

    A cluster handle is either {e owning} (it {!boot}ed the broker
    domains in this process) or {e attached} (the brokers live in
    another process, reached through a manifest file). Either way
    control flows through the same sockets; the only difference is that
    {!join} has domains to wait for only in the owning process, and
    that brokers spawned by an attached handle (recovery VMs) run in
    the attaching process. *)

module Server := Mcss_serve.Server

type t

type apply_stats = {
  matched : int;  (** Plan VMs matched onto already-running brokers. *)
  spawned : int;  (** Fresh brokers started for unmatched plan VMs. *)
  pairs_added : int;
  pairs_removed : int;
  errors : string list;  (** Per-broker control failures (dead brokers). *)
}

val boot :
  dir:string ->
  message_bytes:int ->
  Mcss_core.Problem.t ->
  Mcss_core.Allocation.t ->
  t
(** Start one broker per VM of the allocation on
    [dir/broker-<vm>.sock], subscription tables copied from the plan.
    [message_bytes] sizes every publication; each broker's service
    capacity is [capacity · message_bytes] bytes per horizon, exactly
    {!Mcss_broker.Fleet.build}'s parameterisation. *)

val save_manifest : t -> string -> unit
(** Write the fleet manifest (JSON: members, message bytes, capacity)
    for another process to {!attach} to. *)

val attach : manifest:string -> Mcss_core.Allocation.t -> t
(** Adopt a running fleet from its manifest. The allocation must be the
    plan the fleet was booted from — it seeds the pair mirrors that
    {!apply_plan} diffs against (brokers are not queried for their
    tables). Raises [Failure] on an unreadable manifest. *)

val live : t -> (int * Server.address) list
(** Alive brokers, ascending id. *)

val address : t -> int -> Server.address option
val routing : t -> topic:int -> int list
(** Alive brokers currently hosting the topic (via the mirrors). *)

val assignment : t -> (int * int) list
(** Current plan-VM → broker-id mapping (identity after {!boot},
    updated by {!apply_plan}). *)

val with_routes :
  t ->
  (route:(topic:int -> int list) -> addr:(int -> Server.address option) -> 'a) ->
  'a
(** Run [f] inside the cluster's critical section with unlocked routing
    and address accessors. Publishers route {e and send} each batch in
    here; {!apply_plan} issues every [rehome remove] under the same
    lock, which closes the stale-snapshot race — a batch routed before
    a pair's new home appeared is fully acked before the old home can
    be told to drop it. Keep [f] short; do not call other [Cluster]
    functions from inside it (the lock is not reentrant). *)

val pairs_on : t -> int -> int
(** Mirrored pair count of one broker (0 for unknown/dead). *)

val kill : t -> int -> bool
(** Abrupt chaos kill: mark dead, drop from routing, send the [kill]
    line and raise the local kill flag. [false] if already dead or
    unknown. The broker's undelivered sink buffers are lost — that is
    the point. *)

val apply_plan :
  ?on_spawn:(int -> Server.address -> unit) ->
  t ->
  Mcss_core.Allocation.t ->
  apply_stats
(** Reconcile the live fleet onto a new allocation. Plan VMs are
    matched to running brokers by pair-overlap (greedy, identity
    preferred on ties) — plan VM ids need not equal broker ids, which
    is what lets {!Mcss_engine.Engine.fail}'s dense renumbering land on
    a fleet that kept its survivors. Unmatched plan VMs get fresh
    brokers ([on_spawn] fires after the socket exists and {e before}
    any pair is added, so the caller can attach sinks first); matched
    brokers receive adds before any broker receives removes (see the
    ordering note above). *)

val shutdown : t -> unit
(** Graceful: [shutdown] every live broker, then {!join}. *)

val join : t -> unit
(** Wait for every locally-owned broker domain to exit. *)
