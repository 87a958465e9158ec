(** The service's version store: every workload digest the service
    knows, which of them are held in memory, and how one that is not is
    rebuilt. The journal is the store; the resident workloads and plans
    are a cache over it.

    A {e root} — a workload a client loaded, or one whose solver plan an
    update started from — stays in memory for the service's life, with
    its plans. Of the versions updates derive, only the newest is held
    in full; the one it replaces is evicted (its workload, degraded-reply
    fallback and plan-cache entries go; [serve.versions.evicted] counts
    it), and what is left of it is its [update] record, O(Δ). A loaded
    root that an update derives again, and that no update started from,
    becomes a version like any other. An evicted version is rebuilt by
    replaying the records forward from its nearest resident ancestor,
    each replayed version registered as the newest as soon as it is
    made ([serve.versions.rebuilt] counts it).

    One table maps each digest to its record: its workload (none once
    evicted), its fallback, its version, and the solver plans pinned on
    it. [history] keeps every version in creation order, the one order
    in which a snapshot's [update] records replay: two updates can make
    the same digest from different bases.

    Every function is thread-safe: it takes the lock {!create} was
    given, which also guards the store's updates to the metrics
    registry. Call none while holding that lock. *)

(** A solved plan: the solver result (so chaos drills can replay the
    allocation), its money view, the canonical plan text the journal
    stores and the digest clients compare plans by. *)
type plan = {
  result : Mcss_core.Solver.result;
  bandwidth_gb : float;
  solve_seconds : float;
  text : string;
  plan_digest : string;
}

(** A plan and what it was solved for, so a snapshot can re-journal it
    and a degraded reply can disclose the served params. *)
type entry = { digest : string; params : Protocol.solve_params; plan : plan }

val cache_key : string -> Protocol.solve_params -> string
(** The plan-cache key of [(digest, params)]. Keyed on the solver
    ladder's name, so ["parallel"] and the default config's own name,
    which give the same plan, share one key. *)

val plan_record : origin:string option -> entry -> Record.t

type version
(** An update-derived digest as the journal holds it: its [update]
    record and the plan digest the update answered with. *)

type t

val create :
  obs:Mcss_obs.Registry.t ->
  lock:Mutex.t ->
  cache:entry Plan_cache.t ->
  replay:
    (w:Mcss_workload.Workload.t ->
    entry ->
    deltas:string ->
    (entry * Mcss_workload.Workload.t) option) ->
  t
(** [lock] is the lock that guards [obs]. [replay ~w e ~deltas] re-runs
    a journaled update on base entry [e] of workload [w]: the evolved
    entry and workload, or [None] when the batch no longer applies. The
    store registers into [cache] and evicts from it. *)

val clear : t -> unit
(** Forget everything, the plan cache's entries too. *)

(** {2 Lookups} *)

val workload : t -> string -> Mcss_workload.Workload.t option
(** The workload under a digest, while it is in memory. *)

val fallback : t -> string -> entry option
(** The last plan registered for a resident digest: what degraded
    replies serve. *)

val entry :
  t ->
  lookup:(entry Plan_cache.t -> string -> entry option) ->
  key:string ->
  string ->
  entry option
(** The resident plan an update on [digest] at [key] starts from: the
    plan cache's (through [lookup]: [Plan_cache.find] for a request,
    [Plan_cache.promote] for replay, which is not cache traffic), the
    fallback when it was solved under [key], or a pinned plan. *)

val version : t -> ?key:string -> string -> version option
(** The latest version that made [digest] (under [key]'s params, when
    given), resident or evicted. *)

(** {2 Registration} *)

val add_root : t -> string -> Mcss_workload.Workload.t -> bool
(** Register a workload as a root; whether it was not in memory. *)

val add_entry : t -> entry -> unit
(** Cache a plan and make it its digest's fallback, while its workload
    is in memory. *)

val add_update :
  t ->
  w:Mcss_workload.Workload.t ->
  entry ->
  deltas:string ->
  entry * Mcss_workload.Workload.t ->
  unit
(** [add_update ~w e ~deltas (e', w')] registers what an applied update
    made from base entry [e] of workload [w]: its version, then [w'] as
    the newest version and [e'] as its plan. When [e] is not the plan of
    the version that made its digest, it is a solver plan: it is pinned,
    and its workload kept as a root, since the new version is rebuilt
    from it. *)

val rebuild :
  t ->
  ?expired:(unit -> bool) ->
  version ->
  (Mcss_workload.Workload.t * entry, [ `Expired | `Internal of string ]) result
(** The version's workload and plan, replayed from its nearest resident
    ancestor (or the pinned plan its chain starts from) forward: the
    engine's deterministic replay, not a solver run. [expired] (default
    never) is checked between replayed versions, never before the
    first, so every call makes progress and a call it stops is resumed,
    not restarted, by the next. *)

(** {2 Snapshots and counts} *)

val records : t -> origin:string option -> Record.t list
(** The whole state as journal records, O(roots × pairs + versions × Δ):
    the roots' loads, every version's [update] record in creation order
    (each after the pinned plan it started from, the first time one is
    needed), then the plans only a fallback still holds, then the plan
    cache's in LRU order, so replaying them reproduces its recency. *)

type stats = {
  workloads : int;  (** Workloads in memory. *)
  versions : int;  (** Update-derived versions in memory: 0 or 1. *)
  evicted : int;
  rebuilt : int;
}

val stats : t -> stats
