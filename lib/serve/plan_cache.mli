(** A thread-safe, content-addressed LRU cache for solved plans.

    Keys are opaque strings — the service keys entries by
    [(workload digest, solver params)] so two clients asking the same
    what-if question share one solve. Capacity is a fixed entry count;
    inserting into a full cache evicts the least recently used entry.
    [find] promotes, and every operation is guarded by an internal
    mutex so connection workers on different domains can share one
    cache.

    Hits, misses and evictions are counted since creation; the service
    surfaces them through [stats] and the Prometheus [metrics] reply. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val capacity : 'a t -> int

val find : 'a t -> string -> 'a option
(** Look up and promote; counts one hit or one miss. *)

val promote : 'a t -> string -> 'a option
(** [find] without counting: the recency list moves exactly as under
    [find], the hit and miss counters do not. Journal replay looks its
    bases up with this, so the counters measure client traffic only. *)

val add : 'a t -> string -> 'a -> unit
(** Insert or replace (replacement promotes and does not evict);
    eviction of the LRU entry is counted. *)

val remove : 'a t -> string -> unit
(** Drop the entry under the key, if any. Not an eviction: the hit,
    miss and eviction counters do not move, and the other entries keep
    their recency order. The service drops an evicted version's plans
    with this. *)

val length : 'a t -> int

val clear : 'a t -> unit
(** Drop every entry (hit/miss/eviction counters are kept — they count
    since creation). A follower resetting to a leader's snapshot uses
    this before replaying the received state. *)

val to_list : 'a t -> (string * 'a) list
(** Every entry, least recently used first, so [add]-ing them back in
    order reproduces the recency list. Snapshots use this to persist
    the cache without disturbing it (no promotion, no counter churn). *)

type stats = { hits : int; misses : int; evictions : int; entries : int }

val stats : 'a t -> stats

val hit_ratio : stats -> float
(** [hits / (hits + misses)]; [0.] before any lookup. *)
