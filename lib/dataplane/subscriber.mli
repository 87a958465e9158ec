(** The delivery sinks: one connection per broker, attached with the
    [attach] verb, each drained by a collector domain. All collectors
    share one tally — per-subscriber {e unique} event counts
    (deduplicated by (seq, subscriber), which is what makes re-home
    windows count duplicates instead of double-delivering), a duplicate
    counter, and a seeded end-to-end latency reservoir
    ({!Mcss_broker.Fleet.Reservoir} over [now - pub_ns], seconds). *)

module Server := Mcss_serve.Server

type t

val create : num_subscribers:int -> latency_seed:int -> unit -> t

val attach : t -> vm:int -> Server.address -> (unit, string) result
(** Connect to the broker, attach as a sink for all subscribers, and
    start a collector domain. Attaching twice to the same [vm] is a
    no-op ([Ok ()]) — which is how a pump running over a plan change
    can idempotently cover spawned brokers. *)

val attach_cluster : t -> Cluster.t -> (unit, string) result
(** {!attach} to every live broker; first error wins (already-attached
    brokers stay attached). *)

val copies : t -> int
(** Delivery copies received, duplicates included — the quiesce
    counter matched against the brokers' ledgers. *)

val unique : t -> int array
(** Per-subscriber unique event counts (a copy). *)

val duplicates : t -> int

val latency : t -> Mcss_broker.Fleet.latency_summary option
(** End-to-end seconds, publisher stamp to sink receipt. *)

val close : t -> unit
(** Close every sink connection and join the collectors. Idempotent. *)
