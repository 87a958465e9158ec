(** One broker process — the software running on one VM of the
    allocation. It holds the subscription table for the pairs assigned to
    its VM and models message handling as a FIFO single server
    ({!Queueing.fifo_depart}): each ingested event costs one incoming
    stream plus one copy per local subscriber, [(fanout + 1) / capacity]
    of work. The queueing delay this induces is exactly what the MCSS
    capacity constraint is supposed to keep bounded. *)

type t

val create : id:int -> capacity:float -> t
(** [capacity] is the service rate in events per time unit (the VM's
    [BC]); must be positive. [id] names the broker in error messages. *)

val subscribe : t -> topic:Mcss_workload.Workload.topic ->
  subscriber:Mcss_workload.Workload.subscriber -> unit
(** Register a pair. Raises [Invalid_argument] if the pair is already
    registered on this broker. *)

val subscribed : t -> topic:Mcss_workload.Workload.topic ->
  subscriber:Mcss_workload.Workload.subscriber -> bool

val unsubscribe : t -> topic:Mcss_workload.Workload.topic ->
  subscriber:Mcss_workload.Workload.subscriber -> bool
(** Drop a pair (the live dataplane re-homes pairs on running brokers).
    Returns [false] when the pair was not registered. Order within the
    topic's subscriber list is not preserved. *)

val num_pairs : t -> int

val iter_subscribers :
  t -> Mcss_workload.Workload.topic -> (Mcss_workload.Workload.subscriber -> unit) -> unit
(** The topic's locally homed subscribers, in registration order (after
    an {!unsubscribe}, the order {!unsubscribe} leaves). *)

val ingest : t -> topic:Mcss_workload.Workload.topic -> time:float -> float option
(** Queue one event published at [time]: [Some depart], when every local
    copy leaves the broker (queue wait plus service). Events must arrive
    in nondecreasing [time] (raises [Invalid_argument] otherwise). An
    event for a topic with no local subscribers is [None] and free of
    charge — the frontend would not have routed it here. *)

val max_queue_delay : t -> float
(** Worst [depart - time] observed, in the unit of [time]. *)
