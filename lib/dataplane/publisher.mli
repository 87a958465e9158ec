(** The load generator: drives a publication schedule into a live
    {!Cluster}, one synchronous batch per destination broker.

    Events are taken in schedule order with a global sequence number
    (their index), stamped with {!Mcss_obs.Clock} at send time, and
    routed to {e every} broker currently hosting the topic — the
    cluster's routing table is re-read for each batch, so re-homes and
    kills that land mid-run take effect within one batch. Each batch is
    acked by the broker only after fan-out enqueue, which gives the
    publisher backpressure and makes "all batches acked" mean "all
    copies are in sink buffers or counted dropped". *)

type stats = {
  events : int;  (** Schedule events attempted. *)
  copies_sent : int;  (** Acked (event, broker) copies. *)
  acked_delivered : int;  (** Sink copies the brokers enqueued. *)
  acked_dropped : int;  (** Copies the brokers dropped (overflow/unattached). *)
  send_failures : int;  (** Copies lost to dead brokers (transport errors). *)
  unrouted : int;  (** Events whose topic had no live broker at send time. *)
}

val run :
  ?batch:int ->
  ?pace:float ->
  Cluster.t ->
  schedule:(float * int) array ->
  stats
(** Pump the whole schedule ({!Pump.schedule} shape: time-sorted
    (time, topic)). [batch] (default 64) bounds
    events per request; [pace] (default [0.] = as fast as acks allow)
    is wall seconds per horizon — with [pace > 0.] the publisher sleeps
    until each batch's first event is due, so control-plane changes can
    be interleaved with a run deterministically. *)
