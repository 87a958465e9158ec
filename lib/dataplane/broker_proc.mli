(** One live broker: an OCaml 5 domain serving a planned VM's share of
    the workload over a line-protocol socket.

    The domain owns a {!Mcss_broker.Broker}, whose subscription table
    (seeded from the plan) drives the fan-out and whose FIFO step
    ({!Mcss_broker.Queueing.fifo_depart}) feeds the ledger's
    [max_queue_delay], and a select loop multiplexing three kinds of
    peers over one listener:

    - {b publishers} send [pub] batches ({!Wire.pub_line}); each event
      is ingested through the broker core and fanned out to the sinks
      attached for its locally homed subscribers. The reply is sent
      only after every copy is enqueued, so a synchronous publisher
      gets backpressure and an acked batch is guaranteed to be in sink
      buffers (or counted as dropped);
    - {b sinks} send [attach] once and then receive delivery lines
      ({!Wire.delivery_line}). Sink writes are buffered and bounded:
      when a sink's buffer exceeds 4 MiB further copies for it are
      dropped and counted, never blocking the loop;
    - {b control} peers speak {!Mcss_serve.Protocol}: [health],
      [drain], [rehome], [ledger], [shutdown] — plus the raw
      [{"req":"kill"}] line, which tears the broker down abruptly
      (no replies, no flush), the chaos path.

    Planning verbs ([solve], [update], ...) are answered with
    [bad_request], mirroring how planning servers reject dataplane
    verbs.

    An exception that escapes the serving loop closes every socket and
    is reported as one [broker N: crashed: ...] line on stderr. *)

type t

val start :
  vm:int ->
  address:Mcss_serve.Server.address ->
  pairs:(int * int) list ->
  bytes_per_horizon:float ->
  message_bytes:int ->
  unit ->
  t
(** Bind the listener (in the calling domain, so the socket exists when
    this returns) and spawn the serving domain. The queue model's
    capacity is [bytes_per_horizon / message_bytes] events per horizon,
    so the message size cancels out of it. Each event is stamped with
    the wall-clock second it arrives but charged [(fanout + 1)] events
    of work against that capacity, i.e. horizons of work; the ledger's
    [max_queue_delay] mixes the two units. Raises [Unix.Unix_error] when
    the address cannot be bound. *)

val vm : t -> int
val address : t -> Mcss_serve.Server.address

val kill : t -> unit
(** Raise the kill flag: the domain tears down within one select tick
    (50 ms) even if no [kill] line can reach it. Idempotent. *)

val join : t -> unit
(** Wait for the domain to exit (after [shutdown], [kill], or
    {!kill}). *)
