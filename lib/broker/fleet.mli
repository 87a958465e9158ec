(** The deployed pub/sub engine: one {!Broker} per VM of an MCSS
    allocation, a frontend routing table mapping each topic to the
    brokers hosting its pairs, and a driver that pumps a publication
    schedule through the fleet and reports delivery and latency metrics.

    This is the message-level counterpart of {!Mcss_sim.Simulator}: where
    the simulator counts traffic, the fleet routes message values through
    FIFO queues, so it additionally observes ordering, duplicates and the
    queueing latency induced by the allocator's packing decisions. *)

type t

type latency_summary = {
  samples : int;  (** Total deliveries measured (reservoir may be smaller). *)
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;  (** All in horizon units. *)
}

type report = {
  published : int;  (** Messages generated by the publishers. *)
  routed : int;  (** Message-to-broker handoffs (≥ published copies). *)
  deliveries : int;  (** Message copies handed to subscribers. *)
  received : int array;  (** Per subscriber. *)
  latency : latency_summary option;  (** [None] when nothing was delivered. *)
  max_utilization : float;  (** Busiest broker's bandwidth utilisation. *)
  broker_stats : (int * Broker.stats) list;  (** By broker id. *)
  totals : Mcss_report.Delivery.totals;
      (** Shared accounting view: [published]/[handoffs = routed]/
          [delivered = deliveries]; the in-process fleet never drops. *)
}

val build :
  Mcss_core.Problem.t -> Mcss_core.Allocation.t -> message_bytes:int -> t
(** Stand up one broker per VM, each with service capacity
    [BC · message_bytes] bytes per horizon, subscription tables copied
    from the allocation. Raises [Invalid_argument] on a nonpositive
    message size or a duplicated pair. *)

val num_brokers : t -> int

val brokers_for_topic : t -> Mcss_workload.Workload.topic -> int list
(** The frontend's routing entry, ascending broker ids. *)

val schedule_events :
  Mcss_workload.Workload.t -> duration:float ->
  (float * Mcss_workload.Workload.topic) array
(** The publication schedule as (time, topic) pairs sorted by time:
    topic [t] publishes exactly [round(ev_t · duration)] events, evenly
    spaced with the topic's {!Mcss_sim.Simulator.phase_of_topic} — the
    same generator the simulator counts with, so a live dataplane
    pumping this schedule reconciles against the simulator's
    predictions exactly. *)

(** Bounded reservoir over latency samples (10 000 kept): exact
    quantiles for small runs, statistically sound for big ones. Eviction
    draws come from the caller's seeded {!Mcss_prng.Rng}, so summaries
    are bit-reproducible under a fixed seed. Shared by the in-process
    fleet and the live dataplane's subscriber sinks. *)
module Reservoir : sig
  type t

  val create : rng:Mcss_prng.Rng.t -> t
  val add : t -> float -> unit

  val kept : t -> float array
  (** The retained samples, unsorted. *)

  val summary : t -> latency_summary option
  (** [None] when no sample was added. *)
end

val run : ?obs:Mcss_obs.Registry.t -> t -> latency_seed:int -> report
(** Generate one horizon of the schedule ({!schedule_events}), route
    every message to the brokers hosting its topic, and collect the
    report. [latency_seed] seeds the reservoir's eviction draws, so
    latency quantiles are bit-reproducible run to run. The fleet
    is consumed: each [t] can be run once (broker queues are stateful);
    build a fresh fleet per run.

    [obs] (default {!Mcss_obs.Registry.noop}) records a [fleet] span with
    [schedule]/[deliver] children, the [broker.published] /
    [broker.routed] / [broker.deliveries] counters, the
    [broker.max_utilization] gauge and two histograms:
    [broker.utilization] (per broker) and [broker.delivery_latency]
    (reservoir samples, horizon units). *)
