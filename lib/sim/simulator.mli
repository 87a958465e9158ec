(** A discrete-event replay of a pub/sub deployment over a computed
    allocation: publications for every topic are generated over a time
    window, fanned through the VMs hosting the topic's pairs, and metered.

    This is the "does the plan actually work" substrate: it validates
    that the analytical bandwidth bookkeeping the optimiser relies on
    (Eq. 2) matches what a running broker fleet would transfer, and that
    every subscriber's measured delivery rate meets its threshold.

    Time is normalised: the window [0, duration)] with [duration = 1.0]
    representing exactly one rate horizon (event rates are events per
    horizon). *)

type arrivals =
  | Deterministic
      (** Topic [t] publishes exactly [round(ev_t · duration)] events,
          evenly spaced with a topic-specific phase — measured totals then
          match the analytical model exactly for integral rates and
          [duration = 1]. *)
  | Poisson of int
      (** Poisson process with rate [ev_t], seeded for reproducibility —
          measured totals fluctuate around the analytical model. *)

type outage = {
  vm : int;  (** VM id, as in the allocation. *)
  from_time : float;
  until_time : float;  (** Use [infinity] for a crash with no recovery. *)
  severity : float;
      (** Fraction of the VM's events dropped inside the window, in
          (0, 1]. [1.] is a full outage; anything lower models a
          capacity-throttled VM, thinned deterministically (no RNG). *)
}
(** While down, a VM neither ingests nor forwards: publications in the
    window are lost for every pair it hosts — unless the pair is
    replicated on a VM that is still up (see {!run}). Failure injection
    measures how much subscriber satisfaction a partial outage costs. *)

val outage :
  ?severity:float -> vm:int -> from_time:float -> until_time:float -> unit -> outage
(** Build an outage; [severity] defaults to [1.] (full outage). *)

type config = {
  duration : float;  (** Window length in horizons; must be positive. *)
  arrivals : arrivals;
  outages : outage list;  (** Empty for a healthy run. *)
}

val default_config : config
(** One horizon, deterministic arrivals, no outages. *)

type result = {
  events_published : int;
  vm_ingress : int array;  (** Events received by each VM (by VM id). *)
  vm_egress : int array;  (** Events sent out by each VM. *)
  delivered : int array;  (** Events delivered to each subscriber. *)
  lost : int array;  (** Events lost to outages, per subscriber. *)
  vm_bucket_load : float array array;
      (** [vm_bucket_load.(b).(k)]: events (in + out) moved by VM [b]
          during bucket [k], one of 20 equal slices of the window. *)
  totals : Mcss_report.Delivery.totals;
      (** The shared accounting schema: [published] events,
          [handoffs = Σ vm_ingress], [delivered = Σ delivered],
          [dropped = Σ lost] — what dataplane reconciliation compares
          against a live broker ledger. *)
  config : config;
}

val run :
  ?obs:Mcss_obs.Registry.t ->
  Mcss_core.Problem.t -> Mcss_core.Allocation.t -> config -> result
(** Replay the deployment. Deliveries are counted from the pairs the
    fleet actually hosts (each distinct placed pair delivers once per
    publication), so an allocation that lost pairs shows up as
    under-delivery. A pair replicated on several VMs (k-redundant
    placement) delivers as long as {e any} replica host forwards the
    event — replicas dedupe, they never double-deliver. O((E + P) log T)
    for E published events and P placed pairs.

    Every outage is validated up front: raises [Invalid_argument] if an
    outage's [vm] is outside the fleet, its window is inverted
    ([from_time > until_time]), or its [severity] is outside (0, 1].

    [obs] (default {!Mcss_obs.Registry.noop}) records a [simulate] span
    with [setup]/[drain]/[settle] children, the event-loop counters
    ([sim.events_published], [sim.forwards], [sim.outage_drops],
    [sim.outage_windows], [sim.delivered_events], [sim.lost_events])
    and two per-VM histograms:
    [sim.vm_traffic_events] and [sim.vm_peak_utilisation] (peak bucket
    rate over capacity). Hot-loop tallies accumulate in locals and flush
    once, so the per-event overhead is negligible. *)

val iter_schedule :
  ?obs:Mcss_obs.Registry.t ->
  Mcss_workload.Workload.t ->
  arrivals ->
  duration:float ->
  (float -> Mcss_workload.Workload.topic -> unit) ->
  unit
(** The one publication schedule: call [f time topic] for every event of
    every topic in [[0, duration)], in nondecreasing [time]. Streamed
    through a heap of one entry per topic, so memory is O(topics), not
    O(events). [Deterministic] topic [t] starts at a fixed per-topic
    phase of its interval [duration / round(ev_t · duration)] and steps
    by [time + interval]; [Poisson seed] draws every topic's first gap
    in topic order, then each next gap right after the event it follows.
    {!run}, the broker fleet's latency pass and the live dataplane's
    pump all walk this one generator. [duration] must be positive.

    [obs] (default {!Mcss_obs.Registry.noop}) records [setup] (seeding
    the heap) and [drain] (the walk, [f] included) spans. *)

val hosting :
  Mcss_workload.Workload.t -> Mcss_core.Allocation.t -> (int * int) list array
(** [(hosting w a).(t)]: the VMs carrying pairs of topic [t], as
    [(vm id, pairs of t on that VM)] in ascending VM id — the routing
    {!run} meters and the broker fleet's latency pass queues over. *)

val total_vm_traffic : result -> vm:int -> int
(** Ingress plus egress of one VM, in events. *)

val peak_bucket_rate : result -> vm:int -> float
(** The VM's busiest bucket, converted to an event {e rate} (events per
    horizon): bucket load divided by bucket length. Comparing this to the
    capacity [BC] shows instantaneous (not just average) feasibility. *)

type check = {
  unsatisfied : (int * int * float) list;
      (** (subscriber, delivered, required · duration) for subscribers
          whose measured delivery missed the scaled threshold. *)
  traffic_mismatch : (int * int * float) list;
      (** (vm, measured, analytical · duration) where measured traffic
          deviates from the allocation's load by more than [tolerance]. *)
}

val check :
  Mcss_core.Problem.t -> Mcss_core.Allocation.t -> result -> tolerance:float -> check
(** Compare measurement against the analytical model. The allowed
    deviation around an expected count [x] is
    [tolerance · (x + 3·√x)] — proportional, plus a Poisson-noise term
    for small counts. With deterministic arrivals, integral rates and
    [duration = 1.0], a correct allocation yields empty lists at
    [tolerance = 0.]; Poisson arrivals need e.g. [0.2]–[0.5]. *)

val all_ok : check -> bool
