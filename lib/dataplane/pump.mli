(** One measured run against a live fleet: attach sinks, generate the
    deterministic schedule, pump it, wait for the fan-out to quiesce,
    and report the window — optionally reconciled against the
    simulator's predictions.

    Quiescing uses the backpressure contract: once every batch is
    acked, all copies are in broker sink buffers, so the pump polls
    until the sinks have received as many copies as the live brokers'
    ledger windows say were enqueued (killed brokers are out of the
    count — their buffered copies are the outage's drop window). *)

type config = {
  duration : float;  (** Horizons of load; positive. *)
  pace : float;  (** Wall seconds per horizon; [0.] = full speed. *)
  batch : int;
  latency_seed : int;
  quiesce_timeout : float;
      (** Wall seconds (default 10) to wait for the fan-out to drain,
          counted from when publishing returns, so a paced run may
          publish for longer than this. *)
  tolerance : float option;  (** [Some tol] runs reconciliation. *)
}

val default_config : config
(** 1 horizon, unpaced, batch 64, seed 1, no reconciliation. *)

type report = {
  publisher : Publisher.stats;
  copies_received : int;
  duplicates : int;
  unique : int array;
  latency : Mcss_broker.Fleet.latency_summary option;
  ledgers : Ledger.t list;  (** Per-broker window ({!Ledger.diff}). *)
  totals : Mcss_report.Delivery.totals;  (** Summed ledger window. *)
  reconcile : Reconcile.t option;
  quiesced : bool;  (** [false]: the quiesce timeout expired first. *)
  wall_s : float;
}

val schedule : Mcss_workload.Workload.t -> duration:float -> (float * int) array
(** The run's publication schedule, (time, topic) in time order: the
    [Deterministic] walk of {!Mcss_sim.Simulator.iter_schedule},
    collected — so topic [t] publishes [round(ev_t · duration)] events
    and the live counts reconcile exactly with {!Mcss_sim.Simulator.run}'s
    predictions. *)

val run :
  ?config:config ->
  ?sinks:Subscriber.t ->
  Cluster.t ->
  Mcss_core.Problem.t ->
  Mcss_core.Allocation.t ->
  report
(** [sinks] defaults to a fresh set attached to every live broker and
    closed before returning; pass a shared one to keep sinks (and their
    dedup state) alive across phases — the caller then owns its
    lifecycle, and [unique]/[duplicates]/[latency] in the report are
    cumulative over the sink's life, while [ledgers]/[totals] are this
    run's window. The allocation must be the plan the fleet currently
    serves; it feeds the schedule's reconciliation prediction. *)
