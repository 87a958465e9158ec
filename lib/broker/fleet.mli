(** The broker fleet's queueing-latency study over an MCSS allocation:
    one FIFO server per VM, fed the simulator's publication schedule
    ({!Mcss_sim.Simulator.iter_schedule}) over the simulator's hosting
    table ({!Mcss_sim.Simulator.hosting}). Where the simulator counts
    traffic, this pass also observes the queueing latency that the
    allocator's packing induces. *)

type latency_summary = {
  samples : int;  (** Total deliveries measured (reservoir may be smaller). *)
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;  (** All in the unit of the samples. *)
}

(** Bounded reservoir over latency samples (10 000 kept): exact
    quantiles for small runs, statistically sound for big ones. Eviction
    draws come from the caller's seeded {!Mcss_prng.Rng}, so summaries
    are bit-reproducible under a fixed seed. Shared by the in-process
    latency pass and the live dataplane's subscriber sinks. *)
module Reservoir : sig
  type t

  val create : rng:Mcss_prng.Rng.t -> t
  val add : t -> float -> unit

  val kept : t -> float array
  (** The retained samples, unsorted. *)

  val summary : t -> latency_summary option
  (** [None] when no sample was added. *)
end

type study = {
  latency : latency_summary option;
      (** Delivery latency in horizons; [None] when nothing was delivered. *)
  max_utilization : float;  (** Busiest VM's traffic over [BC]. *)
}

val latency :
  ?obs:Mcss_obs.Registry.t ->
  Mcss_core.Problem.t -> Mcss_core.Allocation.t -> latency_seed:int -> study
(** Walk one horizon of the deterministic schedule. Every handoff of an
    event to a hosting VM is one job on that VM's FIFO server
    ({!Queueing.fifo_depart}) with work [(copies + 1) / BC], and each of
    its [copies] deliveries adds one [depart - publish] sample, in
    schedule order and ascending VM id. [latency_seed] seeds the
    reservoir's eviction draws, so quantiles are bit-reproducible.

    [obs] (default {!Mcss_obs.Registry.noop}) records a [latency] span
    around the schedule's [setup]/[drain] spans, the
    [broker.max_utilization] gauge and two histograms:
    [broker.utilization] (per VM) and [broker.delivery_latency]
    (reservoir samples, horizon units). *)
