module Stats = Mcss_workload.Stats
module Problem = Mcss_core.Problem
module Allocation = Mcss_core.Allocation
module Simulator = Mcss_sim.Simulator
module Rng = Mcss_prng.Rng
module Registry = Mcss_obs.Registry
module Span = Mcss_obs.Span
module Gauge = Mcss_obs.Metric.Gauge
module Histogram = Mcss_obs.Metric.Histogram

type latency_summary = {
  samples : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

(* Bounded reservoir over delivery latencies so quantiles stay exact for
   small runs and statistically sound for big ones. The eviction draws
   come from the caller's seeded [Mcss_prng] source, so histograms are
   bit-reproducible under a fixed [--trace-seed]. *)
module Reservoir = struct
  type t = {
    mutable seen : int;
    store : float array;
    rng : Rng.t;
    mutable sum : float;
    mutable max_value : float;
  }

  let create ~rng =
    { seen = 0; store = Array.make 10_000 0.; rng; sum = 0.; max_value = 0. }

  let add r x =
    r.sum <- r.sum +. x;
    if x > r.max_value then r.max_value <- x;
    let cap = Array.length r.store in
    if r.seen < cap then r.store.(r.seen) <- x
    else begin
      let j = Rng.int r.rng (r.seen + 1) in
      if j < cap then r.store.(j) <- x
    end;
    r.seen <- r.seen + 1

  let kept r = Array.sub r.store 0 (min r.seen (Array.length r.store))

  let summary r =
    if r.seen = 0 then None
    else begin
      let kept = kept r in
      Some
        {
          samples = r.seen;
          mean = r.sum /. float_of_int r.seen;
          p50 = Stats.quantile kept 0.5;
          p95 = Stats.quantile kept 0.95;
          p99 = Stats.quantile kept 0.99;
          max = r.max_value;
        }
    end
end

type study = { latency : latency_summary option; max_utilization : float }

let latency ?(obs = Registry.noop) (p : Problem.t) a ~latency_seed =
  Span.with_ obs ~name:"latency" @@ fun () ->
  let w = p.Problem.workload in
  let hosting = Simulator.hosting w a in
  let busy_until = Array.make (Allocation.num_vms a) 0. in
  (* Events each VM moved: one incoming stream plus its copies. *)
  let traffic = Array.make (Allocation.num_vms a) 0 in
  let reservoir = Reservoir.create ~rng:(Rng.create latency_seed) in
  Simulator.iter_schedule ~obs w Simulator.Deterministic ~duration:1. (fun time t ->
      List.iter
        (fun (vm, copies) ->
          let depart =
            Queueing.fifo_depart ~busy_until:busy_until.(vm) ~arrival:time
              ~work:(float_of_int (copies + 1) /. p.Problem.capacity)
          in
          busy_until.(vm) <- depart;
          traffic.(vm) <- traffic.(vm) + copies + 1;
          for _ = 1 to copies do
            Reservoir.add reservoir (depart -. time)
          done)
        hosting.(t));
  let utilization =
    Array.map (fun n -> float_of_int n /. p.Problem.capacity) traffic
  in
  let study =
    {
      latency = Reservoir.summary reservoir;
      max_utilization = Array.fold_left Float.max 0. utilization;
    }
  in
  if Registry.enabled obs then begin
    Gauge.set
      (Registry.gauge obs ~help:"Busiest broker's bandwidth utilisation"
         "broker.max_utilization")
      study.max_utilization;
    let util =
      Registry.histogram obs
        ~buckets:(Histogram.linear ~lo:0.1 ~hi:2.0 ~buckets:20)
        ~help:"Per-broker bandwidth utilisation over the horizon"
        "broker.utilization"
    in
    Array.iter (Histogram.observe util) utilization;
    if study.latency <> None then begin
      let h =
        Registry.histogram obs
          ~buckets:(Histogram.exponential ~lo:1e-6 ~factor:4. ~buckets:16)
          ~help:"Delivery latency reservoir summary points (horizon units)"
          "broker.delivery_latency"
      in
      (* The reservoir keeps the exact samples; replay the kept window
         so the histogram's quantiles agree with the summary's. *)
      Array.iter (Histogram.observe h) (Reservoir.kept reservoir)
    end
  end;
  study
