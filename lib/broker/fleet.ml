module Workload = Mcss_workload.Workload
module Stats = Mcss_workload.Stats
module Problem = Mcss_core.Problem
module Allocation = Mcss_core.Allocation
module Rng = Mcss_prng.Rng
module Registry = Mcss_obs.Registry
module Span = Mcss_obs.Span
module Counter = Mcss_obs.Metric.Counter
module Gauge = Mcss_obs.Metric.Gauge

type t = {
  problem : Problem.t;
  brokers : Broker.t array;
  routing : int list array;  (* topic -> broker ids, ascending *)
  message_bytes : int;
}

type latency_summary = {
  samples : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

type report = {
  published : int;
  routed : int;
  deliveries : int;
  received : int array;
  latency : latency_summary option;
  max_utilization : float;
  broker_stats : (int * Broker.stats) list;
  totals : Mcss_report.Delivery.totals;
}

let build (p : Problem.t) a ~message_bytes =
  if message_bytes <= 0 then invalid_arg "Fleet.build: message_bytes must be positive";
  let w = p.Problem.workload in
  let bytes_per_horizon = p.Problem.capacity *. float_of_int message_bytes in
  let brokers =
    Array.map
      (fun vm ->
        let broker = Broker.create ~id:(Allocation.vm_id vm) ~bytes_per_horizon in
        Allocation.iter_vm_pairs vm (fun topic subscriber ->
            Broker.subscribe broker ~topic ~subscriber);
        broker)
      (Allocation.vms a)
  in
  let routing = Array.make (Workload.num_topics w) [] in
  Array.iter
    (fun broker ->
      for topic = 0 to Workload.num_topics w - 1 do
        if Broker.hosts broker topic then
          routing.(topic) <- Broker.id broker :: routing.(topic)
      done)
    brokers;
  Array.iteri (fun topic ids -> routing.(topic) <- List.sort compare ids) routing;
  { problem = p; brokers; routing; message_bytes }

let num_brokers fleet = Array.length fleet.brokers

let brokers_for_topic fleet topic = fleet.routing.(topic)

let schedule_events w ~duration =
  let times : float Mcss_core.Vec.t = Mcss_core.Vec.create () in
  let topics : int Mcss_core.Vec.t = Mcss_core.Vec.create () in
  for t = 0 to Workload.num_topics w - 1 do
    let ev = Workload.event_rate w t in
    let n = int_of_float (Float.round (ev *. duration)) in
    if n > 0 then begin
      let interval = duration /. float_of_int n in
      let phase = Mcss_sim.Simulator.phase_of_topic t *. interval in
      for k = 0 to n - 1 do
        Mcss_core.Vec.push times (phase +. (float_of_int k *. interval));
        Mcss_core.Vec.push topics t
      done
    end
  done;
  let n = Mcss_core.Vec.length times in
  let order = Array.init n (fun i -> i) in
  let times = Mcss_core.Vec.to_array times in
  let topics = Mcss_core.Vec.to_array topics in
  Array.sort (fun a b -> compare (times.(a), topics.(a)) (times.(b), topics.(b))) order;
  Array.map (fun i -> (times.(i), topics.(i))) order

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

let run ?(obs = Registry.noop) fleet ~latency_seed =
  Span.with_ obs ~name:"fleet" @@ fun () ->
  let w = fleet.problem.Problem.workload in
  let events =
    Span.with_ obs ~name:"schedule" (fun () -> schedule_events w ~duration:1.)
  in
  let received = Array.make (Workload.num_subscribers w) 0 in
  let reservoir = Reservoir.create ~rng:(Rng.create latency_seed) in
  let routed = ref 0 in
  let deliveries = ref 0 in
  Span.with_ obs ~name:"deliver" (fun () ->
      Array.iteri
        (fun i (time, topic) ->
          let message =
            Message.make ~id:i ~topic ~publish_time:time ~size_bytes:fleet.message_bytes
          in
          List.iter
            (fun broker_id ->
              incr routed;
              let delivered = Broker.ingest fleet.brokers.(broker_id) message in
              List.iter
                (fun d ->
                  incr deliveries;
                  received.(d.Broker.subscriber) <- received.(d.Broker.subscriber) + 1;
                  Reservoir.add reservoir (d.Broker.depart_time -. time))
                delivered)
            fleet.routing.(topic))
        events);
  let max_utilization =
    Array.fold_left
      (fun acc broker -> Float.max acc (Broker.utilization broker ~horizon:1.))
      0. fleet.brokers
  in
  let report =
    {
      published = Array.length events;
      routed = !routed;
      deliveries = !deliveries;
      received;
      latency = Reservoir.summary reservoir;
      max_utilization;
      broker_stats = Array.to_list (Array.map (fun b -> (Broker.id b, Broker.stats b)) fleet.brokers);
      totals =
        {
          Mcss_report.Delivery.published = Array.length events;
          handoffs = !routed;
          delivered = !deliveries;
          dropped = 0;
        };
    }
  in
  if Registry.enabled obs then begin
    let c name help v = Counter.add (Registry.counter obs ~help name) v in
    c "broker.published" "Messages generated by the publishers" report.published;
    c "broker.routed" "Message-to-broker handoffs" report.routed;
    c "broker.deliveries" "Message copies handed to subscribers" report.deliveries;
    Gauge.set
      (Registry.gauge obs ~help:"Busiest broker's bandwidth utilisation"
         "broker.max_utilization")
      report.max_utilization;
    let util =
      Registry.histogram obs
        ~buckets:(Mcss_obs.Metric.Histogram.linear ~lo:0.1 ~hi:2.0 ~buckets:20)
        ~help:"Per-broker bandwidth utilisation over the horizon"
        "broker.utilization"
    in
    Array.iter
      (fun b ->
        Mcss_obs.Metric.Histogram.observe util
          (Broker.utilization b ~horizon:1.))
      fleet.brokers;
    (match report.latency with
    | None -> ()
    | Some _ ->
        let h =
          Registry.histogram obs
            ~buckets:(Mcss_obs.Metric.Histogram.exponential ~lo:1e-6 ~factor:4. ~buckets:16)
            ~help:"Delivery latency reservoir summary points (horizon units)"
            "broker.delivery_latency"
        in
        (* The reservoir keeps the exact samples; replay the kept window
           so the histogram's quantiles agree with the report's. *)
        Array.iter
          (fun x -> Mcss_obs.Metric.Histogram.observe h x)
          (Reservoir.kept reservoir))
  end;
  report
