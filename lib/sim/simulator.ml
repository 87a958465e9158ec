module Workload = Mcss_workload.Workload
module Problem = Mcss_core.Problem
module Allocation = Mcss_core.Allocation
module Registry = Mcss_obs.Registry
module Span = Mcss_obs.Span
module Counter = Mcss_obs.Metric.Counter

type arrivals = Deterministic | Poisson of int

type outage = { vm : int; from_time : float; until_time : float; severity : float }

let outage ?(severity = 1.) ~vm ~from_time ~until_time () =
  { vm; from_time; until_time; severity }

type config = { duration : float; arrivals : arrivals; outages : outage list }

let default_config = { duration = 1.0; arrivals = Deterministic; outages = [] }

(* Per-VM bandwidth metering buckets across the window. *)
let buckets = 20

type result = {
  events_published : int;
  vm_ingress : int array;
  vm_egress : int array;
  delivered : int array;
  lost : int array;
  vm_bucket_load : float array array;
  totals : Mcss_report.Delivery.totals;
  config : config;
}

let peak_bucket_rate_raw ~duration loads =
  let bucket_len = duration /. float_of_int buckets in
  Array.fold_left Float.max 0. loads /. bucket_len

(* A deterministic per-topic phase in [0, 1): decorrelates the evenly
   spaced publication streams without any RNG state. *)
let phase_of_topic t =
  let h = Int64.to_int (Int64.shift_right_logical (Int64.mul (Int64.of_int (t + 1)) 0x9E3779B97F4A7C15L) 11) in
  float_of_int h *. 0x1p-53

(* All topic streams through one time-ordered queue keyed by topic. A
   deterministic stream steps by [time + interval]: the heap order of
   simultaneous events, and so which event a throttled VM drops, depends
   on that accumulated rounding, and the simulator's results are pinned
   to it. A Poisson stream draws its next gap on the fly, after the
   event it follows is consumed, which fixes the RNG draw order. *)
let iter_schedule ?(obs = Registry.noop) w arrivals ~duration f =
  let heap = Event_heap.create () in
  let rng =
    match arrivals with
    | Deterministic -> None
    | Poisson seed -> Some (Mcss_prng.Rng.create seed)
  in
  let interval = Array.make (Workload.num_topics w) 0. in
  (* Every topic publishes — whether or not an allocation forwards it —
     so delivered counts reflect the world, not just the fleet. *)
  Span.with_ obs ~name:"setup" (fun () ->
      for t = 0 to Workload.num_topics w - 1 do
        let ev = Workload.event_rate w t in
        match rng with
        | None ->
            let n = int_of_float (Float.round (ev *. duration)) in
            if n > 0 then begin
              interval.(t) <- duration /. float_of_int n;
              Event_heap.push heap (phase_of_topic t *. interval.(t)) t
            end
        | Some rng ->
            let first = Mcss_prng.Dist.exponential rng ~mean:(1. /. ev) in
            if first < duration then Event_heap.push heap first t
      done);
  let rec drain () =
    match Event_heap.pop heap with
    | None -> ()
    | Some (time, t) ->
        f time t;
        let next =
          match rng with
          | None -> time +. interval.(t)
          | Some rng ->
              time
              +. Mcss_prng.Dist.exponential rng ~mean:(1. /. Workload.event_rate w t)
        in
        if next < duration then Event_heap.push heap next t;
        drain ()
  in
  Span.with_ obs ~name:"drain" drain

let hosting w a =
  let hosting = Array.make (Workload.num_topics w) [] in
  let vms = Allocation.vms a in
  (* Pairs come topic-ascending per VM, so each topic is one run; walking
     the VMs from the last down leaves every list in ascending VM id. *)
  for i = Array.length vms - 1 downto 0 do
    let vm = vms.(i) in
    let b = Allocation.vm_id vm in
    let last = ref (-1) and run = ref 0 in
    let flush () = if !run > 0 then hosting.(!last) <- (b, !run) :: hosting.(!last) in
    Allocation.iter_vm_pairs vm (fun t _v ->
        if t <> !last then begin
          flush ();
          last := t;
          run := 0
        end;
        incr run);
    flush ()
  done;
  hosting

let run ?(obs = Registry.noop) (p : Problem.t) a config =
  Span.with_ obs ~name:"simulate" @@ fun () ->
  Time_window.validate_positive ~context:"Simulator.run" ~what:"duration"
    config.duration;
  let w = p.Problem.workload in
  let num_vms = Allocation.num_vms a in
  List.iter
    (fun o ->
      Time_window.validate_id ~context:"Simulator.run: outage vm"
        ~what:(Printf.sprintf "fleet has %d VMs" num_vms)
        ~id:o.vm ~limit:num_vms;
      Time_window.validate_window ~severity:o.severity
        ~context:(Printf.sprintf "Simulator.run: outage on vm %d" o.vm)
        ~from_time:o.from_time ~until_time:o.until_time ())
    config.outages;
  let hosting = hosting w a in
  let vm_ingress = Array.make num_vms 0 in
  let vm_egress = Array.make num_vms 0 in
  let vm_bucket_load = Array.make_matrix num_vms buckets 0. in
  (* Outage windows per VM. A full-severity window takes the VM out
     entirely; a throttled window (severity < 1) makes it drop exactly
     that fraction of the events it would have processed, by systematic
     thinning over a per-VM counter — deterministic, no RNG. *)
  let vm_outages = Array.make num_vms [] in
  List.iter
    (fun o ->
      vm_outages.(o.vm) <- (o.from_time, o.until_time, o.severity) :: vm_outages.(o.vm))
    config.outages;
  let throttle_seen = Array.make num_vms 0 in
  (* Hot-loop tallies live in plain refs and flush to the registry once
     after the drain, keeping the per-event cost identical whether or not
     observability is enabled. *)
  let n_forwards = ref 0 in
  let n_outage_drops = ref 0 in
  (* Whether the VM processes an event published at [time]. *)
  let forwards vm time =
    let sev =
      List.fold_left
        (fun acc (f, u, s) -> if time >= f && time < u then Float.max acc s else acc)
        0. vm_outages.(vm)
    in
    if sev <= 0. then true
    else if sev >= 1. then false
    else begin
      let n = throttle_seen.(vm) + 1 in
      throttle_seen.(vm) <- n;
      (* Drop the events where ⌊n·sev⌋ ticks up: exactly a [sev] fraction. *)
      not
        (int_of_float (float_of_int n *. sev)
        > int_of_float (float_of_int (n - 1) *. sev))
    end
  in
  (* Per topic: publication counts keyed by the exact set of hosting VMs
     that failed to forward them. [hosting.(t)] order is fixed for the
     run, so the key list is canonical. A pair replicated across VMs then
     loses an event only when {e every} replica host is in the failed
     set. *)
  let missed : (int, (int list, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
  let pubs = Array.make (Workload.num_topics w) 0 in
  let events_published = ref 0 in
  let bucket_of time =
    min (buckets - 1) (int_of_float (time /. config.duration *. float_of_int buckets))
  in
  let publish time t =
    pubs.(t) <- pubs.(t) + 1;
    incr events_published;
    let k = bucket_of time in
    let failed = ref [] in
    List.iter
      (fun (vm, count) ->
        if forwards vm time then begin
          incr n_forwards;
          vm_ingress.(vm) <- vm_ingress.(vm) + 1;
          vm_egress.(vm) <- vm_egress.(vm) + count;
          vm_bucket_load.(vm).(k) <- vm_bucket_load.(vm).(k) +. float_of_int (1 + count)
        end
        else begin
          incr n_outage_drops;
          failed := vm :: !failed
        end)
      hosting.(t);
    match !failed with
    | [] -> ()
    | f ->
        let tbl =
          match Hashtbl.find_opt missed t with
          | Some tbl -> tbl
          | None ->
              let tbl = Hashtbl.create 4 in
              Hashtbl.add missed t tbl;
              tbl
        in
        Hashtbl.replace tbl f (1 + Option.value ~default:0 (Hashtbl.find_opt tbl f))
  in
  iter_schedule ~obs w config.arrivals ~duration:config.duration publish;
  (* Each distinct placed pair delivers every publication of its topic
     once. Replicas of the same pair on several VMs dedupe (a real broker
     would dedupe by event id): an event is lost for the pair only when
     every hosting VM failed to forward it. *)
  let delivered = Array.make (Workload.num_subscribers w) 0 in
  let lost = Array.make (Workload.num_subscribers w) 0 in
  let pair_hosts : (int * int, int list) Hashtbl.t = Hashtbl.create 1024 in
  Array.iter
    (fun vm ->
      let b = Allocation.vm_id vm in
      Allocation.iter_vm_pairs vm (fun t v ->
          Hashtbl.replace pair_hosts (t, v)
            (b :: Option.value ~default:[] (Hashtbl.find_opt pair_hosts (t, v)))))
    (Allocation.vms a);
  Span.with_ obs ~name:"settle" (fun () ->
      Hashtbl.iter
        (fun (t, v) hosts ->
          let dropped =
            match Hashtbl.find_opt missed t with
            | None -> 0
            | Some tbl ->
                Hashtbl.fold
                  (fun fail c acc ->
                    if List.for_all (fun h -> List.mem h fail) hosts then acc + c
                    else acc)
                  tbl 0
          in
          delivered.(v) <- delivered.(v) + pubs.(t) - dropped;
          lost.(v) <- lost.(v) + dropped)
        pair_hosts);
  let totals =
    {
      Mcss_report.Delivery.published = !events_published;
      handoffs = Array.fold_left ( + ) 0 vm_ingress;
      delivered = Array.fold_left ( + ) 0 delivered;
      dropped = Array.fold_left ( + ) 0 lost;
    }
  in
  let r =
    {
      events_published = !events_published;
      vm_ingress;
      vm_egress;
      delivered;
      lost;
      vm_bucket_load;
      totals;
      config;
    }
  in
  if Registry.enabled obs then begin
    let c name help v = Counter.add (Registry.counter obs ~help name) v in
    c "sim.events_published" "Publications generated by the event loop" r.events_published;
    c "sim.forwards" "Per-VM forwarding decisions that went through" !n_forwards;
    c "sim.outage_drops" "Per-VM forwarding decisions lost to outages" !n_outage_drops;
    c "sim.outage_windows" "Outage windows injected into the run"
      (List.length config.outages);
    c "sim.delivered_events" "Events delivered across all subscribers"
      (Array.fold_left ( + ) 0 delivered);
    c "sim.lost_events" "Events lost across all subscribers"
      (Array.fold_left ( + ) 0 lost);
    let traffic =
      Registry.histogram obs
        ~buckets:(Mcss_obs.Metric.Histogram.exponential ~lo:1. ~factor:4. ~buckets:12)
        ~help:"Per-VM total traffic (ingress + egress events)" "sim.vm_traffic_events"
    in
    let util =
      Registry.histogram obs
        ~buckets:(Mcss_obs.Metric.Histogram.linear ~lo:0.1 ~hi:2.0 ~buckets:20)
        ~help:"Per-VM peak bucket rate as a fraction of capacity BC"
        "sim.vm_peak_utilisation"
    in
    for vm = 0 to num_vms - 1 do
      Mcss_obs.Metric.Histogram.observe traffic
        (float_of_int (vm_ingress.(vm) + vm_egress.(vm)));
      Mcss_obs.Metric.Histogram.observe util
        (peak_bucket_rate_raw ~duration:config.duration vm_bucket_load.(vm)
        /. p.Problem.capacity)
    done
  end;
  r

let total_vm_traffic r ~vm = r.vm_ingress.(vm) + r.vm_egress.(vm)

let peak_bucket_rate r ~vm =
  peak_bucket_rate_raw ~duration:r.config.duration r.vm_bucket_load.(vm)

type check = {
  unsatisfied : (int * int * float) list;
  traffic_mismatch : (int * int * float) list;
}

(* Allowed deviation around an expected count [x]: proportional plus a
   sampling-noise term that matters for small counts (Poisson stddev is
   √x). Zero tolerance demands exact agreement. *)
let slack ~tolerance x = (tolerance *. (x +. (3. *. sqrt (Float.max x 1.)))) +. 1e-9

let check (p : Problem.t) a r ~tolerance =
  let w = p.Problem.workload in
  let unsatisfied = ref [] in
  for v = Workload.num_subscribers w - 1 downto 0 do
    let required = Problem.tau_v p v *. r.config.duration in
    if float_of_int r.delivered.(v) +. slack ~tolerance required < required then
      unsatisfied := (v, r.delivered.(v), required) :: !unsatisfied
  done;
  let traffic_mismatch = ref [] in
  Array.iter
    (fun vm ->
      let b = Allocation.vm_id vm in
      let measured = total_vm_traffic r ~vm:b in
      let analytical = Allocation.load vm *. r.config.duration in
      if Float.abs (float_of_int measured -. analytical) > slack ~tolerance analytical
      then traffic_mismatch := (b, measured, analytical) :: !traffic_mismatch)
    (Allocation.vms a);
  { unsatisfied = !unsatisfied; traffic_mismatch = !traffic_mismatch }

let all_ok c = c.unsatisfied = [] && c.traffic_mismatch = []
