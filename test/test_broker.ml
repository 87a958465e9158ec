(* Tests for the broker queue model and the fleet's latency pass. *)

module Workload = Mcss_workload.Workload
module Problem = Mcss_core.Problem
module Allocation = Mcss_core.Allocation
module Solver = Mcss_core.Solver
module Broker = Mcss_broker.Broker
module Fleet = Mcss_broker.Fleet
module Simulator = Mcss_sim.Simulator

let test_broker_subscription_table () =
  let b = Broker.create ~id:3 ~capacity:10. in
  Broker.subscribe b ~topic:1 ~subscriber:10;
  Broker.subscribe b ~topic:1 ~subscriber:11;
  Broker.subscribe b ~topic:2 ~subscriber:10;
  Helpers.check_int "pairs" 3 (Broker.num_pairs b);
  Helpers.check_bool "hosts (1, 11)" true (Broker.subscribed b ~topic:1 ~subscriber:11);
  Helpers.check_bool "not topic 5" false (Broker.subscribed b ~topic:5 ~subscriber:10);
  Alcotest.check_raises "duplicate pair"
    (Invalid_argument "Broker.subscribe: pair (1, 10) already on broker 3") (fun () ->
      Broker.subscribe b ~topic:1 ~subscriber:10)

let test_broker_delivery_and_accounting () =
  let b = Broker.create ~id:0 ~capacity:10. in
  Broker.subscribe b ~topic:0 ~subscriber:5;
  Broker.subscribe b ~topic:0 ~subscriber:6;
  (* One incoming stream plus two copies at 10 events/horizon. *)
  Alcotest.(check (option (float 1e-9))) "departure" (Some 0.3) (Broker.ingest b ~topic:0 ~time:0.);
  let copies = ref [] in
  Broker.iter_subscribers b 0 (fun v -> copies := v :: !copies);
  Alcotest.(check (list int)) "one copy per local subscriber" [ 5; 6 ] (List.rev !copies);
  Helpers.check_float "max delay" 0.3 (Broker.max_queue_delay b)

let test_broker_queueing_delay () =
  let b = Broker.create ~id:0 ~capacity:10. in
  Broker.subscribe b ~topic:0 ~subscriber:1;
  (* Each event: 2 units of work = 0.2 horizons. Back-to-back arrivals
     at t=0 and t=0.05: the second queues behind the first. *)
  let d1 = Broker.ingest b ~topic:0 ~time:0. in
  let d2 = Broker.ingest b ~topic:0 ~time:0.05 in
  Alcotest.(check (option (float 1e-9))) "first departs after service" (Some 0.2) d1;
  Alcotest.(check (option (float 1e-9))) "second waits in queue" (Some 0.4) d2;
  Helpers.check_float "max delay recorded" 0.35 (Broker.max_queue_delay b)

let test_broker_ignores_unsubscribed_topic () =
  let b = Broker.create ~id:0 ~capacity:10. in
  Broker.subscribe b ~topic:0 ~subscriber:1;
  Helpers.check_bool "no deliveries" true (Broker.ingest b ~topic:7 ~time:0. = None);
  Helpers.check_float "no work" 0. (Broker.max_queue_delay b);
  Alcotest.(check (option (float 1e-9))) "server still idle" (Some 0.2)
    (Broker.ingest b ~topic:0 ~time:0.)

let test_broker_rejects_time_travel () =
  let b = Broker.create ~id:0 ~capacity:10. in
  ignore (Broker.ingest b ~topic:0 ~time:0.5);
  Alcotest.check_raises "out of order"
    (Invalid_argument "Broker.ingest: messages must arrive in time order") (fun () ->
      ignore (Broker.ingest b ~topic:0 ~time:0.4))

let solved_fig1 () =
  let p = Helpers.fig1_problem ~capacity:50. () in
  let r = Solver.solve p in
  (p, r)

let test_fleet_matches_simulator_counts () =
  let p, r = solved_fig1 () in
  let a = r.Solver.allocation in
  let sim = Simulator.run p a Simulator.default_config in
  Helpers.check_int "published" 30 sim.Simulator.events_published;
  Alcotest.(check (array int)) "received" [| 30; 30; 10 |] sim.Simulator.delivered;
  (* Handoffs plus copies = analytical bandwidth (the objective). *)
  let traffic = ref 0 and busiest = ref 0 in
  Array.iter
    (fun vm ->
      let n = Simulator.total_vm_traffic sim ~vm:(Allocation.vm_id vm) in
      traffic := !traffic + n;
      busiest := max !busiest n)
    (Allocation.vms a);
  Helpers.check_int "traffic = objective" 120 !traffic;
  (* The latency pass walks the same schedule: one sample per copy, and
     the busiest VM's utilisation is its simulated traffic over BC. *)
  let study = Fleet.latency p a ~latency_seed:1 in
  (match study.Fleet.latency with
  | Some l -> Helpers.check_int "one sample per delivered copy" 70 l.Fleet.samples
  | None -> Alcotest.fail "expected a latency summary");
  Helpers.check_float "max utilization" (float_of_int !busiest /. 50.)
    study.Fleet.max_utilization

let test_fleet_routing_table () =
  let p, r = solved_fig1 () in
  let hosting = Simulator.hosting p.Problem.workload r.Solver.allocation in
  Helpers.check_int "three VMs" 3 (Allocation.num_vms r.Solver.allocation);
  (* Every topic must be routable, and in ascending VM id. *)
  Array.iter
    (fun vms ->
      let ids = List.map fst vms in
      Helpers.check_bool "routable" true (ids <> []);
      Helpers.check_bool "ascending" true (List.sort_uniq compare ids = ids))
    hosting;
  (* Topic 0 is split (two pairs, one per VM); topic 1 lives on one VM
     with all three of its pairs. *)
  Helpers.check_int "t0 on two VMs" 2 (List.length hosting.(0));
  Alcotest.(check (list int)) "t0 one pair each" [ 1; 1 ] (List.map snd hosting.(0));
  Helpers.check_int "t1 on one VM" 1 (List.length hosting.(1))

let test_fleet_latency_reflects_utilization () =
  let p, r = solved_fig1 () in
  (* A healthy-capacity fleet against a barely-provisioned one: same
     allocation, same traffic, but a 10x slower wire must show higher
     latency. The capacity is in the problem, so rerun with a scaled
     problem but identical placements. *)
  let study_at ~capacity =
    let p' =
      Problem.create ~workload:p.Problem.workload ~tau:p.Problem.tau ~capacity
        Problem.unit_costs
    in
    Fleet.latency p' r.Solver.allocation ~latency_seed:1
  in
  let fast = study_at ~capacity:500. in
  let slow = study_at ~capacity:50. in
  match (fast.Fleet.latency, slow.Fleet.latency) with
  | Some f, Some s ->
      Helpers.check_bool "slower wire, higher p99" true (s.Fleet.p99 > f.Fleet.p99);
      Helpers.check_bool "utilization higher too" true
        (slow.Fleet.max_utilization > fast.Fleet.max_utilization)
  | _ -> Alcotest.fail "expected latency summaries"

let test_md1_formulas () =
  let module Q = Mcss_broker.Queueing in
  Helpers.check_float "no load waits nothing" 0. (Q.md1_mean_wait ~utilization:0. ~service_time:1.);
  (* rho = 0.5, s = 2: wait = 0.5*2 / (2*0.5) = 1; sojourn = 3. *)
  Helpers.check_float "wait" 1. (Q.md1_mean_wait ~utilization:0.5 ~service_time:2.);
  Helpers.check_float "sojourn" 3. (Q.md1_mean_sojourn ~utilization:0.5 ~service_time:2.);
  Helpers.check_float "mm1 envelope" 4. (Q.mm1_mean_sojourn ~utilization:0.5 ~service_time:2.);
  Alcotest.check_raises "rho >= 1" (Invalid_argument "Queueing: utilization must be in [0, 1)")
    (fun () -> ignore (Q.md1_mean_wait ~utilization:1. ~service_time:1.))

let test_broker_latency_matches_md1 () =
  (* One topic, one subscriber, Poisson arrivals: the broker is exactly
     an M/D/1 queue. ev = 4000 events/horizon; each message costs
     2 event-units of wire, BC = 16000 -> rho = 0.5,
     s = 2/16000 = 1.25e-4 horizons; theory says mean sojourn
     = s * (1 + rho/(2(1-rho))) = 1.875e-4. The seeded exponential
     schedule is built here and fed to the broker directly; the mean
     is taken over every delivery. *)
  let module Q = Mcss_broker.Queueing in
  let broker = Broker.create ~id:0 ~capacity:16000. in
  Broker.subscribe broker ~topic:0 ~subscriber:0;
  let rng = Mcss_prng.Rng.create 123 in
  let gap () = Mcss_prng.Dist.exponential rng ~mean:(1. /. 4000.) in
  let sum = ref 0. and n = ref 0 in
  let time = ref (gap ()) in
  while !time < 1. do
    Option.iter
      (fun depart ->
        sum := !sum +. (depart -. !time);
        incr n)
      (Broker.ingest broker ~topic:0 ~time:!time);
    time := !time +. gap ()
  done;
  Helpers.check_bool "deliveries measured" true (!n > 0);
  let mean = !sum /. float_of_int !n in
  (* Seeded: the queue model's arithmetic is pinned bit for bit. *)
  Alcotest.(check (float 0.)) "seeded mean" 1.8526945924853913e-4 mean;
  let service_time = 2. /. 16000. in
  let predicted = Q.md1_mean_sojourn ~utilization:0.5 ~service_time in
  let err = Float.abs (mean -. predicted) /. predicted in
  if err > 0.15 then
    Alcotest.failf "measured mean %.3e vs M/D/1 %.3e (%.0f%% off)" mean predicted
      (100. *. err);
  (* And safely below the M/M/1 envelope's tail behaviour. *)
  Helpers.check_bool "below the M/M/1 envelope" true
    (mean < Q.mm1_mean_sojourn ~utilization:0.5 ~service_time *. 1.15)

let suite =
  [
    Alcotest.test_case "broker subscription table" `Quick test_broker_subscription_table;
    Alcotest.test_case "broker delivery and accounting" `Quick
      test_broker_delivery_and_accounting;
    Alcotest.test_case "broker queueing delay" `Quick test_broker_queueing_delay;
    Alcotest.test_case "broker ignores unsubscribed" `Quick
      test_broker_ignores_unsubscribed_topic;
    Alcotest.test_case "broker rejects time travel" `Quick test_broker_rejects_time_travel;
    Alcotest.test_case "fleet matches simulator counts" `Quick
      test_fleet_matches_simulator_counts;
    Alcotest.test_case "fleet routing table" `Quick test_fleet_routing_table;
    Alcotest.test_case "fleet latency vs utilization" `Quick
      test_fleet_latency_reflects_utilization;
    Alcotest.test_case "md1 formulas" `Quick test_md1_formulas;
    Alcotest.test_case "broker latency matches M/D/1" `Quick test_broker_latency_matches_md1;
  ]
