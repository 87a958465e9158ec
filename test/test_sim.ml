(* Tests for the event heap and the discrete-event replay. *)

module Problem = Mcss_core.Problem
module Selection = Mcss_core.Selection
module Allocation = Mcss_core.Allocation
module Solver = Mcss_core.Solver
module Event_heap = Mcss_sim.Event_heap
module Simulator = Mcss_sim.Simulator

let test_heap_basic () =
  let h = Event_heap.create () in
  Helpers.check_bool "empty" true (Event_heap.is_empty h);
  Event_heap.push h 3. "c";
  Event_heap.push h 1. "a";
  Event_heap.push h 2. "b";
  Helpers.check_int "size" 3 (Event_heap.size h);
  Alcotest.(check (option (pair (float 0.) string))) "peek" (Some (1., "a")) (Event_heap.peek h);
  Alcotest.(check (option (pair (float 0.) string))) "pop 1" (Some (1., "a")) (Event_heap.pop h);
  Alcotest.(check (option (pair (float 0.) string))) "pop 2" (Some (2., "b")) (Event_heap.pop h);
  Alcotest.(check (option (pair (float 0.) string))) "pop 3" (Some (3., "c")) (Event_heap.pop h);
  Helpers.check_bool "drained" true (Event_heap.pop h = None)

let prop_heap_pops_sorted =
  Helpers.qtest "heap pops keys in nondecreasing order" QCheck.(list (float_bound_exclusive 1000.))
    (fun keys ->
      let h = Event_heap.create () in
      List.iteri (fun i k -> Event_heap.push h k i) keys;
      let rec drain prev =
        match Event_heap.pop h with
        | None -> true
        | Some (k, _) -> k >= prev && drain k
      in
      drain neg_infinity)

let solved_fig1 () =
  let p = Helpers.fig1_problem ~capacity:50. () in
  let r = Solver.solve p in
  (p, r)

let test_deterministic_matches_analytical () =
  let p, r = solved_fig1 () in
  let res = Simulator.run p r.Solver.allocation Simulator.default_config in
  (* 30 events per horizon get published (20 + 10). *)
  Helpers.check_int "published" 30 res.Simulator.events_published;
  let c = Simulator.check p r.Solver.allocation res ~tolerance:0. in
  Helpers.check_bool "exact agreement" true (Simulator.all_ok c);
  (* Total measured traffic equals the analytical objective exactly. *)
  let measured =
    Array.to_list (Allocation.vms r.Solver.allocation)
    |> List.map (fun vm -> Simulator.total_vm_traffic res ~vm:(Allocation.vm_id vm))
    |> List.fold_left ( + ) 0
  in
  Helpers.check_int "traffic = bw" (int_of_float r.Solver.bandwidth) measured

let test_delivered_counts () =
  let p, r = solved_fig1 () in
  let res = Simulator.run p r.Solver.allocation Simulator.default_config in
  (* v0 and v1 receive both topics: 30 events; v2 only t1: 10. *)
  Alcotest.(check (array int)) "delivered" [| 30; 30; 10 |] res.Simulator.delivered

let test_poisson_within_tolerance () =
  let p, r = solved_fig1 () in
  let config = { Simulator.default_config with Simulator.arrivals = Simulator.Poisson 7 } in
  let res = Simulator.run p r.Solver.allocation config in
  Helpers.check_bool "some events" true (res.Simulator.events_published > 0);
  let c = Simulator.check p r.Solver.allocation res ~tolerance:0.5 in
  Helpers.check_bool "within tolerance" true (Simulator.all_ok c)

let test_poisson_reproducible () =
  let p, r = solved_fig1 () in
  let config = { Simulator.default_config with Simulator.arrivals = Simulator.Poisson 7 } in
  let a = Simulator.run p r.Solver.allocation config in
  let b = Simulator.run p r.Solver.allocation config in
  Helpers.check_int "same event count" a.Simulator.events_published b.Simulator.events_published;
  Alcotest.(check (array int)) "same deliveries" a.Simulator.delivered b.Simulator.delivered

let test_missing_pairs_detected () =
  let p, _r = solved_fig1 () in
  (* Replay against an empty fleet: nothing is delivered. *)
  let empty = Allocation.create ~capacity:50. in
  let res = Simulator.run p empty Simulator.default_config in
  Helpers.check_int "nothing delivered to v0" 0 res.Simulator.delivered.(0);
  let c = Simulator.check p empty res ~tolerance:0. in
  Helpers.check_bool "every subscriber flagged" true
    (List.length c.Simulator.unsatisfied = 3);
  (* A half-populated fleet (only topic 1 hosted) satisfies only v2. *)
  let half = Allocation.create ~capacity:50. in
  let b = Allocation.deploy half in
  Allocation.place half b ~topic:1 ~ev:10. ~subscribers:[| 0; 1; 2 |] ~from:0 ~count:3;
  let res2 = Simulator.run p half Simulator.default_config in
  let c2 = Simulator.check p half res2 ~tolerance:0. in
  Helpers.check_int "v0 and v1 under-delivered" 2 (List.length c2.Simulator.unsatisfied)

let test_scaled_duration () =
  let p, r = solved_fig1 () in
  let config = { Simulator.default_config with Simulator.duration = 0.5 } in
  let res = Simulator.run p r.Solver.allocation config in
  Helpers.check_int "half the events" 15 res.Simulator.events_published

let test_bucket_metering () =
  let p, r = solved_fig1 () in
  let res = Simulator.run p r.Solver.allocation Simulator.default_config in
  Array.iter
    (fun vm ->
      let b = Allocation.vm_id vm in
      let total_from_buckets =
        Array.fold_left ( +. ) 0. res.Simulator.vm_bucket_load.(b)
      in
      Helpers.check_float "buckets sum to traffic"
        (float_of_int (Simulator.total_vm_traffic res ~vm:b))
        total_from_buckets;
      Helpers.check_bool "peak >= average" true
        (Simulator.peak_bucket_rate res ~vm:b
        >= float_of_int (Simulator.total_vm_traffic res ~vm:b) -. 1e-9))
    (Allocation.vms r.Solver.allocation)

let test_config_validation () =
  let p, r = solved_fig1 () in
  Alcotest.check_raises "duration" (Invalid_argument "Simulator.run: duration must be positive")
    (fun () ->
      ignore
        (Simulator.run p r.Solver.allocation
           { Simulator.default_config with Simulator.duration = 0. }))

let prop_deterministic_sim_validates_solver =
  Helpers.qtest ~count:60 "deterministic replay agrees exactly with the optimiser"
    Helpers.problem_arbitrary (fun p ->
      let r = Solver.solve p in
      let res =
        Simulator.run p r.Solver.allocation Simulator.default_config
      in
      Simulator.all_ok (Simulator.check p r.Solver.allocation res ~tolerance:0.))

(* The rewritten simulator against its verbatim predecessor
   ([Simulator_oracle]): random problems, both arrival kinds, windows
   other than one horizon, and random full and throttled outages — every
   result field must agree bit for bit. *)
let replay_case_gen =
  QCheck.Gen.(
    let* p = Helpers.problem_gen in
    let* arrivals =
      oneof [ return Simulator.Deterministic; map (fun s -> Simulator.Poisson s) (int_bound 1_000_000) ]
    in
    let* duration = oneofl [ 0.25; 0.5; 0.7; 1.5; 2.; 3.3 ] in
    let* outages =
      list_size (int_range 0 4)
        (let* vm = int_bound 1_000 in
         let* from_time = float_bound_inclusive duration in
         let* length = oneof [ float_bound_inclusive duration; return infinity ] in
         let* severity = oneofl [ 1.; 1.; 0.25; 0.5; 0.9 ] in
         return (vm, from_time, from_time +. length, severity))
    in
    return (p, arrivals, duration, outages))

let prop_matches_oracle =
  Helpers.qtest ~count:1000 "simulator matches its verbatim predecessor"
    (QCheck.make replay_case_gen) (fun (p, arrivals, duration, outages) ->
      let a = (Solver.solve p).Solver.allocation in
      let num_vms = Allocation.num_vms a in
      let outages =
        if num_vms = 0 then []
        else
          List.map
            (fun (vm, from_time, until_time, severity) ->
              Simulator.outage ~severity ~vm:(vm mod num_vms) ~from_time ~until_time ())
            outages
      in
      let config = { Simulator.duration; arrivals; outages } in
      Simulator.run p a config = Simulator_oracle.run p a config)

(* The live pump's schedule is the simulator's deterministic walk: per
   topic exactly [round(ev · duration)] events, and the same counts the
   simulator delivers through the allocation. *)
let prop_pump_schedule_counts =
  Helpers.qtest ~count:200 "pump schedule counts match the simulator's"
    (QCheck.make
       QCheck.Gen.(pair Helpers.problem_gen (oneofl [ 0.25; 0.5; 1.; 1.5; 2.; 3.3 ])))
    (fun (p, duration) ->
      let w = p.Problem.workload in
      let schedule = Mcss_dataplane.Pump.schedule w ~duration in
      let counts = Array.make (Mcss_workload.Workload.num_topics w) 0 in
      Array.iter (fun (_, t) -> counts.(t) <- counts.(t) + 1) schedule;
      let a = (Solver.solve p).Solver.allocation in
      let res = Simulator.run p a { Simulator.default_config with Simulator.duration } in
      let predicted = Array.make (Mcss_workload.Workload.num_subscribers w) 0 in
      let pairs = Hashtbl.create 64 in
      Array.iter
        (fun vm -> Allocation.iter_vm_pairs vm (fun t v -> Hashtbl.replace pairs (t, v) ()))
        (Allocation.vms a);
      Hashtbl.iter (fun (t, v) () -> predicted.(v) <- predicted.(v) + counts.(t)) pairs;
      let sorted = ref true in
      Array.iteri (fun i (time, _) -> if i > 0 && time < fst schedule.(i - 1) then sorted := false) schedule;
      !sorted
      && Array.for_all2
           (fun c ev -> c = int_of_float (Float.round (ev *. duration)))
           counts (Mcss_workload.Workload.event_rates w)
      && Array.length schedule = res.Simulator.events_published
      && predicted = res.Simulator.delivered)

let suite =
  [
    Alcotest.test_case "heap basic" `Quick test_heap_basic;
    prop_heap_pops_sorted;
    Alcotest.test_case "deterministic matches analytical" `Quick
      test_deterministic_matches_analytical;
    Alcotest.test_case "delivered counts" `Quick test_delivered_counts;
    Alcotest.test_case "poisson within tolerance" `Quick test_poisson_within_tolerance;
    Alcotest.test_case "poisson reproducible" `Quick test_poisson_reproducible;
    Alcotest.test_case "missing pairs detected" `Quick test_missing_pairs_detected;
    Alcotest.test_case "scaled duration" `Quick test_scaled_duration;
    Alcotest.test_case "bucket metering" `Quick test_bucket_metering;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    prop_deterministic_sim_validates_solver;
    prop_matches_oracle;
    prop_pump_schedule_counts;
  ]
