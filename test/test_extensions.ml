(* Tests for the extension modules: the global cross-subscriber Stage-1
   selector, the textbook packing baselines, allocation mutation support,
   and simulator failure injection. *)

module Workload = Mcss_workload.Workload
module Problem = Mcss_core.Problem
module Selection = Mcss_core.Selection
module Allocation = Mcss_core.Allocation
module Verifier = Mcss_core.Verifier
module Solver = Mcss_core.Solver
module Global_greedy = Mcss_core.Global_greedy
module Baselines = Mcss_core.Baselines
module Vec = Mcss_core.Vec
module Simulator = Mcss_sim.Simulator

(* ----- Global_greedy ----- *)

let test_global_greedy_shares_topics () =
  (* Three subscribers share topic 0 (rate 30); each also has a private
     topic of rate 30. tau = 30. Per-subscriber GSP is indifferent (all
     single picks cover), but the global view prefers the shared topic,
     selecting it for everyone. *)
  let w =
    Helpers.workload
      ~rates:[ 30.; 30.; 30.; 30. ]
      ~interests:[ [ 0; 1 ]; [ 0; 2 ]; [ 0; 3 ] ]
  in
  let p = Problem.create ~workload:w ~tau:30. ~capacity:1000. Problem.unit_costs in
  let s = Global_greedy.select p in
  Alcotest.(check (list (list int)))
    "everyone on the shared topic"
    [ [ 0 ]; [ 0 ]; [ 0 ] ]
    (Array.to_list (Array.map Array.to_list (Helpers.selection_rows s)));
  Helpers.check_bool "satisfies" true (Selection.satisfies p s)

let prop_global_greedy_satisfies =
  Helpers.qtest ~count:120 "global greedy always satisfies" Helpers.problem_arbitrary
    (fun p ->
      let s = Global_greedy.select p in
      Selection.satisfies p s)

let prop_global_greedy_packs_validly =
  Helpers.qtest ~count:80 "global greedy + CBP passes the verifier"
    Helpers.problem_arbitrary (fun p ->
      let config =
        { Solver.stage1 = Solver.Global_greedy; stage2 = Solver.Cbp Mcss_core.Cbp.with_cost_decision }
      in
      let r = Solver.solve ~config p in
      Verifier.is_valid (Verifier.verify p r.Solver.selection r.Solver.allocation))

let prop_global_greedy_chooses_interests =
  Helpers.qtest "global greedy only picks real interests, without duplicates"
    Helpers.problem_arbitrary (fun p ->
      let w = p.Problem.workload in
      let s = Global_greedy.select p in
      let ok = ref true in
      Array.iteri
        (fun v chosen ->
          let tv = Workload.interests w v in
          Array.iter (fun t -> if not (Array.mem t tv) then ok := false) chosen;
          for i = 1 to Array.length chosen - 1 do
            if chosen.(i) = chosen.(i - 1) then ok := false
          done)
        (Helpers.selection_rows s);
      !ok)

(* ----- Baselines ----- *)

let prop_baseline_packers_valid =
  Helpers.qtest ~count:100 "next-fit and BFD produce verifier-clean allocations"
    Helpers.problem_arbitrary (fun p ->
      let s = Selection.gsp p in
      let nf = Baselines.next_fit p s in
      let bfd = Baselines.best_fit_decreasing p s in
      Verifier.is_valid (Verifier.verify p s nf)
      && Verifier.is_valid (Verifier.verify p s bfd))

let test_next_fit_never_looks_back () =
  (* Pairs of the same topic interleave; next-fit only ever considers the
     latest VM, so it uses at least as many VMs as first-fit. *)
  let rng = Mcss_prng.Rng.create 17 in
  let p =
    Helpers.random_problem rng ~num_topics:30 ~num_subscribers:60 ~max_rate:20
      ~max_interests:6 ~tau:40. ~capacity:120.
  in
  let s = Selection.gsp p in
  let nf = Baselines.next_fit p s in
  let ff = Mcss_core.Ffbp.run p s in
  Helpers.check_bool "NF uses >= FF VMs" true
    (Allocation.num_vms nf >= Allocation.num_vms ff)

let test_bfd_prefers_tightest () =
  (* One big topic fills VM0 partially; a small topic then has the choice
     between VM0 (tight) and nothing else — BFD must reuse VM0. *)
  let w = Helpers.workload ~rates:[ 40.; 10. ] ~interests:[ [ 0 ]; [ 1 ] ] in
  let p = Problem.create ~workload:w ~tau:40. ~capacity:120. Problem.unit_costs in
  let s = Selection.gsp p in
  let a = Baselines.best_fit_decreasing p s in
  Helpers.check_int "one VM" 1 (Allocation.num_vms a)

let test_baselines_infeasible () =
  let w = Helpers.workload ~rates:[ 100. ] ~interests:[ [ 0 ] ] in
  let p = Problem.create ~workload:w ~tau:10. ~capacity:50. Problem.unit_costs in
  let s = Selection.gsp p in
  (match Baselines.next_fit p s with
  | _ -> Alcotest.fail "next-fit: expected Infeasible"
  | exception Problem.Infeasible _ -> ());
  match Baselines.best_fit_decreasing p s with
  | _ -> Alcotest.fail "bfd: expected Infeasible"
  | exception Problem.Infeasible _ -> ()

(* ----- Allocation mutation support ----- *)

let test_remove_pair () =
  let a = Allocation.create ~capacity:100. in
  let b = Allocation.deploy a in
  Allocation.place a b ~topic:0 ~ev:10. ~subscribers:[| 1; 2 |] ~from:0 ~count:2;
  Helpers.check_float "load before" 30. (Allocation.load b);
  Helpers.check_bool "removed" true (Allocation.remove a b ~topic:0 ~ev:10. ~subscriber:1);
  Helpers.check_float "outgoing freed" 20. (Allocation.load b);
  Helpers.check_bool "still hosts" true (Allocation.hosts_topic b 0);
  Helpers.check_bool "last pair frees incoming" true
    (Allocation.remove a b ~topic:0 ~ev:10. ~subscriber:2);
  Helpers.check_float "empty" 0. (Allocation.load b);
  Helpers.check_bool "topic gone" false (Allocation.hosts_topic b 0);
  Helpers.check_bool "absent pair" false (Allocation.remove a b ~topic:0 ~ev:10. ~subscriber:7)

let test_rebuild_loads () =
  let a = Allocation.create ~capacity:1000. in
  let b = Allocation.deploy a in
  Allocation.place a b ~topic:0 ~ev:10. ~subscribers:[| 1; 2 |] ~from:0 ~count:2;
  Allocation.place a b ~topic:1 ~ev:5. ~subscribers:[| 1 |] ~from:0 ~count:1;
  Helpers.check_float "initial" 40. (Allocation.load b);
  (* Topic 0 doubles, topic 1 triples. *)
  Allocation.rebuild_loads a ~event_rates:[| 20.; 15. |];
  Helpers.check_float "repriced" 90. (Allocation.load b)

let test_compact () =
  let a = Allocation.create ~capacity:100. in
  let b0 = Allocation.deploy a in
  let _empty = Allocation.deploy a in
  let b2 = Allocation.deploy a in
  Allocation.place a b0 ~topic:0 ~ev:10. ~subscribers:[| 1 |] ~from:0 ~count:1;
  Allocation.place a b2 ~topic:1 ~ev:5. ~subscribers:[| 2 |] ~from:0 ~count:1;
  let fresh, mapping = Allocation.compact a in
  Helpers.check_int "two survivors" 2 (Allocation.num_vms fresh);
  Alcotest.(check (array int)) "mapping" [| 0; -1; 1 |] mapping;
  Helpers.check_float "loads preserved" 30. (Allocation.total_load fresh)

let test_find_pair_vm () =
  let a = Allocation.create ~capacity:100. in
  let b0 = Allocation.deploy a in
  let b1 = Allocation.deploy a in
  Allocation.place a b0 ~topic:0 ~ev:10. ~subscribers:[| 1 |] ~from:0 ~count:1;
  Allocation.place a b1 ~topic:0 ~ev:10. ~subscribers:[| 2 |] ~from:0 ~count:1;
  (match Allocation.find_pair_vm a ~topic:0 ~subscriber:2 with
  | Some vm -> Helpers.check_int "found on b1" 1 (Allocation.vm_id vm)
  | None -> Alcotest.fail "pair not found");
  Helpers.check_bool "missing pair" true (Allocation.find_pair_vm a ~topic:1 ~subscriber:1 = None)

(* ----- Vec mutation support ----- *)

let test_vec_swap_remove () =
  let v = Vec.of_array [| 10; 20; 30; 40 |] in
  Vec.swap_remove v 1;
  Alcotest.(check (list int)) "last moved in" [ 10; 40; 30 ] (Vec.to_list v);
  Vec.swap_remove v 2;
  Alcotest.(check (list int)) "remove last" [ 10; 40 ] (Vec.to_list v)

let test_vec_find_index () =
  let v = Vec.of_array [| 5; 6; 7 |] in
  Alcotest.(check (option int)) "found" (Some 1) (Vec.find_index (fun x -> x = 6) v);
  Alcotest.(check (option int)) "absent" None (Vec.find_index (fun x -> x = 9) v)

(* ----- Failure injection ----- *)

let test_outage_loses_exactly_the_window () =
  let p = Helpers.fig1_problem ~capacity:50. () in
  let r = Solver.solve p in
  (* Crash VM 0 for the second half of the horizon. *)
  let config =
    {
      Simulator.default_config with
      Simulator.outages =
        [ Simulator.outage ~vm:0 ~from_time:0.5 ~until_time:infinity () ];
    }
  in
  let res = Simulator.run p r.Solver.allocation config in
  let healthy = Simulator.run p r.Solver.allocation Simulator.default_config in
  (* Global publication count is unaffected. *)
  Helpers.check_int "same publications" healthy.Simulator.events_published
    res.Simulator.events_published;
  (* Someone lost roughly half their events. *)
  let total_lost = Array.fold_left ( + ) 0 res.Simulator.lost in
  Helpers.check_bool "events were lost" true (total_lost > 0);
  (* delivered + lost = healthy delivered, per subscriber. *)
  Array.iteri
    (fun v d ->
      Helpers.check_int
        (Printf.sprintf "conservation for v%d" v)
        healthy.Simulator.delivered.(v)
        (d + res.Simulator.lost.(v)))
    res.Simulator.delivered;
  (* The satisfaction check now flags the victims. *)
  let c = Simulator.check p r.Solver.allocation res ~tolerance:0. in
  Helpers.check_bool "under-delivery flagged" true (c.Simulator.unsatisfied <> [])

let test_outage_with_recovery () =
  let p = Helpers.fig1_problem ~capacity:50. () in
  let r = Solver.solve p in
  let brief =
    {
      Simulator.default_config with
      Simulator.outages = [ Simulator.outage ~vm:0 ~from_time:0.4 ~until_time:0.6 () ];
    }
  in
  let long =
    {
      Simulator.default_config with
      Simulator.outages = [ Simulator.outage ~vm:0 ~from_time:0.2 ~until_time:0.9 () ];
    }
  in
  let lost cfg =
    let res = Simulator.run p r.Solver.allocation cfg in
    Array.fold_left ( + ) 0 res.Simulator.lost
  in
  Helpers.check_bool "longer outage loses more" true (lost long > lost brief);
  Helpers.check_int "no outage loses nothing" 0 (lost Simulator.default_config)

let test_outage_on_unknown_vm_rejected () =
  let p = Helpers.fig1_problem ~capacity:50. () in
  let r = Solver.solve p in
  let config =
    {
      Simulator.default_config with
      Simulator.outages =
        [ Simulator.outage ~vm:99 ~from_time:0. ~until_time:infinity () ];
    }
  in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Simulator.run: outage vm 99 out of range (fleet has 3 VMs)")
    (fun () -> ignore (Simulator.run p r.Solver.allocation config))

let test_outage_inverted_window_rejected () =
  let p = Helpers.fig1_problem ~capacity:50. () in
  let r = Solver.solve p in
  let config =
    {
      Simulator.default_config with
      Simulator.outages = [ Simulator.outage ~vm:0 ~from_time:0.8 ~until_time:0.2 () ];
    }
  in
  Alcotest.check_raises "inverted"
    (Invalid_argument "Simulator.run: outage on vm 0 has inverted window (0.8 > 0.2)")
    (fun () -> ignore (Simulator.run p r.Solver.allocation config))

let test_outage_bad_severity_rejected () =
  let p = Helpers.fig1_problem ~capacity:50. () in
  let r = Solver.solve p in
  let with_severity s =
    {
      Simulator.default_config with
      Simulator.outages =
        [ Simulator.outage ~severity:s ~vm:0 ~from_time:0.2 ~until_time:0.8 () ];
    }
  in
  Alcotest.check_raises "zero"
    (Invalid_argument "Simulator.run: outage on vm 0 has severity 0 outside (0, 1]")
    (fun () -> ignore (Simulator.run p r.Solver.allocation (with_severity 0.)));
  Alcotest.check_raises "above one"
    (Invalid_argument "Simulator.run: outage on vm 0 has severity 1.5 outside (0, 1]")
    (fun () -> ignore (Simulator.run p r.Solver.allocation (with_severity 1.5)))

let suite =
  [
    Alcotest.test_case "global greedy shares topics" `Quick test_global_greedy_shares_topics;
    prop_global_greedy_satisfies;
    prop_global_greedy_packs_validly;
    prop_global_greedy_chooses_interests;
    prop_baseline_packers_valid;
    Alcotest.test_case "next-fit never looks back" `Quick test_next_fit_never_looks_back;
    Alcotest.test_case "bfd prefers tightest" `Quick test_bfd_prefers_tightest;
    Alcotest.test_case "baselines infeasible" `Quick test_baselines_infeasible;
    Alcotest.test_case "remove pair" `Quick test_remove_pair;
    Alcotest.test_case "rebuild loads" `Quick test_rebuild_loads;
    Alcotest.test_case "compact" `Quick test_compact;
    Alcotest.test_case "find pair vm" `Quick test_find_pair_vm;
    Alcotest.test_case "vec swap_remove" `Quick test_vec_swap_remove;
    Alcotest.test_case "vec find_index" `Quick test_vec_find_index;
    Alcotest.test_case "outage loses the window" `Quick test_outage_loses_exactly_the_window;
    Alcotest.test_case "outage with recovery" `Quick test_outage_with_recovery;
    Alcotest.test_case "outage on unknown vm rejected" `Quick
      test_outage_on_unknown_vm_rejected;
    Alcotest.test_case "outage inverted window rejected" `Quick
      test_outage_inverted_window_rejected;
    Alcotest.test_case "outage bad severity rejected" `Quick
      test_outage_bad_severity_rejected;
  ]
