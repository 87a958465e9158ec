(* Boundary and robustness cases across the pipeline: exact capacity
   fits, epsilon behaviour, degenerate workloads, extreme thresholds. *)

module Workload = Mcss_workload.Workload
module Problem = Mcss_core.Problem
module Selection = Mcss_core.Selection
module Allocation = Mcss_core.Allocation
module Solver = Mcss_core.Solver
module Verifier = Mcss_core.Verifier

let solve_and_verify p =
  let r = Solver.solve p in
  ignore (Verifier.check_exn p r.Solver.selection r.Solver.allocation);
  r

let test_pair_exactly_fills_vm () =
  (* 2·ev = BC exactly: one pair per VM, no epsilon accident. *)
  let w = Helpers.workload ~rates:[ 25. ] ~interests:[ [ 0 ]; [ 0 ] ] in
  let p = Problem.create ~workload:w ~tau:25. ~capacity:50. Problem.unit_costs in
  let r = solve_and_verify p in
  Helpers.check_int "two single-pair VMs" 2 r.Solver.num_vms;
  Helpers.check_float "both full" 100. r.Solver.bandwidth

let test_group_exactly_fills_vm () =
  (* (k+1)·ev = BC for k = 4: the whole group fits with zero slack. *)
  let w =
    Helpers.workload ~rates:[ 10. ] ~interests:[ [ 0 ]; [ 0 ]; [ 0 ]; [ 0 ] ]
  in
  let p = Problem.create ~workload:w ~tau:10. ~capacity:50. Problem.unit_costs in
  let r = solve_and_verify p in
  Helpers.check_int "one VM" 1 r.Solver.num_vms

let test_single_subscriber_single_topic () =
  let w = Helpers.workload ~rates:[ 7. ] ~interests:[ [ 0 ] ] in
  let p = Problem.create ~workload:w ~tau:100. ~capacity:14. Problem.unit_costs in
  let r = solve_and_verify p in
  Helpers.check_int "one VM" 1 r.Solver.num_vms;
  Helpers.check_int "one pair" 1 r.Solver.selection.Selection.num_pairs

let test_all_subscribers_interestless () =
  let w = Helpers.workload ~rates:[ 5. ] ~interests:[ []; []; [] ] in
  let p = Problem.create ~workload:w ~tau:10. ~capacity:100. Problem.unit_costs in
  let r = solve_and_verify p in
  Helpers.check_int "no VMs at all" 0 r.Solver.num_vms;
  Helpers.check_float "no traffic" 0. r.Solver.bandwidth

let test_tiny_fractional_tau () =
  (* tau far below every rate: the min-rate clause governs everywhere. *)
  let w = Helpers.workload ~rates:[ 100.; 50. ] ~interests:[ [ 0; 1 ]; [ 1 ] ] in
  let p = Problem.create ~workload:w ~tau:0.25 ~capacity:500. Problem.unit_costs in
  let r = solve_and_verify p in
  (* Each subscriber takes exactly its cheapest topic. *)
  Helpers.check_int "two pairs" 2 r.Solver.selection.Selection.num_pairs;
  Helpers.check_float "cheapest covers" 100. r.Solver.selection.Selection.outgoing_rate

let test_huge_tau_takes_everything () =
  let rng = Mcss_prng.Rng.create 61 in
  let w =
    Helpers.random_workload rng ~num_topics:20 ~num_subscribers:30 ~max_rate:10
      ~max_interests:5
  in
  let p = Problem.create ~workload:w ~tau:1e12 ~capacity:1e6 Problem.unit_costs in
  let r = solve_and_verify p in
  Helpers.check_int "every pair selected" (Workload.num_pairs w)
    r.Solver.selection.Selection.num_pairs

let test_fractional_rates_pipeline () =
  (* Non-integral rates exercise the float paths end to end. *)
  let w =
    Helpers.workload ~rates:[ 0.5; 1.25; 3.75 ] ~interests:[ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] ]
  in
  let p = Problem.create ~workload:w ~tau:2. ~capacity:10. Problem.unit_costs in
  ignore (solve_and_verify p);
  (* The reference agrees on fractional instances too. *)
  let a = Selection.gsp p and b = Selection.gsp_reference p in
  Helpers.check_bool "gsp = reference on fractional rates" true
    (Helpers.selection_rows a = Helpers.selection_rows b)

let test_epsilon_tolerates_accumulated_rounding () =
  (* Many small pairs summing to exactly BC: incremental accounting must
     not spuriously overflow the capacity check. *)
  let n = 1000 in
  let w =
    Workload.create
      ~event_rates:(Array.make n 0.1)
      ~interests:(Array.init n (fun t -> [| t |]))
  in
  (* Each pair costs 0.2; 500 pairs fill a VM of capacity 100... wait:
     500 * 0.2 = 100 with ~500 incoming streams included pairwise. Use a
     capacity that floats cannot hit exactly. *)
  let p = Problem.create ~workload:w ~tau:0.1 ~capacity:100.3 Problem.unit_costs in
  ignore (solve_and_verify p)

let test_identical_rates_stable_tie_breaks () =
  let w =
    Helpers.workload ~rates:[ 5.; 5.; 5.; 5. ] ~interests:[ [ 0; 1; 2; 3 ] ]
  in
  let p = Problem.create ~workload:w ~tau:12. ~capacity:100. Problem.unit_costs in
  let s = Selection.gsp p in
  (* Ties break to the lowest ids: 0, 1, 2 (3 x 5 >= 12). *)
  Alcotest.(check (list int)) "lowest ids win" [ 0; 1; 2 ]
    (Array.to_list (Selection.row s 0))

let test_sample_subscribers () =
  let rng = Mcss_prng.Rng.create 71 in
  let w =
    Helpers.random_workload rng ~num_topics:20 ~num_subscribers:200 ~max_rate:9
      ~max_interests:4
  in
  let everything = Workload.sample_subscribers (Mcss_prng.Rng.create 1) ~fraction:1. w in
  Helpers.check_int "fraction 1 keeps all" 200 (Workload.num_subscribers everything);
  let nothing = Workload.sample_subscribers (Mcss_prng.Rng.create 1) ~fraction:0. w in
  Helpers.check_int "fraction 0 keeps none" 0 (Workload.num_subscribers nothing);
  let half = Workload.sample_subscribers (Mcss_prng.Rng.create 1) ~fraction:0.5 w in
  let n = Workload.num_subscribers half in
  Helpers.check_bool "roughly half" true (n > 60 && n < 140);
  Helpers.check_int "topics untouched" 20 (Workload.num_topics half);
  (* The sample is still solvable. *)
  let p = Problem.create ~workload:half ~tau:10. ~capacity:100. Problem.unit_costs in
  ignore (solve_and_verify p);
  Alcotest.check_raises "bad fraction"
    (Invalid_argument "Workload.sample_subscribers: fraction outside [0,1]") (fun () ->
      ignore (Workload.sample_subscribers rng ~fraction:1.5 w))

let test_capacity_one_pair_at_a_time () =
  (* BC fits exactly one pair of anything: the fleet degenerates to one
     VM per pair and every algorithm must still agree and verify. *)
  let w = Helpers.workload ~rates:[ 10.; 10. ] ~interests:[ [ 0; 1 ]; [ 0 ] ] in
  let p = Problem.create ~workload:w ~tau:20. ~capacity:20. Problem.unit_costs in
  List.iter
    (fun (_, config) ->
      let r = Solver.solve ~config p in
      Helpers.check_int "one VM per pair" r.Solver.selection.Selection.num_pairs
        r.Solver.num_vms)
    Solver.ladder

let suite =
  [
    Alcotest.test_case "pair exactly fills VM" `Quick test_pair_exactly_fills_vm;
    Alcotest.test_case "group exactly fills VM" `Quick test_group_exactly_fills_vm;
    Alcotest.test_case "single subscriber/topic" `Quick test_single_subscriber_single_topic;
    Alcotest.test_case "all subscribers interestless" `Quick test_all_subscribers_interestless;
    Alcotest.test_case "tiny fractional tau" `Quick test_tiny_fractional_tau;
    Alcotest.test_case "huge tau takes everything" `Quick test_huge_tau_takes_everything;
    Alcotest.test_case "fractional rates pipeline" `Quick test_fractional_rates_pipeline;
    Alcotest.test_case "epsilon vs accumulated rounding" `Quick
      test_epsilon_tolerates_accumulated_rounding;
    Alcotest.test_case "identical rates tie-breaks" `Quick test_identical_rates_stable_tie_breaks;
    Alcotest.test_case "sample subscribers" `Quick test_sample_subscribers;
    Alcotest.test_case "capacity one pair at a time" `Quick test_capacity_one_pair_at_a_time;
  ]
