(* Tests for the Theorem A.1 lower bound. *)

module Problem = Mcss_core.Problem
module Selection = Mcss_core.Selection
module Solver = Mcss_core.Solver
module Lower_bound = Mcss_core.Lower_bound

let test_fig1_bound () =
  let p = Helpers.fig1_problem ~capacity:50. () in
  let lb = Lower_bound.compute p in
  (* v0: max(30, 10) = 30; v1: 30; v2: max(10, 10) = 10 -> 70. *)
  Helpers.check_float "bandwidth" 70. lb.Lower_bound.bandwidth;
  Helpers.check_int "vms = ceil(70/50)" 2 lb.Lower_bound.vms;
  Helpers.check_float "cost under unit costs" 2. lb.Lower_bound.cost

let test_min_rate_clause () =
  (* tau = 2 but the only topic has rate 9: the bound must charge 9, not
     2, because pairs are all-or-nothing. *)
  let w = Helpers.workload ~rates:[ 9. ] ~interests:[ [ 0 ] ] in
  let p = Problem.create ~workload:w ~tau:2. ~capacity:100. Problem.unit_costs in
  Helpers.check_float "charges min rate" 9. (Lower_bound.compute p).Lower_bound.bandwidth

let test_empty_subscriber_contributes_zero () =
  let w = Helpers.workload ~rates:[ 9. ] ~interests:[ []; [ 0 ] ] in
  let p = Problem.create ~workload:w ~tau:2. ~capacity:100. Problem.unit_costs in
  Helpers.check_float "only v1 counts" 9. (Lower_bound.compute p).Lower_bound.bandwidth

let test_gap_pct () =
  let lb = Lower_bound.compute (Helpers.fig1_problem ~capacity:50. ()) in
  (* cost 2 under unit costs *)
  Helpers.check_float "on the bound" 0. (Lower_bound.gap_pct ~cost:2. lb);
  Helpers.check_float "half again" 50. (Lower_bound.gap_pct ~cost:3. lb);
  let w = Helpers.workload ~rates:[ 9. ] ~interests:[ [] ] in
  let empty =
    Lower_bound.compute
      (Problem.create ~workload:w ~tau:2. ~capacity:100. Problem.unit_costs)
  in
  Helpers.check_float "zero bound" 0. empty.Lower_bound.cost;
  Helpers.check_float "zero bound gives 0" 0. (Lower_bound.gap_pct ~cost:5. empty)

let prop_bound_below_every_ladder_config =
  Helpers.qtest ~count:80 "LB.cost <= heuristic cost for every ladder entry"
    Helpers.problem_arbitrary (fun p ->
      let lb = Lower_bound.compute p in
      List.for_all
        (fun (_, config) ->
          let r = Solver.solve ~config p in
          lb.Lower_bound.cost <= r.Solver.cost +. 1e-6
          && lb.Lower_bound.vms <= r.Solver.num_vms
          && lb.Lower_bound.bandwidth <= r.Solver.bandwidth +. 1e-6)
        Solver.ladder)

let prop_bound_below_exact =
  Helpers.qtest ~count:60 "LB.cost <= exact optimal cost"
    Helpers.tiny_problem_arbitrary (fun p ->
      match Mcss_exact.Brute.solve p with
      | None -> QCheck.assume_fail ()
      | Some ex ->
          (Lower_bound.compute p).Lower_bound.cost <= ex.Mcss_exact.Brute.cost +. 1e-6)

let suite =
  [
    Alcotest.test_case "fig1 bound" `Quick test_fig1_bound;
    Alcotest.test_case "min-rate clause" `Quick test_min_rate_clause;
    Alcotest.test_case "empty subscriber" `Quick test_empty_subscriber_contributes_zero;
    Alcotest.test_case "gap_pct" `Quick test_gap_pct;
    prop_bound_below_every_ladder_config;
    prop_bound_below_exact;
  ]
