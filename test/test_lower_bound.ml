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

(* [Lower_bound.compute] as it stood with an [Array.fold_left] for each
   subscriber's cheapest topic, copied verbatim (only the result record
   is qualified): the oracle for the property below. *)
let fold_compute (p : Problem.t) =
  let module Workload = Mcss_workload.Workload in
  let w = p.Problem.workload in
  let bandwidth = ref 0. in
  for v = 0 to Workload.num_subscribers w - 1 do
    let tv = Workload.interests w v in
    if Array.length tv > 0 then begin
      let min_rate =
        Array.fold_left
          (fun acc t -> Float.min acc (Workload.event_rate w t))
          infinity tv
      in
      bandwidth := !bandwidth +. Float.max (Problem.tau_v p v) min_rate
    end
  done;
  let vms = int_of_float (ceil (!bandwidth /. p.Problem.capacity)) in
  { Lower_bound.bandwidth = !bandwidth; vms; cost = Problem.cost p ~vms ~bandwidth:!bandwidth }

(* Fractional rates, τ and capacity (so the sum's order shows in its
   bits), some subscribers with no interests. *)
let fractional_problem_gen =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    let* num_topics = int_range 1 30 in
    let* num_subscribers = int_range 1 80 in
    let module Rng = Mcss_prng.Rng in
    let rng = Rng.create seed in
    let event_rates = Array.init num_topics (fun _ -> 0.01 +. Rng.float rng 40.) in
    let interests =
      Array.init num_subscribers (fun _ ->
          Rng.sample_without_replacement rng (Rng.int rng (min 9 num_topics + 1)) num_topics)
    in
    let workload = Mcss_workload.Workload.create ~event_rates ~interests in
    return
      (Problem.create ~workload ~tau:(0.5 +. Rng.float rng 60.)
         ~capacity:(40. +. Rng.float rng 100.)
         (Problem.linear_costs ~vm_usd:36.5 ~per_event_usd:0.0013)))

let prop_loop_matches_fold =
  Helpers.qtest ~count:300 "loop = fold (bandwidth bits, vms, cost bits)"
    (QCheck.make fractional_problem_gen ~print:(fun p ->
         Format.asprintf "%a, tau=%g, BC=%g" Mcss_workload.Workload.pp_summary
           p.Problem.workload p.Problem.tau p.Problem.capacity))
    (fun p ->
      let bits = Int64.bits_of_float in
      let lb = Lower_bound.compute p and old = fold_compute p in
      bits lb.Lower_bound.bandwidth = bits old.Lower_bound.bandwidth
      && lb.Lower_bound.vms = old.Lower_bound.vms
      && bits lb.Lower_bound.cost = bits old.Lower_bound.cost)

let suite =
  [
    Alcotest.test_case "fig1 bound" `Quick test_fig1_bound;
    Alcotest.test_case "min-rate clause" `Quick test_min_rate_clause;
    Alcotest.test_case "empty subscriber" `Quick test_empty_subscriber_contributes_zero;
    Alcotest.test_case "gap_pct" `Quick test_gap_pct;
    prop_bound_below_every_ladder_config;
    prop_bound_below_exact;
    prop_loop_matches_fold;
  ]
