(* Tests for the workload statistics behind the paper's Appendix-D
   analysis. *)

module Workload = Mcss_workload.Workload
module Stats = Mcss_workload.Stats

let simple () =
  Helpers.workload ~rates:[ 5.; 3.; 7. ] ~interests:[ [ 0; 2 ]; [ 1 ]; []; [ 0; 1; 2 ] ]

let test_follower_counts () =
  Alcotest.(check (array int)) "counts" [| 2; 2; 2 |] (Stats.follower_counts (simple ()))

let test_interest_counts () =
  Alcotest.(check (array int)) "counts" [| 2; 1; 0; 3 |] (Stats.interest_counts (simple ()))

let test_ccdf_int () =
  (* Sample {1, 1, 2, 5}: P(X > 1) = 0.5, P(X > 2) = 0.25, P(X > 5) = 0. *)
  let ccdf = Stats.ccdf_int [| 1; 5; 1; 2 |] in
  Alcotest.(check (list (pair int (float 1e-12))))
    "ccdf" [ (1, 0.5); (2, 0.25); (5, 0.) ] ccdf

let test_ccdf_int_empty () =
  Alcotest.(check (list (pair int (float 1e-12)))) "empty" [] (Stats.ccdf_int [||])

let test_ccdf_float () =
  let ccdf = Stats.ccdf_float [| 1.5; 1.5; 3.0 |] in
  Alcotest.(check (list (pair (float 1e-12) (float 1e-12))))
    "ccdf"
    [ (1.5, 1. /. 3.); (3.0, 0.) ]
    ccdf

let test_ccdf_is_nonincreasing () =
  let xs = Array.init 200 (fun i -> (i * 7919) mod 37) in
  let ccdf = Stats.ccdf_int xs in
  let rec check = function
    | (_, p1) :: ((_, p2) :: _ as rest) ->
        Helpers.check_bool "non-increasing" true (p2 <= p1 +. 1e-12);
        check rest
    | _ -> ()
  in
  check ccdf;
  (match List.rev ccdf with
  | (_, last) :: _ -> Helpers.check_float "last is 0" 0. last
  | [] -> Alcotest.fail "empty ccdf")

let test_subscription_cardinality () =
  let w = simple () in
  (* Total rate 15; v0 receives 12 -> SC = 80%. *)
  Helpers.check_float "v0" 80. (Stats.subscription_cardinality w 0);
  Helpers.check_float "v2" 0. (Stats.subscription_cardinality w 2);
  Helpers.check_float "v3" 100. (Stats.subscription_cardinality w 3)

let test_mean_rate_by_followers () =
  (* All three topics have 2 followers; mean rate = 5. *)
  Alcotest.(check (list (pair int (float 1e-9))))
    "grouped" [ (2, 5.) ]
    (Stats.mean_rate_by_followers (simple ()))

let test_mean_sc_by_interests () =
  let w = simple () in
  let result = Stats.mean_sc_by_interests w in
  (* Keys 1 (v1: SC 20), 2 (v0: SC 80), 3 (v3: SC 100); key 0 excluded. *)
  Alcotest.(check (list (pair int (float 1e-9))))
    "grouped" [ (1, 20.); (2, 80.); (3, 100.) ] result

let test_quantile () =
  let xs = [| 4.; 1.; 3.; 2. |] in
  Helpers.check_float "q0" 1. (Stats.quantile xs 0.);
  Helpers.check_float "q1" 4. (Stats.quantile xs 1.);
  Helpers.check_float "median" 2.5 (Stats.quantile xs 0.5);
  (* Input not mutated. *)
  Alcotest.(check (array (float 1e-12))) "unchanged" [| 4.; 1.; 3.; 2. |] xs

let test_quantile_rejects () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.quantile: empty sample")
    (fun () -> ignore (Stats.quantile [||] 0.5));
  Alcotest.check_raises "bad q" (Invalid_argument "Stats.quantile: q outside [0,1]")
    (fun () -> ignore (Stats.quantile [| 1. |] 1.5))

let test_nearest_rank () =
  let check name expected xs p =
    Alcotest.(check (float 0.)) name expected (Stats.nearest_rank xs p)
  in
  check "n = 0" 0. [||] 0.5;
  check "n = 1, p = 0" 7. [| 7. |] 0.;
  check "n = 1, p = 1" 7. [| 7. |] 1.;
  let xs = [| 4.; 1.; 3.; 2.; 5. |] in
  check "p = 0 is the minimum" 1. xs 0.;
  check "p = 1 is the maximum" 5. xs 1.;
  check "rank ceil(0.5 * 5) = 3" 3. xs 0.5;
  check "rank ceil(0.95 * 5) = 5" 5. xs 0.95;
  let ties = [| 2.; 1.; 2.; 3. |] in
  check "tie, rank 2" 2. ties 0.5;
  check "tie, rank 3" 2. ties 0.75;
  Alcotest.(check (array (float 0.))) "argument unchanged" [| 2.; 1.; 2.; 3. |] ties

(* The copies [nearest_rank] replaced, kept verbatim as references:
   Week_sim's took p in 0-100, Nemesis's a sorted list. *)
let week_sim_percentile values p =
  let n = Array.length values in
  if n = 0 then 0.
  else begin
    let sorted = Array.copy values in
    Array.sort compare sorted;
    let idx = int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) idx))
  end

let nemesis_percentile sorted p =
  match sorted with
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      let n = Array.length a in
      let i = int_of_float (ceil (p *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) i))

let prop_nearest_rank_matches_retired_copies =
  Helpers.qtest "nearest_rank = the Week_sim and Nemesis copies"
    QCheck.(list (float_range (-1e3) 1e3))
    (fun l ->
      let xs = Array.of_list l in
      let sorted = List.sort compare l in
      List.for_all
        (fun p ->
          let v = Stats.nearest_rank xs p in
          v = nemesis_percentile sorted p
          && (p <> 0.95 || v = week_sim_percentile xs 95.))
        [ 0.; 0.25; 0.5; 0.95; 0.99; 1. ])

let test_summarize () =
  let s = Stats.summarize [| 1.; 2.; 3.; 4. |] in
  Helpers.check_int "count" 4 s.Stats.count;
  Helpers.check_float "mean" 2.5 s.Stats.mean;
  Helpers.check_float "min" 1. s.Stats.min;
  Helpers.check_float "max" 4. s.Stats.max;
  Helpers.check_float "p50" 2.5 s.Stats.p50

let prop_sc_bounded =
  Helpers.qtest "subscription cardinality in [0, 100]" Helpers.problem_arbitrary
    (fun p ->
      let w = p.Mcss_core.Problem.workload in
      Array.for_all
        (fun sc -> sc >= -1e-9 && sc <= 100. +. 1e-9)
        (Stats.subscription_cardinalities w))

let prop_ccdf_first_point =
  Helpers.qtest "ccdf at the minimum = 1 - freq(min)" Helpers.problem_arbitrary
    (fun p ->
      let w = p.Mcss_core.Problem.workload in
      let counts = Stats.follower_counts w in
      match Stats.ccdf_int counts with
      | [] -> Array.length counts = 0
      | (x0, p0) :: _ ->
          let n = Array.length counts in
          let at_min = Array.fold_left (fun acc c -> if c = x0 then acc + 1 else acc) 0 counts in
          Float.abs (p0 -. (float_of_int (n - at_min) /. float_of_int n)) < 1e-12)

let suite =
  [
    Alcotest.test_case "follower counts" `Quick test_follower_counts;
    Alcotest.test_case "interest counts" `Quick test_interest_counts;
    Alcotest.test_case "ccdf int" `Quick test_ccdf_int;
    Alcotest.test_case "ccdf int empty" `Quick test_ccdf_int_empty;
    Alcotest.test_case "ccdf float" `Quick test_ccdf_float;
    Alcotest.test_case "ccdf non-increasing" `Quick test_ccdf_is_nonincreasing;
    Alcotest.test_case "subscription cardinality" `Quick test_subscription_cardinality;
    Alcotest.test_case "mean rate by followers" `Quick test_mean_rate_by_followers;
    Alcotest.test_case "mean SC by interests" `Quick test_mean_sc_by_interests;
    Alcotest.test_case "quantile" `Quick test_quantile;
    Alcotest.test_case "quantile rejects" `Quick test_quantile_rejects;
    Alcotest.test_case "summarize" `Quick test_summarize;
    prop_sc_bounded;
    prop_ccdf_first_point;
    Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
    prop_nearest_rank_matches_retired_copies;
  ]
