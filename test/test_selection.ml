(* Tests for Stage 1: the benefit-cost ratio, GSP (optimised vs literal
   reference), RSP, and the per-subscriber optimal DP. *)

module Workload = Mcss_workload.Workload
module Problem = Mcss_core.Problem
module Selection = Mcss_core.Selection

let test_benefit_cost_ratio () =
  (* rem <= 0: already satisfied -> no benefit. *)
  Helpers.check_float "satisfied" 0. (Selection.benefit_cost_ratio ~ev:5. ~rem:0.);
  Helpers.check_float "satisfied (negative)" 0. (Selection.benefit_cost_ratio ~ev:5. ~rem:(-3.));
  (* ev >= rem: benefit 1, cost 2 ev. *)
  Helpers.check_float "exceeding" (1. /. 20.) (Selection.benefit_cost_ratio ~ev:10. ~rem:4.);
  (* ev < rem: benefit ev/rem, cost 2 ev -> 1 / (2 rem). *)
  Helpers.check_float "partial" (1. /. 16.) (Selection.benefit_cost_ratio ~ev:2. ~rem:8.)

let test_below_threshold_topics_tie () =
  (* All topics with ev < rem share the ratio 1/(2 rem). *)
  Helpers.check_float "tie"
    (Selection.benefit_cost_ratio ~ev:2. ~rem:8.)
    (Selection.benefit_cost_ratio ~ev:7. ~rem:8.)

let selection_to_lists s =
  Array.to_list (Array.map Array.to_list s.Selection.chosen)

let test_gsp_prefers_cheap_cover () =
  (* tau = 10; topics: 3, 100, 10. Greedy picks the below-threshold topic
     3 first, then must finish with the cheapest exceeding topic, 10 —
     avoiding the expensive 100 that RSP-in-id-order would grab. *)
  let w = Helpers.workload ~rates:[ 3.; 100.; 10. ] ~interests:[ [ 0; 1; 2 ] ] in
  let p = Problem.create ~workload:w ~tau:10. ~capacity:1000. Problem.unit_costs in
  let gsp = Selection.gsp p in
  Alcotest.(check (list (list int))) "gsp picks {0, 2}" [ [ 0; 2 ] ] (selection_to_lists gsp);
  Helpers.check_float "gsp rate" 13. gsp.Selection.selected_rate.(0);
  let rsp = Selection.rsp p in
  Alcotest.(check (list (list int))) "rsp picks {0, 1}" [ [ 0; 1 ] ] (selection_to_lists rsp);
  Helpers.check_float "rsp rate" 103. rsp.Selection.selected_rate.(0)

let test_gsp_single_topic_cover () =
  (* When every topic exceeds tau_v, GSP takes exactly the cheapest one. *)
  let w = Helpers.workload ~rates:[ 50.; 20.; 90. ] ~interests:[ [ 0; 1; 2 ] ] in
  let p = Problem.create ~workload:w ~tau:10. ~capacity:1000. Problem.unit_costs in
  let s = Selection.gsp p in
  Alcotest.(check (list (list int))) "cheapest single" [ [ 1 ] ] (selection_to_lists s)

let test_gsp_takes_everything_when_needed () =
  let w = Helpers.workload ~rates:[ 2.; 3. ] ~interests:[ [ 0; 1 ] ] in
  let p = Problem.create ~workload:w ~tau:100. ~capacity:1000. Problem.unit_costs in
  let s = Selection.gsp p in
  Alcotest.(check (list (list int))) "all pairs" [ [ 0; 1 ] ] (selection_to_lists s);
  Helpers.check_bool "satisfies capped tau_v" true (Selection.satisfies p s)

let test_subscriber_without_interests () =
  let w = Helpers.workload ~rates:[ 2. ] ~interests:[ []; [ 0 ] ] in
  let p = Problem.create ~workload:w ~tau:5. ~capacity:100. Problem.unit_costs in
  let s = Selection.gsp p in
  Alcotest.(check (list (list int))) "empty choice" [ []; [ 0 ] ] (selection_to_lists s);
  Helpers.check_bool "still satisfies" true (Selection.satisfies p s)

let test_selection_bookkeeping () =
  let p = Helpers.fig1_problem () in
  let s = Selection.gsp p in
  Helpers.check_int "num_pairs" 5 s.Selection.num_pairs;
  Helpers.check_float "outgoing" 70. s.Selection.outgoing_rate;
  Helpers.check_bool "satisfies" true (Selection.satisfies p s)

let group_size (g : Selection.by_topic) t =
  g.Selection.offsets.(t + 1) - g.Selection.offsets.(t)

(* The table as (topic, subscribers) per nonempty topic, ascending. *)
let table_groups (g : Selection.by_topic) =
  Array.to_list
    (Array.map
       (fun t ->
         let lo = g.Selection.offsets.(t) in
         (t, Array.to_list (Array.sub g.Selection.subscribers lo (group_size g t))))
       g.Selection.topics)

let test_pairs_by_topic () =
  let p = Helpers.fig1_problem () in
  let s = Selection.gsp p in
  let g = Selection.pairs_by_topic p s in
  Alcotest.(check (list (pair int (list int))))
    "regrouped"
    [ (0, [ 0; 1 ]); (1, [ 0; 1; 2 ]) ]
    (table_groups g);
  Alcotest.(check (list int)) "offsets" [ 0; 2; 5 ] (Array.to_list g.Selection.offsets);
  Helpers.check_int "group size" 3 (group_size g 1)

let test_rsp_shuffled_satisfies () =
  let rng = Mcss_prng.Rng.create 3 in
  let p = Helpers.fig1_problem () in
  let s = Selection.rsp_shuffled rng p in
  Helpers.check_bool "satisfies" true (Selection.satisfies p s)

let test_optimal_dp_beats_greedy_trap () =
  (* tau = 10 with rates {6, 5, 4, 9}: GSP picks 4 (lowest id among
     below-threshold after ties? ids in rate order here)... the DP must
     find a cover of total exactly 10 = {6, 4}. *)
  let w = Helpers.workload ~rates:[ 6.; 5.; 4.; 9. ] ~interests:[ [ 0; 1; 2; 3 ] ] in
  let p = Problem.create ~workload:w ~tau:10. ~capacity:1000. Problem.unit_costs in
  match Selection.optimal_per_subscriber p with
  | None -> Alcotest.fail "DP refused an integral instance"
  | Some s ->
      Helpers.check_float "optimal rate = 10" 10. s.Selection.selected_rate.(0);
      Helpers.check_bool "satisfies" true (Selection.satisfies p s)

let test_optimal_dp_refuses_fractional () =
  let w = Helpers.workload ~rates:[ 1.5 ] ~interests:[ [ 0 ] ] in
  let p = Problem.create ~workload:w ~tau:1. ~capacity:100. Problem.unit_costs in
  Helpers.check_bool "refuses" true (Selection.optimal_per_subscriber p = None)

let test_optimal_dp_respects_budget () =
  let w = Helpers.workload ~rates:[ 10. ] ~interests:[ [ 0 ] ] in
  let p = Problem.create ~workload:w ~tau:8. ~capacity:100. Problem.unit_costs in
  Helpers.check_bool "over budget -> None" true
    (Selection.optimal_per_subscriber ~max_budget:5 p = None);
  Helpers.check_bool "within budget -> Some" true
    (Selection.optimal_per_subscriber ~max_budget:10 p <> None)

let same_selection a b =
  a.Selection.chosen = b.Selection.chosen
  && a.Selection.num_pairs = b.Selection.num_pairs

let prop_gsp_parallel_identical =
  Helpers.qtest ~count:80 "gsp_parallel is bit-identical to gsp (1, 2, 4 domains)"
    Helpers.problem_arbitrary (fun p ->
      let seq = Selection.gsp p in
      List.for_all
        (fun domains ->
          let par = Selection.gsp_parallel ~domains p in
          par.Selection.chosen = seq.Selection.chosen
          && par.Selection.selected_rate = seq.Selection.selected_rate
          && par.Selection.num_pairs = seq.Selection.num_pairs
          && par.Selection.outgoing_rate = seq.Selection.outgoing_rate)
        [ 1; 2; 4 ])

let prop_gsp_matches_reference =
  Helpers.qtest ~count:200 "gsp picks exactly the reference's sets"
    Helpers.problem_arbitrary (fun p ->
      same_selection (Selection.gsp p) (Selection.gsp_reference p))

(* Rows longer than [Workload.sort_ids_cutoff], over rates from a small
   integral palette (many ties, exact sums), at a τ that takes part of
   each row or one that takes all of it. *)
let long_rows_gen =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    let* num_topics = int_range (Workload.sort_ids_cutoff + 8) 120 in
    let* num_subscribers = int_range 1 24 in
    let* take_all = bool in
    let* tau = int_range 20 400 in
    let module Rng = Mcss_prng.Rng in
    let rng = Rng.create seed in
    let palette = [| 1.; 2.; 3.; 5.; 8. |] in
    let event_rates =
      Array.init num_topics (fun _ -> palette.(Rng.int rng (Array.length palette)))
    in
    let cutoff = Workload.sort_ids_cutoff in
    let interests =
      Array.init num_subscribers (fun _ ->
          let k = cutoff + 1 + Rng.int rng (num_topics - cutoff) in
          Rng.sample_without_replacement rng k num_topics)
    in
    let workload = Workload.create ~event_rates ~interests in
    let tau = if take_all then 1e9 else float_of_int tau in
    return (Problem.create ~workload ~tau ~capacity:1e9 Problem.unit_costs))

let bit_identical (a : Selection.t) (b : Selection.t) =
  let bits = Int64.bits_of_float in
  a.Selection.chosen = b.Selection.chosen
  && Array.length a.Selection.selected_rate = Array.length b.Selection.selected_rate
  && Array.for_all2
       (fun x y -> bits x = bits y)
       a.Selection.selected_rate b.Selection.selected_rate
  && a.Selection.num_pairs = b.Selection.num_pairs
  && bits a.Selection.outgoing_rate = bits b.Selection.outgoing_rate

let prop_long_rows_identical =
  Helpers.qtest ~count:100
    "long rows: gsp = reference = parallel (1, 2, 4) = reselect, bit for bit"
    (QCheck.make long_rows_gen ~print:(fun p ->
         Format.asprintf "%a, tau=%g" Workload.pp_summary p.Problem.workload p.Problem.tau))
    (fun p ->
      let n = Workload.num_subscribers p.Problem.workload in
      let seq = Selection.gsp p in
      let ascending row =
        let ok = ref true in
        for i = 1 to Array.length row - 1 do
          if row.(i - 1) >= row.(i) then ok := false
        done;
        !ok
      in
      Array.for_all ascending seq.Selection.chosen
      && (p.Problem.tau < 1e9
         || Array.exists
              (fun row -> Array.length row > Workload.sort_ids_cutoff)
              seq.Selection.chosen)
      && bit_identical seq (Selection.gsp_reference p)
      && List.for_all
           (fun domains -> bit_identical seq (Selection.gsp_parallel ~domains p))
           [ 1; 2; 4 ]
      && bit_identical seq
           (Selection.reselect p ~previous:(Selection.rsp p) ~dirty:(Array.make n true)))

let prop_all_selectors_satisfy =
  Helpers.qtest "gsp, rsp and DP all satisfy every subscriber"
    Helpers.problem_arbitrary (fun p ->
      Selection.satisfies p (Selection.gsp p)
      && Selection.satisfies p (Selection.rsp p)
      &&
      match Selection.optimal_per_subscriber p with
      | Some s -> Selection.satisfies p s
      | None -> true)

let prop_chosen_are_interests =
  Helpers.qtest "chosen topics are a duplicate-free subset of interests"
    Helpers.problem_arbitrary (fun p ->
      let w = p.Problem.workload in
      let s = Selection.gsp p in
      let ok = ref true in
      Array.iteri
        (fun v chosen ->
          let tv = Workload.interests w v in
          Array.iter (fun t -> if not (Array.mem t tv) then ok := false) chosen;
          for i = 1 to Array.length chosen - 1 do
            if chosen.(i) = chosen.(i - 1) then ok := false
          done)
        s.Selection.chosen;
      !ok)

let prop_optimal_no_worse_than_gsp =
  Helpers.qtest "per-subscriber DP never selects more bandwidth than GSP"
    Helpers.problem_arbitrary (fun p ->
      match Selection.optimal_per_subscriber p with
      | None -> QCheck.assume_fail ()
      | Some opt ->
          let gsp = Selection.gsp p in
          opt.Selection.outgoing_rate <= gsp.Selection.outgoing_rate +. 1e-6)

let prop_pairs_by_topic_domains_identical =
  Helpers.qtest ~count:80 "pairs_by_topic is identical at 1, 2, 4 and 7 domains"
    Helpers.problem_arbitrary (fun p ->
      let s = Selection.gsp p in
      let seq = Selection.pairs_by_topic p s in
      List.for_all
        (fun domains -> Selection.pairs_by_topic ~domains p s = seq)
        [ 1; 2; 4; 7 ])

let prop_pairs_by_topic_is_partition =
  Helpers.qtest "pairs_by_topic loses and invents nothing" Helpers.problem_arbitrary
    (fun p ->
      let s = Selection.gsp p in
      let g = Selection.pairs_by_topic p s in
      let nt = Workload.num_topics p.Problem.workload in
      let from_groups = Hashtbl.create 64 in
      List.iter
        (fun (t, subs) ->
          List.iter (fun v -> Hashtbl.replace from_groups (t, v) ()) subs)
        (table_groups g);
      let count = ref 0 in
      let ok = ref true in
      Selection.iter_pairs s (fun t v ->
          incr count;
          if not (Hashtbl.mem from_groups (t, v)) then ok := false);
      (* Shape: offsets span the column, and a topic is listed exactly
         when its slice is nonempty; slices ascend strictly. *)
      let shape =
        Array.length g.Selection.offsets = nt + 1
        && g.Selection.offsets.(0) = 0
        && g.Selection.offsets.(nt) = Array.length g.Selection.subscribers
        && Array.to_list g.Selection.topics
           = List.filter (fun t -> group_size g t > 0) (List.init nt Fun.id)
        && List.for_all
             (fun (_, subs) ->
               let rec ascending = function
                 | a :: (b :: _ as rest) -> a < b && ascending rest
                 | _ -> true
               in
               ascending subs)
             (table_groups g)
      in
      !ok && shape && !count = Hashtbl.length from_groups
      && !count = s.Selection.num_pairs)

let suite =
  [
    Alcotest.test_case "benefit-cost ratio" `Quick test_benefit_cost_ratio;
    Alcotest.test_case "below-threshold topics tie" `Quick test_below_threshold_topics_tie;
    Alcotest.test_case "gsp prefers cheap cover" `Quick test_gsp_prefers_cheap_cover;
    Alcotest.test_case "gsp single-topic cover" `Quick test_gsp_single_topic_cover;
    Alcotest.test_case "gsp takes everything when needed" `Quick
      test_gsp_takes_everything_when_needed;
    Alcotest.test_case "subscriber without interests" `Quick test_subscriber_without_interests;
    Alcotest.test_case "selection bookkeeping (fig 1)" `Quick test_selection_bookkeeping;
    Alcotest.test_case "pairs_by_topic (fig 1)" `Quick test_pairs_by_topic;
    Alcotest.test_case "rsp_shuffled satisfies" `Quick test_rsp_shuffled_satisfies;
    Alcotest.test_case "optimal DP beats greedy trap" `Quick test_optimal_dp_beats_greedy_trap;
    Alcotest.test_case "optimal DP refuses fractional" `Quick test_optimal_dp_refuses_fractional;
    Alcotest.test_case "optimal DP respects budget" `Quick test_optimal_dp_respects_budget;
    prop_gsp_matches_reference;
    prop_gsp_parallel_identical;
    prop_long_rows_identical;
    prop_all_selectors_satisfy;
    prop_chosen_are_interests;
    prop_optimal_no_worse_than_gsp;
    prop_pairs_by_topic_is_partition;
    prop_pairs_by_topic_domains_identical;
  ]
