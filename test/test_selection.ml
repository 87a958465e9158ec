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
  Array.to_list (Array.map Array.to_list (Helpers.selection_rows s))

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
  Helpers.selection_rows a = Helpers.selection_rows b
  && a.Selection.num_pairs = b.Selection.num_pairs

let prop_gsp_domains_identical =
  Helpers.qtest ~count:80 "gsp ~domains is bit-identical to gsp (1, 2, 4 domains)"
    Helpers.problem_arbitrary (fun p ->
      let seq = Selection.gsp p in
      List.for_all
        (fun domains ->
          let par = Selection.gsp ~domains p in
          Helpers.selection_rows par = Helpers.selection_rows seq
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
    (* GSP stops within [Problem.epsilon] (1e-9 of the capacity) of a
       subscriber's target, so the capacity keeps that below the
       smallest rate: a take-all row then really takes every pair. *)
    return (Problem.create ~workload ~tau ~capacity:1e6 Problem.unit_costs))

let bit_identical (a : Selection.t) (b : Selection.t) =
  let bits = Int64.bits_of_float in
  Helpers.selection_rows a = Helpers.selection_rows b
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
      Array.for_all ascending (Helpers.selection_rows seq)
      && (p.Problem.tau < 1e9
         || Array.exists
              (fun row -> Array.length row > Workload.sort_ids_cutoff)
              (Helpers.selection_rows seq))
      && bit_identical seq (Selection.gsp_reference p)
      && List.for_all
           (fun domains -> bit_identical seq (Selection.gsp ~domains p))
           [ 1; 2; 4 ]
      && bit_identical seq
           (Selection.reselect p ~previous:(Selection.rsp p) ~dirty:(Array.make n true)))

(* ----- the flat selection against the row-based oracle ----- *)

module Oracle = Selection_oracle

(* Every slice, rate bit and total of [s] equals the row oracle's, and
   the offsets frame exactly the topic column. *)
let matches_oracle (s : Selection.t) (o : Oracle.t) =
  let bits = Int64.bits_of_float in
  let n = Array.length o.Oracle.chosen in
  Selection.num_subscribers s = n
  && s.Selection.offs.(0) = 0
  && s.Selection.offs.(n) = Array.length s.Selection.topics
  && Array.for_all Fun.id (Array.init n (fun v -> Selection.row s v = o.Oracle.chosen.(v)))
  && Array.length s.Selection.selected_rate = n
  && Array.for_all2
       (fun x y -> bits x = bits y)
       s.Selection.selected_rate o.Oracle.selected_rate
  && s.Selection.num_pairs = o.Oracle.num_pairs
  && bits s.Selection.outgoing_rate = bits o.Oracle.outgoing_rate

(* [p]'s workload without its last [drop] subscribers, with the rates
   of some topics doubled: a previous selection for {!Selection.reselect}
   whose clean subscribers keep picks that [p] would not make. *)
let earlier_problem rng (p : Problem.t) ~drop =
  let w = p.Problem.workload in
  let n = Workload.num_subscribers w - drop in
  let event_rates =
    Array.map
      (fun ev -> if Mcss_prng.Rng.int rng 4 = 0 then 2. *. ev else ev)
      (Workload.event_rates w)
  in
  let interests = Array.init n (fun v -> Array.copy (Workload.interests w v)) in
  Problem.create ~workload:(Workload.create ~event_rates ~interests) ~tau:p.Problem.tau
    ~capacity:p.Problem.capacity p.Problem.costs

let prop_flat_matches_row_oracle =
  Helpers.qtest ~count:150 "flat selection = row oracle"
    (QCheck.make
       QCheck.Gen.(
         pair
           (oneof [ Helpers.problem_gen; long_rows_gen ])
           (int_bound 1_000_000))
       ~print:(fun (p, seed) ->
         Format.asprintf "%a, tau=%g, seed %d" Workload.pp_summary p.Problem.workload
           p.Problem.tau seed))
    (fun (p, seed) ->
      let w = p.Problem.workload in
      let n = Workload.num_subscribers w in
      let rng = Mcss_prng.Rng.create seed in
      let gsp =
        List.for_all
          (fun domains ->
            matches_oracle (Selection.gsp ~domains p) (Oracle.gsp ~domains p))
          [ 1; 2; 4 ]
      in
      let reselect =
        List.for_all
          (fun _ ->
            let drop = Mcss_prng.Rng.int rng (min 3 n + 1) in
            let before = earlier_problem rng p ~drop in
            let dirty = Array.init n (fun v -> v >= n - drop || Mcss_prng.Rng.int rng 3 = 0) in
            matches_oracle
              (Selection.reselect p ~previous:(Selection.gsp before) ~dirty)
              (Oracle.reselect p ~previous:(Oracle.gsp before) ~dirty))
          [ 1; 2; 3 ]
      in
      let dp =
        match (Selection.optimal_per_subscriber p, Oracle.optimal_per_subscriber p) with
        | Some s, Some o -> matches_oracle s o
        | None, None -> true
        | _ -> false
      in
      let decoded =
        let r = Mcss_core.Solver.solve p in
        let a, s =
          Mcss_core.Plan_io.of_string ~workload:w
            (Mcss_core.Plan_io.to_string r.Mcss_core.Solver.allocation)
        in
        matches_oracle s (Oracle.decode ~workload:w a)
      in
      gsp && reselect && matches_oracle (Selection.rsp p) (Oracle.rsp p) && dp && decoded)

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
        (Helpers.selection_rows s);
      !ok)

let prop_optimal_no_worse_than_gsp =
  Helpers.qtest "per-subscriber DP never selects more bandwidth than GSP"
    Helpers.problem_arbitrary (fun p ->
      match Selection.optimal_per_subscriber p with
      | None -> QCheck.assume_fail ()
      | Some opt ->
          let gsp = Selection.gsp p in
          opt.Selection.outgoing_rate <= gsp.Selection.outgoing_rate +. 1e-6)

(* The Stage-1 counters and gauge one selection leaves in a registry. *)
let stage1_metrics run =
  let obs = Mcss_obs.Registry.create () in
  ignore (run obs : Selection.t);
  let counter name =
    Mcss_obs.Metric.Counter.value (Mcss_obs.Registry.counter obs name)
  in
  ( List.map counter
      [
        "stage1.subscribers";
        "stage1.pairs_selected";
        "stage1.candidates_considered";
        "stage1.eligible_set_ops";
      ],
    Int64.bits_of_float
      (Mcss_obs.Metric.Gauge.value (Mcss_obs.Registry.gauge obs "stage1.outgoing_rate"))
  )

let prop_stage1_counters_merge =
  Helpers.qtest ~count:80
    "stage1 counters: gsp at 1, 2, 4 domains = reselect (all dirty)"
    Helpers.problem_arbitrary (fun p ->
      let n = Workload.num_subscribers p.Problem.workload in
      let seq = stage1_metrics (fun obs -> Selection.gsp ~obs p) in
      let counts, _ = seq in
      List.nth counts 0 = n
      && List.for_all
           (fun domains -> stage1_metrics (fun obs -> Selection.gsp ~obs ~domains p) = seq)
           [ 2; 4 ]
      && stage1_metrics (fun obs ->
             Selection.reselect ~obs p ~previous:(Selection.rsp p) ~dirty:(Array.make n true))
         = seq)

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
    Alcotest.test_case "rsp_shuffled satisfies" `Quick test_rsp_shuffled_satisfies;
    Alcotest.test_case "optimal DP beats greedy trap" `Quick test_optimal_dp_beats_greedy_trap;
    Alcotest.test_case "optimal DP refuses fractional" `Quick test_optimal_dp_refuses_fractional;
    Alcotest.test_case "optimal DP respects budget" `Quick test_optimal_dp_respects_budget;
    prop_gsp_matches_reference;
    prop_gsp_domains_identical;
    prop_stage1_counters_merge;
    prop_long_rows_identical;
    prop_flat_matches_row_oracle;
    prop_all_selectors_satisfy;
    prop_chosen_are_interests;
    prop_optimal_no_worse_than_gsp;
  ]
