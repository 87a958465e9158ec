(* Tests for Stage 2: FFBP, CBP and its optimisation switches, and the
   Alg. 7 distribute-vs-deploy estimate. *)

module Workload = Mcss_workload.Workload
module Problem = Mcss_core.Problem
module Selection = Mcss_core.Selection
module Allocation = Mcss_core.Allocation
module Ffbp = Mcss_core.Ffbp
module Cbp = Mcss_core.Cbp
module Verifier = Mcss_core.Verifier
module Plan_io = Mcss_core.Plan_io
module Solver = Mcss_core.Solver
module Baselines = Mcss_core.Baselines
module Front = Mcss_front.Front
module Arena = Mcss_core.Arena
module Oracle = Cbp_oracle

let valid p s a = Verifier.is_valid (Verifier.verify p s a)

(* On how many VMs does each topic appear? Splitting is the bandwidth
   overhead CBP exists to avoid. *)
let topic_spread a =
  let spread = Hashtbl.create 16 in
  Array.iter
    (fun vm ->
      List.iter
        (fun t ->
          Hashtbl.replace spread t (1 + Option.value ~default:0 (Hashtbl.find_opt spread t)))
        (Allocation.topics_on vm))
    (Allocation.vms a);
  spread

let test_ffbp_fig1_valid () =
  let p = Helpers.fig1_problem ~capacity:80. () in
  let s = Selection.gsp p in
  let a = Ffbp.run p s in
  Helpers.check_bool "valid" true (valid p s a)

let test_ffbp_splits_topics () =
  (* Subscriber order interleaves topics, so first-fit splits topic 0
     across VMs once the first VM is tight. Three subscribers each take
     (t0, t1); BC fits one t0 pair plus one t1 pair per VM. *)
  let w =
    Helpers.workload ~rates:[ 20.; 10. ] ~interests:[ [ 0; 1 ]; [ 0; 1 ]; [ 0; 1 ] ]
  in
  let p = Problem.create ~workload:w ~tau:30. ~capacity:60. Problem.unit_costs in
  let s = Selection.gsp p in
  let ff = Ffbp.run p s in
  Helpers.check_bool "valid" true (valid p s ff);
  let spread = topic_spread ff in
  Helpers.check_bool "t0 split over >= 2 VMs" true (Hashtbl.find spread 0 >= 2)

let test_cbp_groups_topics () =
  (* Same workload: CBP keeps each topic on as few VMs as its size allows. *)
  let w =
    Helpers.workload ~rates:[ 20.; 10. ] ~interests:[ [ 0; 1 ]; [ 0; 1 ]; [ 0; 1 ] ]
  in
  let p = Problem.create ~workload:w ~tau:30. ~capacity:80. Problem.unit_costs in
  let s = Selection.gsp p in
  let cb = Cbp.run p s Cbp.with_most_free in
  Helpers.check_bool "valid" true (valid p s cb);
  let spread = topic_spread cb in
  Helpers.check_int "t0 on one VM" 1 (Hashtbl.find spread 0);
  let ff = Ffbp.run p s in
  Helpers.check_bool "CBP bandwidth <= FFBP bandwidth" true
    (Allocation.total_load cb <= Allocation.total_load ff +. 1e-9)

let test_cbp_expensive_first_order () =
  (* With one pair per topic and a capacity fitting exactly one pair,
     expensive-first deploys VMs in decreasing rate order. *)
  let w = Helpers.workload ~rates:[ 10.; 30.; 20. ] ~interests:[ [ 0 ]; [ 1 ]; [ 2 ] ] in
  let p = Problem.create ~workload:w ~tau:30. ~capacity:60. Problem.unit_costs in
  let s = Selection.gsp p in
  let a = Cbp.run p s Cbp.with_expensive_first in
  Helpers.check_bool "valid" true (valid p s a);
  let vms = Allocation.vms a in
  (* VM 0 must host the most expensive topic (id 1, rate 30). *)
  Helpers.check_bool "vm0 hosts topic 1" true (Allocation.hosts_topic vms.(0) 1)

let test_ffbp_infeasible () =
  let w = Helpers.workload ~rates:[ 100. ] ~interests:[ [ 0 ] ] in
  let p = Problem.create ~workload:w ~tau:10. ~capacity:50. Problem.unit_costs in
  let s = Selection.gsp p in
  (match Ffbp.run p s with
  | _ -> Alcotest.fail "expected Infeasible"
  | exception Problem.Infeasible _ -> ())

let test_cbp_infeasible () =
  let w = Helpers.workload ~rates:[ 100. ] ~interests:[ [ 0 ] ] in
  let p = Problem.create ~workload:w ~tau:10. ~capacity:50. Problem.unit_costs in
  let s = Selection.gsp p in
  (match Cbp.run p s Cbp.with_cost_decision with
  | _ -> Alcotest.fail "expected Infeasible"
  | exception Problem.Infeasible _ -> ())

let test_cheaper_to_distribute_obvious_cases () =
  let w = Helpers.workload ~rates:[ 10.; 10. ] ~interests:[ [ 0 ]; [ 1 ] ] in
  (* Expensive VMs, free bandwidth: spreading into existing room must win. *)
  let p =
    Problem.create ~workload:w ~tau:10. ~capacity:100.
      (Problem.linear_costs ~vm_usd:1000. ~per_event_usd:0.0001)
  in
  let a = Allocation.create ~capacity:100. in
  let b = Allocation.deploy a in
  Allocation.place a b ~topic:1 ~ev:10. ~subscribers:[| 1 |] ~from:0 ~count:1;
  Helpers.check_bool "VMs dear, bandwidth cheap -> distribute" true
    (Cbp.cheaper_to_distribute p a ~ev:10. ~count:2 ~hosts:(fun _ -> false));
  (* Free VMs, ruinous bandwidth: spreading 4 pairs over two nearly full
     VMs pays two incoming streams and still overflows to an extra VM,
     while one fresh VM pays a single incoming stream — distribution must
     lose. *)
  let p' =
    Problem.create ~workload:w ~tau:10. ~capacity:100.
      (Problem.linear_costs ~vm_usd:0.0001 ~per_event_usd:1000.)
  in
  let a' = Allocation.create ~capacity:100. in
  let b0 = Allocation.deploy a' in
  Allocation.place a' b0 ~topic:1 ~ev:37.5 ~subscribers:[| 1 |] ~from:0 ~count:1;
  let b1 = Allocation.deploy a' in
  Allocation.place a' b1 ~topic:1 ~ev:37.5 ~subscribers:[| 0 |] ~from:0 ~count:1;
  Helpers.check_bool "VMs cheap, bandwidth dear -> deploy fresh" true
    (not (Cbp.cheaper_to_distribute p' a' ~ev:10. ~count:4 ~hosts:(fun _ -> false)))

let test_presets_are_cumulative () =
  Helpers.check_bool "grouping: arbitrary/first-fit/no-cost" true
    (Cbp.grouping_only.Cbp.topic_order = Cbp.Arbitrary
    && Cbp.grouping_only.Cbp.vm_choice = Cbp.First_fit
    && not Cbp.grouping_only.Cbp.cost_decision);
  Helpers.check_bool "(c) adds ordering" true
    (Cbp.with_expensive_first.Cbp.topic_order = Cbp.Expensive_first);
  Helpers.check_bool "(d) adds most-free" true
    (Cbp.with_most_free.Cbp.vm_choice = Cbp.Most_free);
  Helpers.check_bool "(e) adds cost decision" true
    Cbp.with_cost_decision.Cbp.cost_decision

let test_heaviest_group_first_order () =
  (* Topic 0: rate 10 with 5 pairs (volume 50); topic 1: rate 30 with one
     pair (volume 30). Expensive-first starts with topic 1; the
     heaviest-group reading of Alg. 4 line 3 starts with topic 0. *)
  let w =
    Helpers.workload ~rates:[ 10.; 30. ]
      ~interests:[ [ 0 ]; [ 0 ]; [ 0 ]; [ 0 ]; [ 0 ]; [ 1 ] ]
  in
  let p = Problem.create ~workload:w ~tau:30. ~capacity:70. Problem.unit_costs in
  let s = Selection.gsp p in
  let heavy =
    Cbp.run p s { Cbp.with_most_free with Cbp.topic_order = Cbp.Heaviest_group_first }
  in
  let expensive = Cbp.run p s Cbp.with_most_free in
  Helpers.check_bool "heavy: vm0 hosts topic 0" true
    (Allocation.hosts_topic (Allocation.vms heavy).(0) 0);
  Helpers.check_bool "expensive: vm0 hosts topic 1" true
    (Allocation.hosts_topic (Allocation.vms expensive).(0) 1);
  Helpers.check_bool "both valid" true (valid p s heavy && valid p s expensive)

let all_stage2 =
  [
    ("ffbp", fun p s -> Ffbp.run p s);
    ("cbp-b", fun p s -> Cbp.run p s Cbp.grouping_only);
    ("cbp-c", fun p s -> Cbp.run p s Cbp.with_expensive_first);
    ("cbp-d", fun p s -> Cbp.run p s Cbp.with_most_free);
    ("cbp-e", fun p s -> Cbp.run p s Cbp.with_cost_decision);
    ( "cbp-heavy",
      fun p s ->
        Cbp.run p s { Cbp.with_most_free with Cbp.topic_order = Cbp.Heaviest_group_first } );
  ]

let prop_every_packer_is_valid =
  Helpers.qtest ~count:150 "every Stage-2 packer yields a verifier-clean allocation"
    Helpers.problem_arbitrary (fun p ->
      let s = Selection.gsp p in
      List.for_all (fun (_, run) -> valid p s (run p s)) all_stage2)

let prop_rsp_selection_packs_validly =
  Helpers.qtest "packers also handle RSP selections" Helpers.problem_arbitrary
    (fun p ->
      let s = Selection.rsp p in
      List.for_all (fun (_, run) -> valid p s (run p s)) all_stage2)

let prop_no_empty_vms =
  Helpers.qtest "no packer ever deploys an empty VM" Helpers.problem_arbitrary
    (fun p ->
      let s = Selection.gsp p in
      List.for_all
        (fun (_, run) ->
          Array.for_all
            (fun vm -> Allocation.num_pairs_on vm > 0)
            (Allocation.vms (run p s)))
        all_stage2)

let prop_ffbp_uses_earliest_vm =
  Helpers.qtest "FFBP never leaves an earlier VM that could host a pair"
    Helpers.tiny_problem_arbitrary (fun p ->
      (* Every pair on VM b>0 must not have fit any earlier VM at the time
         it was placed; a cheap necessary condition observable after the
         fact: the last VM holds at least one pair whose placement delta
         exceeds no earlier VM's *final* free capacity plus its own delta.
         We check the weaker invariant that the final fleet has no VM able
         to absorb the entire last VM. *)
      let s = Selection.gsp p in
      let a = Ffbp.run p s in
      let vms = Allocation.vms a in
      let n = Array.length vms in
      n <= 1
      ||
      let last = vms.(n - 1) in
      not
        (Array.exists
           (fun vm ->
             Allocation.vm_id vm < n - 1
             && Allocation.free a vm >= Allocation.load last)
           vms))

(* ----- differential: Stage 2 on the flat table = the tuple-sorting oracle ----- *)

(* Built for ties: every rate comes from a palette of at most three
   values (scaled by 1/2, 1 or 3/2: fractional, still exact), so
   many topics share a rate and equal-size groups share a volume; the
   capacity is a multiple of 1/2, so VMs often end with exactly equal
   free capacity. Small capacities make some instances infeasible. *)
let tie_problem_gen =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    let* num_topics = int_range 2 30 in
    let* num_subscribers = int_range 1 80 in
    let* max_rate = int_range 1 3 in
    let* scale = oneofl [ 0.5; 1.; 1.5 ] in
    let* max_interests = int_range 1 6 in
    let* tau = int_range 1 20 in
    let* half_capacity = int_range 3 40 in
    let* vm_usd = oneofl [ 0.001; 0.5; 4.; 30. ] in
    let rng = Mcss_prng.Rng.create seed in
    let w =
      Helpers.random_workload rng ~num_topics ~num_subscribers ~max_rate ~max_interests
    in
    let workload =
      Workload.create
        ~event_rates:(Array.map (fun ev -> ev *. scale) (Workload.event_rates w))
        ~interests:(Array.init num_subscribers (Workload.interests w))
    in
    return
      (Problem.create ~workload ~tau:(float_of_int tau)
         ~capacity:(0.5 *. float_of_int half_capacity)
         (Problem.linear_costs ~vm_usd ~per_event_usd:0.1)))

let tie_problem_arbitrary =
  QCheck.make tie_problem_gen ~print:(fun p ->
      Format.asprintf "%a, tau=%g, BC=%g" Workload.pp_summary p.Problem.workload
        p.Problem.tau p.Problem.capacity)

(* The ladder's four CBP configurations plus [Heaviest_group_first], in
   both modules' option types. *)
let oracle_options =
  [
    (Cbp.grouping_only, Oracle.grouping_only);
    (Cbp.with_expensive_first, Oracle.with_expensive_first);
    (Cbp.with_most_free, Oracle.with_most_free);
    (Cbp.with_cost_decision, Oracle.with_cost_decision);
    ( { Cbp.with_most_free with Cbp.topic_order = Cbp.Heaviest_group_first },
      { Oracle.with_most_free with Oracle.topic_order = Oracle.Heaviest_group_first } );
  ]

(* Plan text and per-VM load bits, or the [Infeasible] message. *)
let packed run =
  match run () with
  | a ->
      Ok
        ( Plan_io.to_string a,
          Array.map (fun vm -> Int64.bits_of_float (Allocation.load vm)) (Allocation.vms a) )
  | exception Problem.Infeasible m -> Error m

let prop_cbp_matches_oracle =
  Helpers.qtest ~count:200
    "cbp = tuple-sort oracle (plan text, load bits), 5 orders x 1/2/4 domains"
    tie_problem_arbitrary (fun p ->
      let s = Selection.gsp p in
      List.for_all
        (fun (opts, oracle_opts) ->
          let expected = packed (fun () -> Oracle.run p s oracle_opts) in
          List.for_all
            (fun domains -> packed (fun () -> Cbp.run ~domains p s opts) = expected)
            [ 1; 2; 4 ])
        oracle_options)

(* [Cbp.order] against its merge-sort predecessor ([Order_oracle]) on
   keys with heavy ties: every rate comes from a small pool, so many
   topics share a key as equal floats of different ids; the pool holds
   neighbours a few ulps apart and rates across the float range, and
   group sizes of 1 to 3 followers make [size · ev] products tie too. *)
let order_problem_gen =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    let* num_topics = int_range 1 400 in
    let* num_subscribers = int_range 1 40 in
    let rng = Mcss_prng.Rng.create seed in
    let pool =
      [| 1.; 2.; 3.; 6.; 0.5; 0.1 +. 0.2; 0.3; Float.succ 1.; Float.pred 2.; 1e-300; 5e-324;
         1e300; Float.max_float |]
    in
    let pool = Array.sub pool 0 (1 + Mcss_prng.Rng.int rng (Array.length pool)) in
    let event_rates =
      Array.init num_topics (fun _ -> pool.(Mcss_prng.Rng.int rng (Array.length pool)))
    in
    let interests =
      Array.init num_subscribers (fun _ ->
          List.sort_uniq compare
            (List.init (Mcss_prng.Rng.int rng 12) (fun _ -> Mcss_prng.Rng.int rng num_topics)))
    in
    let workload =
      Workload.create ~event_rates ~interests:(Array.map Array.of_list interests)
    in
    return
      (Problem.create ~workload ~tau:1. ~capacity:1.
         (Problem.linear_costs ~vm_usd:1. ~per_event_usd:0.1)))

let prop_order_matches_merge_sort =
  Helpers.qtest ~count:300 "cbp order = merge-sort order on tied keys, 3 orders"
    (QCheck.make order_problem_gen ~print:(fun p ->
         Format.asprintf "%a" Workload.pp_summary p.Problem.workload))
    (fun p ->
      let w = p.Problem.workload in
      let g =
        Helpers.transpose_rows ~width:(Workload.num_topics w)
          ~rows:(Workload.num_subscribers w) (Workload.interests w)
      in
      List.for_all
        (fun o -> Cbp.order o p g = Order_oracle.order o p g)
        [ Cbp.Arbitrary; Cbp.Expensive_first; Cbp.Heaviest_group_first ])

(* The Alg. 7 estimate alone, on fleets where hosting and non-hosting
   VMs often have exactly equal free capacity. With near-free VMs the
   verdict turns on whether the first most-free VMs already carry the
   topic, so it is sensitive to the order [Array.sort] leaves tied VMs
   in. [Cbp.run] cannot show that order: it decides each group before
   placing any of its pairs, so no VM carries the topic yet and tied VMs
   are interchangeable. *)
let prop_cheaper_to_distribute_matches_oracle =
  Helpers.qtest ~count:300 "Alg. 7 estimate = tuple-sort oracle on tied free capacity"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Mcss_prng.Rng.create seed in
      let pick xs = List.nth xs (Mcss_prng.Rng.int rng (List.length xs)) in
      let w = Helpers.workload ~rates:[ 1.; 2. ] ~interests:[ [ 0; 1 ] ] in
      let a = Allocation.create ~capacity:12. in
      let topic = 1 and ev = pick [ 1.; 2. ] in
      for _ = 1 to 2 + Mcss_prng.Rng.int rng 11 do
        let vm = Allocation.deploy a in
        (* Filler topic 0 at rate 1: [fill] pairs load [fill + 1]. *)
        let fill = pick [ 1; 3; 5 ] in
        Allocation.place a vm ~topic:0 ~ev:1. ~subscribers:(Array.make fill 0) ~from:0
          ~count:fill;
        if Mcss_prng.Rng.int rng 2 = 0 then
          Allocation.place a vm ~topic ~ev ~subscribers:[| 0 |] ~from:0 ~count:1
      done;
      let hosts vm = Allocation.hosts_topic vm topic in
      List.for_all
        (fun vm_usd ->
          let p =
            Problem.create ~workload:w ~tau:1. ~capacity:12.
              (Problem.linear_costs ~vm_usd ~per_event_usd:1.)
          in
          List.for_all
            (fun count ->
              Cbp.cheaper_to_distribute p a ~ev ~count ~hosts
              = Oracle.cheaper_to_distribute p a ~ev ~count ~hosts)
            (List.init 12 (fun i -> i + 1)))
        [ 0.001; 1.; 5. ])

(* ----- pinned plan bytes ----- *)

(* Plan-text MD5s captured before Stage 2 moved onto the flat table
   (tau 100, c3.large, default capacity); they must never move. *)
let pinned_problem trace ~scale ~seed =
  let w = Front.generate ~seed trace ~scale in
  let instance = Result.get_ok (Front.resolve_instance "c3.large") in
  snd (Front.problem_of ~w ~tau:100. ~instance ~scale ~bc_events:None)

let plan_md5 a = Digest.to_hex (Digest.string (Plan_io.to_string a))

let check_ladder_md5s p expected =
  List.iter2
    (fun (name, config) md5 ->
      Alcotest.(check string) name md5 (plan_md5 (Solver.solve ~config p).Solver.allocation))
    Solver.ladder expected

let test_pinned_plans_spotify () =
  let p = pinned_problem `Spotify ~scale:0.002 ~seed:1 in
  check_ladder_md5s p
    [
      "e16405730b135fd9b7d1f8d069912ed6";
      "368d1a36da34a8598d5b16060e626051";
      "52887b27e5363ba3374dbeffef241833";
      "b19b653ef7d06f05c223eb5ebd877bb3";
      "844f6e934b33fccf8fad4b77f1da6ccd";
      "43c9bcb685184b708e41256bbbd9783d";
    ];
  let s = Selection.gsp p in
  Alcotest.(check string) "redundancy k=2" "a461201effe331ef1bbe21bc8021bafe"
    (plan_md5 (fst (Mcss_resilience.Redundancy.place ~k:2 p s)));
  Alcotest.(check string) "best-fit decreasing" "f76d7204f2892c8d6ff25e4652ba3ade"
    (plan_md5 (Baselines.best_fit_decreasing p s))

let test_pinned_plans_twitter () =
  check_ladder_md5s
    (pinned_problem `Twitter ~scale:0.0005 ~seed:4)
    [
      "c50a9e6a2d95d411b03b875e8cd6a512";
      "5c10981831a6c1f7f9936d0b97b050e2";
      "da47db9f77be8e7efb916604787dd974";
      "d4136d2b2ae2b55f5710d86c62648fee";
      "f6fa05892463a1b35c79e53e75bc1fee";
      "670fb8f904b942e0b68bda5e6452369b";
    ]

let suite =
  [
    Alcotest.test_case "ffbp fig1 valid" `Quick test_ffbp_fig1_valid;
    Alcotest.test_case "ffbp splits topics" `Quick test_ffbp_splits_topics;
    Alcotest.test_case "cbp groups topics" `Quick test_cbp_groups_topics;
    Alcotest.test_case "cbp expensive-first order" `Quick test_cbp_expensive_first_order;
    Alcotest.test_case "ffbp infeasible" `Quick test_ffbp_infeasible;
    Alcotest.test_case "cbp infeasible" `Quick test_cbp_infeasible;
    Alcotest.test_case "cheaper-to-distribute obvious cases" `Quick
      test_cheaper_to_distribute_obvious_cases;
    Alcotest.test_case "presets are cumulative" `Quick test_presets_are_cumulative;
    Alcotest.test_case "heaviest-group-first order" `Quick test_heaviest_group_first_order;
    prop_every_packer_is_valid;
    prop_rsp_selection_packs_validly;
    prop_no_empty_vms;
    prop_ffbp_uses_earliest_vm;
    prop_cbp_matches_oracle;
    prop_cheaper_to_distribute_matches_oracle;
    Alcotest.test_case "pinned plan MD5s (spotify 0.002 seed 1)" `Quick
      test_pinned_plans_spotify;
    Alcotest.test_case "pinned plan MD5s (twitter 0.0005 seed 4)" `Quick
      test_pinned_plans_twitter;
    prop_order_matches_merge_sort;
  ]
