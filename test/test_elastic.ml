(* Tests for the elastic capacity planner: seeded rate curves, scenario
   compilation, reservation pricing, autoscaling policies, and the week
   simulator — determinism, positivity, and the slice-by-slice ==
   direct-compile equivalence the whole subsystem rests on. *)

module Workload = Mcss_workload.Workload
module Problem = Mcss_core.Problem
module Verifier = Mcss_core.Verifier
module Allocation = Mcss_core.Allocation
module Engine = Mcss_engine.Engine
module Delta = Mcss_engine.Delta
module Reservation = Mcss_pricing.Reservation
module Instance = Mcss_pricing.Instance
module Cost_model = Mcss_pricing.Cost_model
module Rate_curve = Mcss_elastic.Rate_curve
module Scenario = Mcss_elastic.Scenario
module Autoscaler = Mcss_elastic.Autoscaler
module Week_sim = Mcss_elastic.Week_sim
module Json = Mcss_json.Json

let diurnal ?(amplitude = 0.4) () =
  Rate_curve.Diurnal { amplitude; period_hours = 24.; phase_hours = 0. }

let scenario ?(slices = 12) ?(slice_hours = 2.) ?(seed = 7) ?(coverage = 1.)
    ?(curve = [ diurnal () ]) () =
  { Scenario.slices; slice_hours; seed; coverage; curve }

(* ----- rate curves ----- *)

let test_curve_validate () =
  Rate_curve.validate [ diurnal () ];
  Rate_curve.validate [];
  let bad what c =
    match Rate_curve.validate [ c ] with
    | () -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  bad "amplitude 1"
    (Rate_curve.Diurnal { amplitude = 1.; period_hours = 24.; phase_hours = 0. });
  bad "negative period"
    (Rate_curve.Diurnal { amplitude = 0.2; period_hours = -1.; phase_hours = 0. });
  bad "zero weekend" (Rate_curve.Weekly { weekend_factor = 0. });
  bad "negative count"
    (Rate_curve.Spikes { count = -1; magnitude = 2.; width_hours = 1. })

let test_growth_crossing_zero_rejected () =
  let curve = [ Rate_curve.Growth { per_hour = -0.1 } ] in
  (* Fine over a short horizon, fatal once 1 + per_hour * h crosses 0. *)
  ignore (Rate_curve.realize curve ~seed:1 ~horizon_hours:5.);
  match Rate_curve.realize curve ~seed:1 ~horizon_hours:24. with
  | _ -> Alcotest.fail "expected Invalid_argument past the zero crossing"
  | exception Invalid_argument _ -> ()

let prop_curve_strictly_positive =
  Helpers.qtest ~count:100 "realized curves stay strictly positive"
    QCheck.(triple small_int (float_range 0. 0.99) (float_range 0. 3.))
    (fun (seed, amplitude, magnitude) ->
      let curve =
        [
          Rate_curve.Diurnal
            { amplitude = Float.abs amplitude; period_hours = 24.; phase_hours = 0. };
          Rate_curve.Weekly { weekend_factor = 0.5 };
          Rate_curve.Spikes
            { count = 2; magnitude = 0.1 +. Float.abs magnitude; width_hours = 3. };
        ]
      in
      let r = Rate_curve.realize curve ~seed ~horizon_hours:168. in
      let ok = ref true in
      for h = 0 to 168 do
        if Rate_curve.value r ~hours:(float_of_int h) <= 0. then ok := false
      done;
      !ok)

let prop_diurnal_periodic =
  Helpers.qtest ~count:100 "diurnal component repeats every period"
    QCheck.(pair small_int (float_range 0. 0.9))
    (fun (seed, amplitude) ->
      let period = 24. in
      let r =
        Rate_curve.realize
          [ Rate_curve.Diurnal
              { amplitude; period_hours = period; phase_hours = 0. } ]
          ~seed ~horizon_hours:(3. *. period)
      in
      let ok = ref true in
      for i = 0 to 40 do
        let h = float_of_int i *. 1.7 in
        let a = Rate_curve.value r ~hours:h in
        let b = Rate_curve.value r ~hours:(h +. period) in
        if Float.abs (a -. b) > 1e-9 then ok := false
      done;
      !ok)

let prop_realize_deterministic =
  Helpers.qtest ~count:100 "spike placement is a pure function of the seed"
    QCheck.small_int
    (fun seed ->
      let curve =
        [ Rate_curve.Spikes { count = 3; magnitude = 2.; width_hours = 4. } ]
      in
      let s1 = Rate_curve.spikes (Rate_curve.realize curve ~seed ~horizon_hours:168.) in
      let s2 = Rate_curve.spikes (Rate_curve.realize curve ~seed ~horizon_hours:168.) in
      s1 = s2)

let test_component_round_trip () =
  let components =
    [
      Rate_curve.Diurnal
        { amplitude = 0.37; period_hours = 24.; phase_hours = 1.5 };
      Rate_curve.Weekly { weekend_factor = 0.65 };
      Rate_curve.Spikes { count = 2; magnitude = 2.25; width_hours = 3. };
      Rate_curve.Growth { per_hour = 1e-3 };
    ]
  in
  List.iter
    (fun c ->
      match Rate_curve.(component_of_string (component_to_string c)) with
      | Some c' when c = c' -> ()
      | Some _ -> Alcotest.failf "mangled: %s" (Rate_curve.component_to_string c)
      | None -> Alcotest.failf "unparsed: %s" (Rate_curve.component_to_string c))
    components;
  Helpers.check_bool "junk rejected" true
    (Rate_curve.component_of_string "sawtooth slope 3" = None)

(* ----- scenario files ----- *)

let test_scenario_round_trip () =
  let s =
    scenario ~slices:24 ~slice_hours:1. ~seed:42 ~coverage:0.25
      ~curve:
        [
          diurnal ~amplitude:0.3 ();
          Rate_curve.Weekly { weekend_factor = 0.7 };
          Rate_curve.Spikes { count = 1; magnitude = 1.8; width_hours = 2. };
        ]
      ()
  in
  let s' = Scenario.of_string (Scenario.to_string s) in
  Helpers.check_bool "round-trips exactly" true (s = s')

let test_scenario_parse_errors () =
  let bad what text =
    match Scenario.of_string text with
    | _ -> Alcotest.failf "%s: expected Parse_error" what
    | exception Scenario.Parse_error _ -> ()
  in
  bad "missing magic" "slices 4\nslice-hours 1\n";
  bad "bad magic" "mcss-scenario 9\nslices 4\n";
  bad "junk line" "mcss-scenario 1\nslices 4\nslice-hours 1\nwobble 3\n";
  bad "bad float" "mcss-scenario 1\nslices 4\nslice-hours nope\n";
  (* Well-formed but out of range is Invalid_argument, not Parse_error. *)
  match Scenario.of_string "mcss-scenario 1\nslices 0\nslice-hours 1\nseed 1\n" with
  | _ -> Alcotest.fail "slices 0: expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_scenario_comments_ignored () =
  let s =
    Scenario.of_string
      "mcss-scenario 1\n# a comment\n\nslices 4\nslice-hours 2\nseed 3\n"
  in
  Helpers.check_int "slices" 4 s.Scenario.slices;
  Helpers.check_float "default coverage" 1. s.Scenario.coverage;
  Helpers.check_bool "empty curve" true (s.Scenario.curve = [])

let prop_multiplier_deterministic =
  Helpers.qtest ~count:60 "multipliers are a pure function of the scenario"
    QCheck.(pair small_int small_int)
    (fun (seed, k) ->
      let s =
        scenario ~seed
          ~curve:
            [ diurnal (); Rate_curve.Spikes { count = 2; magnitude = 2.; width_hours = 5. } ]
          ()
      in
      let k = k mod s.Scenario.slices in
      Scenario.multiplier s ~slice:k = Scenario.multiplier s ~slice:k)

let test_affected_subset_size () =
  let s = scenario ~coverage:0.3 () in
  let marked = Scenario.affected s ~num_topics:10 in
  let n = Array.fold_left (fun a b -> if b then a + 1 else a) 0 marked in
  Helpers.check_int "ceil (0.3 * 10)" 3 n;
  let s1 = scenario ~coverage:1. () in
  Helpers.check_bool "coverage 1 marks all" true
    (Array.for_all Fun.id (Scenario.affected s1 ~num_topics:10))

(* Folding the compiled batches through Delta.apply must land on
   exactly the workload the last slice's target rates describe. *)
let prop_compile_matches_direct =
  Helpers.qtest ~count:40 "slice-by-slice compile == direct re-rate"
    QCheck.(pair small_int small_int)
    (fun (wseed, sseed) ->
      let rng = Mcss_prng.Rng.create (wseed + 1) in
      let w =
        Helpers.random_workload rng ~num_topics:10 ~num_subscribers:12
          ~max_rate:9 ~max_interests:3
      in
      let s =
        scenario ~slices:6 ~slice_hours:4. ~seed:sseed ~coverage:0.5
          ~curve:
            [ diurnal (); Rate_curve.Spikes { count = 1; magnitude = 2.; width_hours = 8. } ]
          ()
      in
      let batches = Scenario.compile s w in
      let evolved =
        Array.fold_left (fun w b -> Delta.apply w b) w batches
      in
      let direct = Scenario.workload_at s w ~slice:(s.Scenario.slices - 1) in
      Workload.event_rates evolved = Workload.event_rates direct)

(* The same fold kept inside a live engine: every intermediate plan
   must verify clean. *)
let test_engine_replay_clean () =
  let rng = Mcss_prng.Rng.create 5 in
  let w =
    Helpers.random_workload rng ~num_topics:12 ~num_subscribers:20 ~max_rate:9
      ~max_interests:4
  in
  let s = scenario ~slices:8 ~slice_hours:3. ~seed:9 () in
  let p =
    Problem.create ~workload:w ~tau:25. ~capacity:120. Problem.unit_costs
  in
  let eng = Engine.create p in
  Array.iter
    (fun batch ->
      ignore (Engine.apply eng batch);
      let { Engine.problem; selection; allocation } = Engine.plan eng in
      Helpers.check_bool "slice plan clean" true
        (Verifier.is_valid (Verifier.verify problem selection allocation)))
    (Scenario.compile s w)

(* ----- reservation pricing ----- *)

let test_reservation_pricing () =
  let instance = Instance.c3_large in
  let pricing = Reservation.default ~instance () in
  Reservation.validate pricing;
  let r = Reservation.reserved_hourly pricing in
  let od = Reservation.on_demand_hourly pricing in
  Helpers.check_bool "reserved cheaper than on-demand" true (r < od);
  (* Reserved capacity is billed whether used or not; overflow on top. *)
  Helpers.check_float "idle reservation still billed"
    (10. *. r)
    (Reservation.slice_vm_cost pricing ~reserved:10 ~used:4 ~hours:1.);
  Helpers.check_float "overflow at on-demand"
    ((10. *. r) +. (3. *. od))
    (Reservation.slice_vm_cost pricing ~reserved:10 ~used:13 ~hours:1.);
  let regional = Reservation.default ~instance ~deployment:Reservation.Regional () in
  Helpers.check_bool "regional premium" true
    (Reservation.reserved_hourly regional > r);
  Helpers.check_float "scaling cost scales with actions"
    (3. *. pricing.Reservation.scaling_usd_per_action)
    (Reservation.scaling_cost pricing ~actions:3);
  match Reservation.validate { pricing with Reservation.reserved_discount = 1.5 } with
  | () -> Alcotest.fail "discount > 1: expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ----- autoscaling policies ----- *)

let obs ?(slice = 0) ?(fleet = 10) ?(min_fleet = 10) ?(utilization = 0.95)
    ?(forecast = [||]) () =
  { Autoscaler.slice; fleet; min_fleet; utilization; forecast }

let test_hysteresis_tracks_up_immediately () =
  let p = Autoscaler.hysteresis () in
  let d0 = p.Autoscaler.decide (obs ~slice:0 ~fleet:10 ()) in
  Helpers.check_int "first slice commits to the fleet" 10 d0.Autoscaler.reserved;
  let d1 = p.Autoscaler.decide (obs ~slice:1 ~fleet:14 ()) in
  Helpers.check_int "up immediately" 14 d1.Autoscaler.reserved

let test_hysteresis_waits_on_the_way_down () =
  let p = Autoscaler.hysteresis () in
  ignore (p.Autoscaler.decide (obs ~slice:0 ~fleet:14 ()));
  let d1 = p.Autoscaler.decide (obs ~slice:1 ~fleet:10 ()) in
  Helpers.check_int "one low slice holds" 14 d1.Autoscaler.reserved;
  let d2 = p.Autoscaler.decide (obs ~slice:2 ~fleet:10 ()) in
  Helpers.check_int "second low slice releases" 10 d2.Autoscaler.reserved

let test_hysteresis_consolidates_with_cooldown () =
  let config =
    { Autoscaler.default_hysteresis with Autoscaler.consolidate_cooldown = 3 }
  in
  let p = Autoscaler.hysteresis ~config () in
  let slack k = obs ~slice:k ~fleet:12 ~min_fleet:8 ~utilization:0.5 () in
  let d0 = p.Autoscaler.decide (slack 0) in
  Helpers.check_bool "slack triggers" true d0.Autoscaler.consolidate;
  let d1 = p.Autoscaler.decide (slack 1) in
  Helpers.check_bool "cooldown holds" false d1.Autoscaler.consolidate;
  let d3 = p.Autoscaler.decide (slack 3) in
  Helpers.check_bool "cooldown expires" true d3.Autoscaler.consolidate;
  let tight =
    p.Autoscaler.decide (obs ~slice:7 ~fleet:8 ~min_fleet:8 ~utilization:0.5 ())
  in
  Helpers.check_bool "no slack, no pass" false tight.Autoscaler.consolidate

let lookahead_pricing = Reservation.default ~instance:Instance.c3_large ()

let test_lookahead_holds_through_short_dip () =
  (* A one-slice dip cheaper to ride out than to re-commit twice: make
     the scaling charge dominate one slice of two idle reserved VMs. *)
  let pricing =
    { lookahead_pricing with Reservation.scaling_usd_per_action = 10. }
  in
  let p = Autoscaler.lookahead ~pricing ~slice_hours:1. () in
  ignore (p.Autoscaler.decide (obs ~slice:0 ~fleet:10 ~forecast:[| 8; 10; 10 |] ()));
  let d = p.Autoscaler.decide (obs ~slice:1 ~fleet:8 ~forecast:[| 10; 10; 10 |] ()) in
  Helpers.check_int "dip not worth two actions" 10 d.Autoscaler.reserved

let test_lookahead_releases_sustained_drop () =
  let p = Autoscaler.lookahead ~pricing:lookahead_pricing ~slice_hours:1. () in
  ignore (p.Autoscaler.decide (obs ~slice:0 ~fleet:10 ~forecast:[| 4; 4; 4 |] ()));
  let d = p.Autoscaler.decide (obs ~slice:1 ~fleet:4 ~forecast:[| 4; 4; 4 |] ()) in
  Helpers.check_int "sustained drop releases" 4 d.Autoscaler.reserved

let test_static_never_moves () =
  let p = Autoscaler.static ~fleet:7 in
  let d = p.Autoscaler.decide (obs ~slice:3 ~fleet:12 ~utilization:0.4 ()) in
  Helpers.check_int "reserved pinned" 7 d.Autoscaler.reserved;
  Helpers.check_bool "never consolidates" false d.Autoscaler.consolidate

(* ----- week simulator ----- *)

let week_fixture () =
  let rng = Mcss_prng.Rng.create 11 in
  let w =
    Helpers.random_workload rng ~num_topics:15 ~num_subscribers:30 ~max_rate:9
      ~max_interests:4
  in
  let model = Cost_model.ec2_2014 ~instance:Instance.c3_large () in
  let s = scenario ~slices:8 ~slice_hours:3. ~seed:13 () in
  (w, model, s)

let test_week_sim_runs_clean () =
  let w, model, s = week_fixture () in
  let result = Week_sim.run ~capacity_events:150. ~workload:w ~tau:25. ~model s in
  let runs = result.Week_sim.static :: result.Week_sim.policies in
  Helpers.check_int "static + two adaptive policies" 3 (List.length runs);
  List.iter
    (fun (r : Week_sim.policy_run) ->
      Helpers.check_bool (r.Week_sim.policy ^ " clean") true r.Week_sim.clean;
      Helpers.check_int
        (r.Week_sim.policy ^ " rows")
        s.Scenario.slices
        (Array.length r.Week_sim.rows);
      let by_rows =
        Array.fold_left
          (fun a (row : Week_sim.slice_row) ->
            a +. row.Week_sim.vm_usd +. row.Week_sim.bandwidth_usd
            +. row.Week_sim.scaling_usd)
          0. r.Week_sim.rows
      in
      Helpers.check_float (r.Week_sim.policy ^ " total = sum of rows")
        by_rows r.Week_sim.total_usd)
    runs;
  Helpers.check_bool "oracle no dearer than static" true
    (result.Week_sim.oracle_usd
    <= result.Week_sim.static.Week_sim.total_usd +. 1e-9)

let test_week_sim_deterministic () =
  let w, model, s = week_fixture () in
  let run () =
    let r = Week_sim.run ~capacity_events:150. ~workload:w ~tau:25. ~model s in
    List.map
      (fun (p : Week_sim.policy_run) -> (p.Week_sim.policy, p.Week_sim.total_usd))
      (r.Week_sim.static :: r.Week_sim.policies)
  in
  Helpers.check_bool "two runs agree" true (run () = run ())

let test_week_sim_ledger_parses () =
  let w, model, s = week_fixture () in
  let result = Week_sim.run ~capacity_events:150. ~workload:w ~tau:25. ~model s in
  let path = Filename.temp_file "mcss_ledger" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Week_sim.write_ledger path result;
      let ledger =
        match Json.parse (In_channel.with_open_text path In_channel.input_all) with
        | Ok j -> j
        | Error e -> Alcotest.fail e
      in
      let at keys = List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some ledger) keys in
      Helpers.check_bool "schema tag" true
        (Option.bind (at [ "schema" ]) Json.to_string_opt = Some "mcss-elastic-ledger-1");
      Alcotest.(check (list string)) "one entry per policy, static first"
        (List.map
           (fun (r : Week_sim.policy_run) -> r.Week_sim.policy)
           (result.Week_sim.static :: result.Week_sim.policies))
        (List.filter_map
           (fun p -> Option.bind (Json.member "policy" p) Json.to_string_opt)
           (Option.value ~default:[] (Option.bind (at [ "policies" ]) Json.to_list_opt)));
      Helpers.check_bool "oracle total at 12 digits" true
        (Option.bind (at [ "oracle"; "total_usd" ]) Json.to_float_opt
        = Some (float_of_string (Printf.sprintf "%.12g" result.Week_sim.oracle_usd))))

(* ----- runtime stats (S2) ----- *)

let test_runtime_stats () =
  let stats = Mcss_obs.Runtime_stats.sample () in
  Helpers.check_bool "peak RSS positive on Linux" true
    (stats.Mcss_obs.Runtime_stats.peak_rss_bytes > 0);
  Helpers.check_bool "major words sane" true
    (stats.Mcss_obs.Runtime_stats.gc_major_words >= 0.);
  let json = Json.parse (Json.to_string (Mcss_obs.Runtime_stats.to_json stats)) in
  Helpers.check_bool "json carries the field" true
    (Option.bind (Result.to_option json) (fun j ->
         Option.bind (Json.member "peak_rss_bytes" j) Json.to_int_opt)
    = Some stats.Mcss_obs.Runtime_stats.peak_rss_bytes)

let suite =
  [
    Alcotest.test_case "curve validate" `Quick test_curve_validate;
    Alcotest.test_case "growth crossing zero rejected" `Quick
      test_growth_crossing_zero_rejected;
    prop_curve_strictly_positive;
    prop_diurnal_periodic;
    prop_realize_deterministic;
    Alcotest.test_case "component round-trip" `Quick test_component_round_trip;
    Alcotest.test_case "scenario round-trip" `Quick test_scenario_round_trip;
    Alcotest.test_case "scenario parse errors" `Quick test_scenario_parse_errors;
    Alcotest.test_case "comments ignored" `Quick test_scenario_comments_ignored;
    prop_multiplier_deterministic;
    Alcotest.test_case "affected subset size" `Quick test_affected_subset_size;
    prop_compile_matches_direct;
    Alcotest.test_case "engine replay clean" `Quick test_engine_replay_clean;
    Alcotest.test_case "reservation pricing" `Quick test_reservation_pricing;
    Alcotest.test_case "hysteresis up immediately" `Quick
      test_hysteresis_tracks_up_immediately;
    Alcotest.test_case "hysteresis down cooldown" `Quick
      test_hysteresis_waits_on_the_way_down;
    Alcotest.test_case "hysteresis consolidation cooldown" `Quick
      test_hysteresis_consolidates_with_cooldown;
    Alcotest.test_case "lookahead holds through dip" `Quick
      test_lookahead_holds_through_short_dip;
    Alcotest.test_case "lookahead releases drop" `Quick
      test_lookahead_releases_sustained_drop;
    Alcotest.test_case "static never moves" `Quick test_static_never_moves;
    Alcotest.test_case "week sim runs clean" `Quick test_week_sim_runs_clean;
    Alcotest.test_case "week sim deterministic" `Quick test_week_sim_deterministic;
    Alcotest.test_case "ledger parses" `Quick test_week_sim_ledger_parses;
    Alcotest.test_case "runtime stats" `Quick test_runtime_stats;
  ]
