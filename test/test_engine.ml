(* Tests for the stateful incremental planning engine and the delta
   codec: surgery preserves validity, drift re-solves are bit-for-bit
   the cold answer, and the evolved caches match from-scratch rebuilds. *)

module Workload = Mcss_workload.Workload
module Problem = Mcss_core.Problem
module Solver = Mcss_core.Solver
module Verifier = Mcss_core.Verifier
module Plan_io = Mcss_core.Plan_io
module Allocation = Mcss_core.Allocation
module Engine = Mcss_engine.Engine
module Delta = Mcss_engine.Delta
module Delta_io = Mcss_engine.Delta_io
module Churn = Mcss_dynamic.Churn

let costs = Problem.linear_costs ~vm_usd:36. ~per_event_usd:0.001

(* Capacity generous enough that a few ticks of 2.5x rate bursts cannot
   make a single pair unplaceable, so the stream stays feasible. *)
let roomy_problem rng =
  let w =
    Helpers.random_workload rng ~num_topics:12 ~num_subscribers:20 ~max_rate:10
      ~max_interests:4
  in
  Problem.create ~workload:w ~tau:25. ~capacity:2000. costs

(* Tight capacity so the solve needs several VMs (for recovery tests). *)
let multi_vm_problem rng =
  let w =
    Helpers.random_workload rng ~num_topics:15 ~num_subscribers:25 ~max_rate:9
      ~max_interests:4
  in
  Problem.create ~workload:w ~tau:20. ~capacity:60. costs

let evolved_problem (p : Problem.t) deltas =
  let w' = Delta.apply p.Problem.workload deltas in
  Problem.create ~workload:w' ~tau:p.Problem.tau ~capacity:p.Problem.capacity
    p.Problem.costs

let check_engine_valid what eng =
  let { Engine.problem = p; selection = s; allocation = a } = Engine.plan eng in
  Helpers.check_bool what true (Verifier.is_valid (Verifier.verify p s a));
  for v = 0 to Workload.num_subscribers p.Problem.workload - 1 do
    if Engine.rem_v eng v > 1e-9 then
      Alcotest.failf "%s: subscriber %d left %g short" what v (Engine.rem_v eng v)
  done;
  for id = 0 to Engine.num_vms eng - 1 do
    if Engine.residual eng id < -1e-9 then
      Alcotest.failf "%s: VM %d over capacity by %g" what id
        (-.Engine.residual eng id)
  done

let test_apply_keeps_plan_valid () =
  let rng = Mcss_prng.Rng.create 42 in
  let p = roomy_problem rng in
  (* Tiny workloads churn a large pair fraction per tick; disable the
     drift fallback so this exercises the surgery path, not the solver. *)
  let eng = Engine.create ~drift_threshold:infinity p in
  check_engine_valid "cold plan valid" eng;
  for i = 1 to 3 do
    let deltas = Churn.tick rng (Churn.scaled 0.2) (Engine.problem eng).Problem.workload in
    let stats = Engine.apply eng deltas in
    Helpers.check_bool "no drift re-solve" false stats.Engine.resolved;
    check_engine_valid (Printf.sprintf "valid after tick %d" i) eng
  done

let test_drift_resolve_is_cold_solve () =
  let rng = Mcss_prng.Rng.create 7 in
  let p = roomy_problem rng in
  let eng = Engine.create ~drift_threshold:0. p in
  let deltas = Churn.tick rng (Churn.scaled 0.2) p.Problem.workload in
  let stats = Engine.apply eng deltas in
  Helpers.check_bool "zero threshold trips" true stats.Engine.resolved;
  let cold = Solver.solve (Engine.problem eng) in
  let plan = Engine.plan eng in
  Helpers.check_bool "selection bit-for-bit" true
    (plan.Engine.selection = cold.Solver.selection);
  Alcotest.(check string)
    "allocation bit-for-bit"
    (Plan_io.to_string cold.Solver.allocation)
    (Plan_io.to_string plan.Engine.allocation)

let test_followers_cache_evolves_exactly () =
  let rng = Mcss_prng.Rng.create 11 in
  let w =
    Helpers.random_workload rng ~num_topics:10 ~num_subscribers:15 ~max_rate:8
      ~max_interests:3
  in
  ignore (Workload.followers w 0);
  let deltas = Churn.tick rng (Churn.scaled 0.3) w in
  let w' = Delta.apply w deltas in
  Helpers.check_bool "cache carried" true (Workload.cached_followers w' <> None);
  (* The evolved index must equal the one a from-scratch workload
     derives from the same interests. *)
  let fresh =
    Workload.create
      ~event_rates:(Array.init (Workload.num_topics w') (Workload.event_rate w'))
      ~interests:
        (Array.init (Workload.num_subscribers w') (fun v ->
             Array.copy (Workload.interests w' v)))
  in
  for t = 0 to Workload.num_topics w' - 1 do
    if Workload.followers w' t <> Workload.followers fresh t then
      Alcotest.failf "followers of topic %d diverged" t
  done

let test_delta_apply_rejects_inconsistency () =
  let w = Helpers.workload ~rates:[ 5.; 3. ] ~interests:[ [ 0 ]; [ 0; 1 ] ] in
  let rejects what deltas =
    match Delta.apply w deltas with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects "double follow" [ Delta.Subscribe { subscriber = 0; topic = 0 } ];
  rejects "unfollow stranger" [ Delta.Unsubscribe { subscriber = 0; topic = 1 } ];
  rejects "topic out of range" [ Delta.Subscribe { subscriber = 0; topic = 7 } ];
  rejects "subscriber out of range" [ Delta.Subscribe { subscriber = 9; topic = 1 } ];
  rejects "non-positive rate" [ Delta.Rate_change { topic = 0; rate = 0. } ];
  rejects "duplicate interests" [ Delta.New_subscriber { interests = [| 1; 1 |] } ];
  (* A consistent batch touching everything still applies. *)
  let w' =
    Delta.apply w
      [
        Delta.New_topic { rate = 4. };
        Delta.Subscribe { subscriber = 0; topic = 2 };
        Delta.Unsubscribe { subscriber = 1; topic = 1 };
        Delta.Rate_change { topic = 0; rate = 6. };
        Delta.New_subscriber { interests = [| 1; 2 |] };
      ]
  in
  Helpers.check_int "topics" 3 (Workload.num_topics w');
  Helpers.check_int "subscribers" 3 (Workload.num_subscribers w');
  Helpers.check_float "rate changed" 6. (Workload.event_rate w' 0);
  Helpers.check_bool "interests sorted" true
    (Workload.interests w' 0 = [| 0; 2 |] && Workload.interests w' 2 = [| 1; 2 |])

let test_fail_rehomes_orphans () =
  let rng = Mcss_prng.Rng.create 23 in
  let p = multi_vm_problem rng in
  let eng = Engine.create p in
  let before = Engine.num_vms eng in
  Helpers.check_bool "needs several VMs" true (before > 1);
  let stats = Engine.fail eng ~failed:[ 0; before ] in
  Helpers.check_int "one real VM lost" 1 stats.Engine.vms_lost;
  Helpers.check_bool "orphans rehomed" true (stats.Engine.pairs_rehomed > 0);
  check_engine_valid "valid after failure" eng

let prop_random_stream_stays_valid =
  Helpers.qtest ~count:40
    "any delta stream: valid plan, cost tracks all-dirty retarget"
    QCheck.(pair small_int (int_bound 2))
    (fun (seed, extra_ticks) ->
      let rng = Mcss_prng.Rng.create seed in
      let p = roomy_problem rng in
      try
        (* Drift disabled so both sides do pure surgery, which makes the
           cost comparison exact rather than tolerance-fudged. [apply]
           re-selects only the dirty subset it computes; the clone
           re-selects every subscriber, so a dirty set missing someone
           whose Stage-1 inputs changed would show up as a cost gap. *)
        let eng = Engine.create ~drift_threshold:infinity p in
        let all_dirty = Engine.of_plan ~drift_threshold:infinity (Engine.plan eng) in
        for _ = 1 to 1 + extra_ticks do
          let w = (Engine.problem eng).Problem.workload in
          let deltas = Churn.tick rng (Churn.scaled 0.2) w in
          ignore (Engine.apply eng deltas);
          ignore
            (Engine.retarget all_dirty (evolved_problem (Engine.problem all_dirty) deltas))
        done;
        let { Engine.problem = p'; selection = s; allocation = a } = Engine.plan eng in
        Verifier.is_valid (Verifier.verify p' s a)
        && Float.abs (Engine.cost eng -. Engine.cost all_dirty)
           <= 1e-6 *. Float.max 1. (Engine.cost all_dirty)
      with Problem.Infeasible _ -> QCheck.assume_fail ())

let prop_drift_resolve_bitexact =
  Helpers.qtest ~count:40 "drift threshold 0: apply answers with the cold solve"
    QCheck.small_int
    (fun seed ->
      let rng = Mcss_prng.Rng.create seed in
      let p = roomy_problem rng in
      try
        let eng = Engine.create ~drift_threshold:0. p in
        let deltas = Churn.tick rng (Churn.scaled 0.1) p.Problem.workload in
        let stats = Engine.apply eng deltas in
        let cold = Solver.solve (Engine.problem eng) in
        let plan = Engine.plan eng in
        stats.Engine.resolved
        && plan.Engine.selection = cold.Solver.selection
        && Plan_io.to_string plan.Engine.allocation
           = Plan_io.to_string cold.Solver.allocation
      with Problem.Infeasible _ -> QCheck.assume_fail ())

let prop_delta_io_roundtrip =
  Helpers.qtest ~count:100 "codec round-trips any generated stream bit-exactly"
    QCheck.small_int
    (fun seed ->
      let rng = Mcss_prng.Rng.create seed in
      let w =
        Helpers.random_workload rng ~num_topics:8 ~num_subscribers:10 ~max_rate:20
          ~max_interests:4
      in
      let deltas =
        Churn.tick rng (Churn.scaled 0.2) w
        (* Awkward rates must survive the text round trip bit-for-bit. *)
        @ [
            Delta.New_topic { rate = 0.1 };
            Delta.New_topic { rate = 1. /. 3. };
            Delta.Rate_change { topic = 0; rate = Float.pi *. 1e7 };
            Delta.New_subscriber { interests = [||] };
          ]
      in
      Delta_io.of_string (Delta_io.to_string deltas) = deltas)

let test_delta_io_rejects_garbage () =
  let rejects what s =
    match Delta_io.of_string s with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Delta_io.Parse_error _ -> ()
  in
  rejects "missing header" "subscribe 0 1\n";
  rejects "bad version" "mcss-deltas 9\n";
  rejects "unknown verb" "mcss-deltas 1\nfollow 0 1\n";
  rejects "arity" "mcss-deltas 1\nsubscribe 0\n";
  rejects "non-positive rate" "mcss-deltas 1\nrate 0 -3\n";
  rejects "interest count mismatch" "mcss-deltas 1\nnew-subscriber 2 4\n"

let suite =
  [
    Alcotest.test_case "apply keeps plan valid" `Quick test_apply_keeps_plan_valid;
    Alcotest.test_case "drift re-solve is the cold solve" `Quick
      test_drift_resolve_is_cold_solve;
    Alcotest.test_case "followers cache evolves exactly" `Quick
      test_followers_cache_evolves_exactly;
    Alcotest.test_case "delta.apply rejects inconsistency" `Quick
      test_delta_apply_rejects_inconsistency;
    Alcotest.test_case "fail rehomes orphans" `Quick test_fail_rehomes_orphans;
    prop_random_stream_stays_valid;
    prop_drift_resolve_bitexact;
    prop_delta_io_roundtrip;
    Alcotest.test_case "delta codec rejects garbage" `Quick
      test_delta_io_rejects_garbage;
  ]
