(* Tests for the resilience subsystem: fault campaigns, the supervision
   loop, k-redundant placement and the SLA ledger. *)

module Workload = Mcss_workload.Workload
module Problem = Mcss_core.Problem
module Selection = Mcss_core.Selection
module Allocation = Mcss_core.Allocation
module Cbp = Mcss_core.Cbp
module Simulator = Mcss_sim.Simulator
module Failure_model = Mcss_resilience.Failure_model
module Orchestrator = Mcss_resilience.Orchestrator
module Redundancy = Mcss_resilience.Redundancy
module Sla = Mcss_resilience.Sla

let all_faults =
  [
    Failure_model.Crash { vm = 3; at = 0.25 };
    Failure_model.Transient { vm = 0; from_time = 0.1; until_time = 0.4 };
    Failure_model.Throttle { vm = 2; from_time = 0.5; until_time = 0.75; severity = 0.5 };
    Failure_model.Zone_burst { zone = 1; at = 0.8; duration = 0.15 };
  ]

(* ----- failure model ----- *)

let test_fault_string_round_trip () =
  List.iter
    (fun f ->
      let s = Failure_model.fault_to_string f in
      match Failure_model.fault_of_string s with
      | Ok f' -> Helpers.check_bool ("round trip " ^ s) true (f = f')
      | Error m -> Alcotest.failf "%s did not parse back: %s" s m)
    all_faults

let test_fault_of_string_rejects_garbage () =
  List.iter
    (fun s ->
      match Failure_model.fault_of_string s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error m -> Helpers.check_bool "message names input" true (Helpers.contains ~needle:s m))
    [
      "nonsense";
      "crash:0";
      "crash:x@1";
      "crash:-1@1";
      "transient:0@2-1";       (* inverted window *)
      "throttle:0@1-2*1.5";    (* severity out of range *)
      "throttle:0@1-2*0";
      "zone:0@1+0";            (* nonpositive duration *)
      "zone:0@1-2";            (* wrong separator *)
    ]

let test_validate_rejects_malformed () =
  let rejects f =
    let c = { Failure_model.seed = 0; faults = [ f ] } in
    match Failure_model.validate c with
    | () -> Alcotest.failf "%s should not validate" (Failure_model.fault_to_string f)
    | exception Invalid_argument _ -> ()
  in
  rejects (Failure_model.Crash { vm = -1; at = 0. });
  rejects (Failure_model.Crash { vm = 0; at = -1. });
  rejects (Failure_model.Crash { vm = 0; at = Float.nan });
  rejects (Failure_model.Transient { vm = 0; from_time = 0.5; until_time = 0.2 });
  rejects (Failure_model.Throttle { vm = 0; from_time = 0.1; until_time = 0.2; severity = 0. });
  rejects (Failure_model.Throttle { vm = 0; from_time = 0.1; until_time = 0.2; severity = 1. });
  rejects (Failure_model.Zone_burst { zone = -1; at = 0.; duration = 0.1 });
  rejects (Failure_model.Zone_burst { zone = 0; at = 0.; duration = 0. });
  (* And the good ones pass. *)
  Failure_model.validate { Failure_model.seed = 0; faults = all_faults }

let test_compile_shapes () =
  let c = { Failure_model.seed = 0; faults = all_faults } in
  (* 6 VMs, 3 zones: zone 1 = VMs 1 and 4, so 3 single-VM faults plus a
     2-VM burst. *)
  let outages = Failure_model.compile c ~num_vms:6 ~zones:3 in
  Helpers.check_int "outage count" 5 (List.length outages);
  let crash = List.hd outages in
  Helpers.check_int "crash vm" 3 crash.Simulator.vm;
  Helpers.check_bool "crash is permanent" true (crash.Simulator.until_time = infinity);
  let burst_vms =
    List.filter_map
      (fun o ->
        if o.Simulator.from_time = 0.8 then Some o.Simulator.vm else None)
      outages
  in
  Helpers.check_bool "burst covers zone 1" true (List.sort compare burst_vms = [ 1; 4 ]);
  List.iter
    (fun o ->
      if o.Simulator.from_time = 0.8 then
        Helpers.check_float "burst window" 0.95 o.Simulator.until_time)
    outages

let test_compile_drops_out_of_range () =
  let c = { Failure_model.seed = 0; faults = all_faults } in
  (* Fleet of 2 with 1 zone: the crash on vm 3 and throttle on vm 2 are
     aimed at empty slots; zone 1 does not exist. Only the transient on
     vm 0 survives. *)
  let outages = Failure_model.compile c ~num_vms:2 ~zones:1 in
  Helpers.check_int "only in-range faults compile" 1 (List.length outages);
  Helpers.check_int "the transient" 0 (List.hd outages).Simulator.vm;
  Helpers.check_int "empty fleet compiles to nothing" 0
    (List.length (Failure_model.compile c ~num_vms:0 ~zones:1))

let test_random_campaign_deterministic () =
  let gen () =
    Failure_model.random ~seed:5 ~num_vms:10 ~zones:3 ~crashes:2 ~transients:2
      ~throttles:2 ~zone_bursts:2 ~horizon:4. ()
  in
  let c1 = gen () and c2 = gen () in
  Helpers.check_bool "same seed, same campaign" true (c1 = c2);
  Helpers.check_int "fault count" 8 (List.length c1.Failure_model.faults);
  Failure_model.validate c1;
  let c3 = Failure_model.random ~seed:6 ~num_vms:10 ~zones:3 ~horizon:4. () in
  Helpers.check_bool "different seed, different campaign" true
    (c1.Failure_model.faults <> c3.Failure_model.faults);
  (* Faults come out sorted by start time. *)
  let starts = List.map Failure_model.start_time c1.Failure_model.faults in
  Helpers.check_bool "sorted by start" true (List.sort compare starts = starts)

let test_zone_of_vm () =
  Helpers.check_int "vm 7 of 3 zones" 1 (Failure_model.zone_of_vm ~zones:3 7);
  Helpers.check_int "one zone" 0 (Failure_model.zone_of_vm ~zones:1 42)

(* ----- throttle behaviour through the simulator ----- *)

let test_throttle_thins_not_kills () =
  let p = Helpers.fig1_problem ~capacity:50. () in
  let r = Mcss_core.Solver.solve p in
  let lost severity =
    let outages =
      [ Simulator.outage ~severity ~vm:0 ~from_time:0.25 ~until_time:0.75 () ]
    in
    let res =
      Simulator.run p r.Mcss_core.Solver.allocation
        { Simulator.default_config with Simulator.outages }
    in
    Array.fold_left ( + ) 0 res.Simulator.lost
  in
  let full = lost 1.0 and half = lost 0.5 and light = lost 0.1 in
  Helpers.check_bool "full outage loses most" true (full > half);
  Helpers.check_bool "half loses more than light" true (half > light);
  Helpers.check_bool "light still loses" true (light > 0)

(* ----- redundancy ----- *)

let fig1_80 () =
  let p = Helpers.fig1_problem ~capacity:80. () in
  (p, Selection.gsp p)

let test_redundancy_k1_is_plain_cbp () =
  let p, s = fig1_80 () in
  let a, stats = Redundancy.place ~zones:3 ~k:1 p s in
  let plain = Cbp.run p s Cbp.with_cost_decision in
  Helpers.check_int "same fleet" (Allocation.num_vms plain) (Allocation.num_vms a);
  Helpers.check_int "no replicas" 0 stats.Redundancy.replicas_placed;
  Helpers.check_float "no overhead" 0. stats.Redundancy.overhead_vs_base_pct;
  Helpers.check_bool "audits clean" true (Redundancy.check p s ~k:1 a = Ok ())

let test_redundancy_k2_zone_diverse () =
  let p, s = fig1_80 () in
  let a, stats = Redundancy.place ~zones:3 ~k:2 p s in
  (match Redundancy.check p s ~k:2 a with
  | Ok () -> ()
  | Error m -> Alcotest.failf "audit failed: %s" m);
  Helpers.check_int "every pair replicated" s.Selection.num_pairs
    stats.Redundancy.replicas_placed;
  Helpers.check_int "all pairs zone-diverse" s.Selection.num_pairs
    stats.Redundancy.zone_diverse_pairs;
  Helpers.check_bool "fleet grew" true (stats.Redundancy.vms > stats.Redundancy.base_vms);
  Helpers.check_bool "costs more than k=1" true
    (stats.Redundancy.overhead_vs_base_pct > 0.);
  Helpers.check_bool "LB overhead above base overhead" true
    (stats.Redundancy.overhead_vs_lb_pct >= stats.Redundancy.overhead_vs_base_pct)

let test_redundancy_check_catches_missing_copy () =
  let p, s = fig1_80 () in
  let a, _ = Redundancy.place ~zones:3 ~k:2 p s in
  (* Knock one copy out and the audit must notice the count mismatch. *)
  let rates = Workload.event_rates p.Problem.workload in
  let vm0 = (Allocation.vms a).(0) in
  let first = ref None in
  Allocation.iter_vm_pairs vm0 (fun t v -> if !first = None then first := Some (t, v));
  match !first with
  | None -> Alcotest.fail "vm 0 hosts nothing"
  | Some (t, v) ->
      Helpers.check_bool "pair removed" true
        (Allocation.remove a vm0 ~topic:t ~ev:rates.(t) ~subscriber:v);
      Helpers.check_bool "audit flags missing copy" true
        (Redundancy.check p s ~k:2 a <> Ok ())

let test_redundancy_rejects_bad_k () =
  let p, s = fig1_80 () in
  (match Redundancy.place ~k:0 p s with
  | _ -> Alcotest.fail "k=0 should be rejected"
  | exception Invalid_argument _ -> ());
  match Redundancy.place ~zones:0 ~k:2 p s with
  | _ -> Alcotest.fail "zones=0 should be rejected"
  | exception Invalid_argument _ -> ()

let prop_redundant_placement_audits_clean =
  Helpers.qtest ~count:40 "k=2 placement passes its own audit"
    Helpers.problem_arbitrary (fun p ->
      let s = Selection.gsp p in
      match Redundancy.place ~zones:3 ~k:2 p s with
      | a, stats ->
          Redundancy.check p s ~k:2 a = Ok ()
          && stats.Redundancy.replicas_placed = s.Selection.num_pairs
      | exception Problem.Infeasible _ -> true)

(* ----- SLA ledger ----- *)

let epoch ~index ~violations ?(repaired = false) () =
  {
    Sla.index;
    hours = 1.;
    violations;
    subscribers = 10;
    delivered = 90;
    lost = 10;
    repaired;
  }

let test_sla_arithmetic () =
  let t = Sla.create () in
  List.iteri
    (fun i v -> Sla.record t (epoch ~index:i ~violations:v ~repaired:(i = 2) ()))
    [ 0; 2; 3; 0; 1 ];
  let r = Sla.report ~penalty_usd_per_violation_hour:50. t in
  Helpers.check_int "epochs" 5 r.Sla.epochs;
  Helpers.check_float "horizon" 5. r.Sla.horizon_hours;
  Helpers.check_float "violation-hours" 6. r.Sla.violation_hours;
  Helpers.check_int "violation epochs" 3 r.Sla.violation_epochs;
  Helpers.check_int "worst epoch" 3 r.Sla.worst_epoch_violations;
  Helpers.check_int "repairs" 1 r.Sla.repairs;
  (* Two violation runs: epochs 1-2 (length 2) and epoch 4 (length 1). *)
  Helpers.check_float "mean epochs to recover" 1.5 r.Sla.mean_epochs_to_recover;
  Helpers.check_float "downtime cost" 300. r.Sla.downtime_cost;
  Helpers.check_float "delivered fraction" 0.9 r.Sla.delivered_fraction;
  Helpers.check_int "delivered events" 450 r.Sla.delivered_events

let test_sla_empty_and_healthy () =
  let r = Sla.report (Sla.create ()) in
  Helpers.check_float "no flow = full delivery" 1. r.Sla.delivered_fraction;
  Helpers.check_float "no violations" 0. r.Sla.violation_hours;
  Helpers.check_float "nothing to recover from" 0. r.Sla.mean_epochs_to_recover;
  let t = Sla.create () in
  Sla.record t (epoch ~index:0 ~violations:0 ());
  let r = Sla.report t in
  Helpers.check_float "healthy epoch, zero recovery time" 0. r.Sla.mean_epochs_to_recover

(* ----- orchestrator ----- *)

let tiny_policy =
  { Orchestrator.default_policy with Orchestrator.seed = 42; jitter = 0 }

let test_backoff_schedule () =
  let rng = Mcss_prng.Rng.create 1 in
  let p = { tiny_policy with Orchestrator.base_backoff = 1; max_backoff = 8 } in
  List.iter
    (fun (failures, expect) ->
      Helpers.check_int
        (Printf.sprintf "backoff after %d failures" failures)
        expect
        (Orchestrator.backoff p rng ~failures))
    [ (1, 1); (2, 2); (3, 4); (4, 8); (5, 8); (10, 8) ];
  (* Jitter only ever adds, within its bound. *)
  let pj = { p with Orchestrator.jitter = 3 } in
  for failures = 1 to 6 do
    let b = Orchestrator.backoff pj rng ~failures in
    let base = Orchestrator.backoff p rng ~failures in
    Helpers.check_bool "jitter within bounds" true (b >= base && b <= base + 3)
  done

let drill_campaign =
  {
    Failure_model.seed = 7;
    faults =
      [
        Failure_model.Crash { vm = 0; at = 0.6 };
        Failure_model.Transient { vm = 1; from_time = 1.1; until_time = 1.4 };
        Failure_model.Zone_burst { zone = 0; at = 2.0; duration = 0.3 };
        Failure_model.Throttle { vm = 1; from_time = 2.6; until_time = 2.9; severity = 0.5 };
      ];
  }

let test_quiet_campaign_is_uneventful () =
  let p = Helpers.fig1_problem ~capacity:80. () in
  let campaign = { Failure_model.seed = 1; faults = [] } in
  let o = Orchestrator.run ~policy:tiny_policy ~zones:3 ~campaign p in
  Helpers.check_int "no repairs" 0 o.Orchestrator.repairs;
  Helpers.check_int "no attempts" 0 o.Orchestrator.repair_attempts;
  Helpers.check_float "no violations" 0. o.Orchestrator.sla.Sla.violation_hours;
  Helpers.check_float "full delivery" 1. o.Orchestrator.sla.Sla.delivered_fraction;
  Helpers.check_bool "verified" true (o.Orchestrator.verified = Ok ())

let test_supervised_drill_recovers () =
  (* The acceptance drill: a fixed seeded campaign with a crash, a
     transient, a zone burst and a throttle. Supervised recovery must end
     healthy and verified with strictly fewer violation-hours than the
     observe-only baseline; k=2 replicas must also beat the baseline. *)
  let p = Helpers.fig1_problem ~capacity:80. () in
  let baseline =
    Orchestrator.run
      ~policy:{ tiny_policy with Orchestrator.recovery = false }
      ~zones:3 ~campaign:drill_campaign p
  in
  let supervised =
    Orchestrator.run ~policy:tiny_policy ~zones:3 ~campaign:drill_campaign p
  in
  Helpers.check_bool "baseline suffers" true
    (baseline.Orchestrator.sla.Sla.violation_hours > 0.);
  Helpers.check_int "baseline never repairs" 0 baseline.Orchestrator.repairs;
  Helpers.check_bool "supervised repairs" true (supervised.Orchestrator.repairs >= 1);
  Helpers.check_bool "recovery reduces violation-hours" true
    (supervised.Orchestrator.sla.Sla.violation_hours
    < baseline.Orchestrator.sla.Sla.violation_hours);
  Helpers.check_bool "repaired plan verifies" true
    (supervised.Orchestrator.verified = Ok ());
  Helpers.check_bool "nothing shed" true (supervised.Orchestrator.shed = []);
  (match List.rev supervised.Orchestrator.epoch_log with
  | last :: _ -> Helpers.check_int "drill ends healthy" 0 last.Sla.violations
  | [] -> Alcotest.fail "empty epoch log");
  (* Same campaign, k=2 zone-diverse replicas, no recovery at all. *)
  let s = Selection.gsp p in
  let redundant, _ = Redundancy.place ~zones:3 ~k:2 p s in
  let sla2 =
    Orchestrator.evaluate ~policy:tiny_policy ~zones:3 ~campaign:drill_campaign p
      redundant
  in
  Helpers.check_bool "replicas beat the unsupervised baseline" true
    (sla2.Sla.violation_hours < baseline.Orchestrator.sla.Sla.violation_hours)

let test_determinism () =
  let p = Helpers.fig1_problem ~capacity:80. () in
  let run () = Orchestrator.run ~policy:tiny_policy ~zones:3 ~campaign:drill_campaign p in
  let a = run () and b = run () in
  Helpers.check_bool "same outcome" true
    (a.Orchestrator.sla = b.Orchestrator.sla
    && a.Orchestrator.repairs = b.Orchestrator.repairs
    && a.Orchestrator.vms_added = b.Orchestrator.vms_added
    && List.map (fun (e : Sla.epoch) -> e.Sla.violations) a.Orchestrator.epoch_log
       = List.map (fun (e : Sla.epoch) -> e.Sla.violations) b.Orchestrator.epoch_log)

let test_budget_zero_blocks_repair () =
  let p = Helpers.fig1_problem ~capacity:80. () in
  let o =
    Orchestrator.run
      ~policy:{ tiny_policy with Orchestrator.max_new_vms = 0 }
      ~zones:3 ~campaign:drill_campaign p
  in
  Helpers.check_int "no replacement VMs deployed" 0 o.Orchestrator.vms_added

let suite =
  [
    Alcotest.test_case "fault string round trip" `Quick test_fault_string_round_trip;
    Alcotest.test_case "fault parser rejects garbage" `Quick
      test_fault_of_string_rejects_garbage;
    Alcotest.test_case "validate rejects malformed" `Quick test_validate_rejects_malformed;
    Alcotest.test_case "compile shapes" `Quick test_compile_shapes;
    Alcotest.test_case "compile drops out-of-range" `Quick test_compile_drops_out_of_range;
    Alcotest.test_case "random campaign deterministic" `Quick
      test_random_campaign_deterministic;
    Alcotest.test_case "zone of vm" `Quick test_zone_of_vm;
    Alcotest.test_case "throttle thins, not kills" `Quick test_throttle_thins_not_kills;
    Alcotest.test_case "redundancy k=1 is plain CBP" `Quick test_redundancy_k1_is_plain_cbp;
    Alcotest.test_case "redundancy k=2 zone-diverse" `Quick test_redundancy_k2_zone_diverse;
    Alcotest.test_case "redundancy audit catches corruption" `Quick
      test_redundancy_check_catches_missing_copy;
    Alcotest.test_case "redundancy rejects bad k/zones" `Quick test_redundancy_rejects_bad_k;
    prop_redundant_placement_audits_clean;
    Alcotest.test_case "sla arithmetic" `Quick test_sla_arithmetic;
    Alcotest.test_case "sla empty and healthy" `Quick test_sla_empty_and_healthy;
    Alcotest.test_case "backoff schedule" `Quick test_backoff_schedule;
    Alcotest.test_case "quiet campaign uneventful" `Quick test_quiet_campaign_is_uneventful;
    Alcotest.test_case "supervised drill recovers" `Quick test_supervised_drill_recovers;
    Alcotest.test_case "drill is deterministic" `Quick test_determinism;
    Alcotest.test_case "zero budget blocks repair" `Quick test_budget_zero_blocks_repair;
  ]
