(* Tests for outage recovery and heterogeneous right-sizing. *)

module Workload = Mcss_workload.Workload
module Problem = Mcss_core.Problem
module Allocation = Mcss_core.Allocation
module Verifier = Mcss_core.Verifier
module Solver = Mcss_core.Solver
module Right_size = Mcss_core.Right_size
module Instance = Mcss_pricing.Instance
module Billing = Mcss_pricing.Billing
module Engine = Mcss_engine.Engine

let plan_for p = Engine.plan (Engine.create p)

let valid (plan : Engine.plan) =
  Verifier.is_valid
    (Verifier.verify plan.Engine.problem plan.Engine.selection plan.Engine.allocation)

(* The input-preserving repair: adopt (clone) the plan, fail the VMs. *)
let repair plan ~failed =
  let eng = Engine.of_plan ~drift_threshold:infinity plan in
  let stats = Engine.fail eng ~failed in
  (Engine.plan eng, stats)

let test_replan_after_one_failure () =
  let p = Helpers.fig1_problem ~capacity:50. () in
  let plan = plan_for p in
  Helpers.check_int "three VMs initially" 3 (Allocation.num_vms plan.Engine.allocation);
  let plan', stats = repair plan ~failed:[ 0 ] in
  Helpers.check_int "one lost" 1 stats.Engine.vms_lost;
  Helpers.check_bool "pairs rehomed" true (stats.Engine.pairs_rehomed > 0);
  Helpers.check_bool "recovered plan verifies" true (valid plan');
  (* Input untouched. *)
  Helpers.check_int "input intact" 3 (Allocation.num_vms plan.Engine.allocation)

let test_replan_all_failed () =
  let p = Helpers.fig1_problem ~capacity:50. () in
  let plan = plan_for p in
  let plan', stats = repair plan ~failed:[ 0; 1; 2 ] in
  Helpers.check_int "all lost" 3 stats.Engine.vms_lost;
  Helpers.check_int "all rehomed" 5 stats.Engine.pairs_rehomed;
  Helpers.check_bool "rebuilt from nothing" true (valid plan')

let test_replan_unknown_ids_ignored () =
  let p = Helpers.fig1_problem ~capacity:50. () in
  let plan = plan_for p in
  let plan', stats = repair plan ~failed:[ 99; -1 ] in
  Helpers.check_int "nothing lost" 0 stats.Engine.vms_lost;
  Helpers.check_int "nothing rehomed" 0 stats.Engine.pairs_rehomed;
  Helpers.check_bool "still valid" true (valid plan')

let test_replan_then_second_failure () =
  (* Stats are per-call: a second failure right after a repair counts
     only its own damage, not the first one's again. *)
  let p = Helpers.fig1_problem ~capacity:50. () in
  let plan = plan_for p in
  let plan1, stats1 = repair plan ~failed:[ 0 ] in
  Helpers.check_bool "first repair verifies" true (valid plan1);
  let plan2, stats2 = repair plan1 ~failed:[ 0 ] in
  Helpers.check_int "second failure loses one VM" 1 stats2.Engine.vms_lost;
  Helpers.check_bool "second repair verifies" true (valid plan2);
  let total = stats1.Engine.pairs_rehomed + stats2.Engine.pairs_rehomed in
  Helpers.check_bool "no double counting" true
    (total <= 2 * Mcss_workload.Workload.num_pairs p.Problem.workload);
  (* Replaying the same failure on the untouched input is idempotent. *)
  let _, stats1' = repair plan ~failed:[ 0 ] in
  Helpers.check_int "replay: same vms lost" stats1.Engine.vms_lost stats1'.Engine.vms_lost;
  Helpers.check_int "replay: same pairs rehomed" stats1.Engine.pairs_rehomed
    stats1'.Engine.pairs_rehomed;
  Helpers.check_int "replay: same vms added" stats1.Engine.vms_added
    stats1'.Engine.vms_added

let prop_recovery_always_valid =
  Helpers.qtest ~count:60 "recovery from random failures keeps plans valid"
    Helpers.problem_arbitrary (fun p ->
      let plan = plan_for p in
      let n = Allocation.num_vms plan.Engine.allocation in
      if n = 0 then true
      else begin
        (* Kill every third VM. *)
        let failed = List.filter (fun i -> i mod 3 = 0) (List.init n (fun i -> i)) in
        let plan', stats = repair plan ~failed in
        valid plan' && stats.Engine.vms_lost = List.length failed
      end)

(* ----- right-sizing ----- *)

let test_right_size_downsizes_tail () =
  (* Two full VMs and one nearly empty: the tail VM drops to the smallest
     type that fits. Allocation computed against a c3.2xlarge baseline. *)
  let a = Allocation.create ~capacity:1000. in
  let fill vm load topic =
    Allocation.place a vm ~topic ~ev:(load /. 2.) ~subscribers:[| 0 |] ~from:0 ~count:1
  in
  let b0 = Allocation.deploy a and b1 = Allocation.deploy a and b2 = Allocation.deploy a in
  fill b0 1000. 0;
  fill b1 900. 1;
  fill b2 100. 2;
  let r =
    Right_size.solve a ~baseline:Instance.c3_2xlarge ~catalogue:Instance.catalogue
      ~horizon_hours:240. ~term:Billing.On_demand
  in
  Helpers.check_int "three assignments" 3 (List.length r.Right_size.assignments);
  let of_vm id =
    (List.find (fun asg -> asg.Right_size.vm = id) r.Right_size.assignments)
      .Right_size.instance.Instance.name
  in
  Helpers.check_bool "full VM keeps the big type" true (of_vm 0 = "c3.2xlarge");
  (* 100/1000 of a 256-mbps baseline = 25.6 mbps -> c3.large (64) fits. *)
  Alcotest.(check string) "tail VM downsized" "c3.large" (of_vm 2);
  Helpers.check_bool "saves money" true (r.Right_size.mixed_cost < r.Right_size.uniform_cost);
  Helpers.check_bool "saving consistent" true (r.Right_size.saving_pct > 0.)

let test_right_size_never_violates_capacity () =
  let rng = Mcss_prng.Rng.create 99 in
  let p =
    Helpers.random_problem rng ~num_topics:60 ~num_subscribers:150 ~max_rate:30
      ~max_interests:6 ~tau:60. ~capacity:500.
  in
  let r = Solver.solve p in
  let rs =
    Right_size.solve r.Solver.allocation ~baseline:Instance.c3_8xlarge
      ~catalogue:Instance.catalogue ~horizon_hours:240. ~term:Billing.On_demand
  in
  List.iter
    (fun asg ->
      let cap =
        500. *. asg.Right_size.instance.Instance.bandwidth_mbps
        /. Instance.c3_8xlarge.Instance.bandwidth_mbps
      in
      if asg.Right_size.load > cap +. 1e-6 then
        Alcotest.failf "VM %d overloaded: %g > %g" asg.Right_size.vm asg.Right_size.load cap)
    rs.Right_size.assignments;
  Helpers.check_bool "never more expensive" true
    (rs.Right_size.mixed_cost <= rs.Right_size.uniform_cost +. 1e-9)

let test_right_size_rejects_empty_catalogue () =
  let a = Allocation.create ~capacity:100. in
  Alcotest.check_raises "empty" (Invalid_argument "Right_size.solve: empty catalogue")
    (fun () ->
      ignore
        (Right_size.solve a ~baseline:Instance.c3_large ~catalogue:[] ~horizon_hours:1.
           ~term:Billing.On_demand))

let test_right_size_pp () =
  let a = Allocation.create ~capacity:100. in
  let vm = Allocation.deploy a in
  Allocation.place a vm ~topic:0 ~ev:10. ~subscribers:[| 0 |] ~from:0 ~count:1;
  let r =
    Right_size.solve a ~baseline:Instance.c3_large ~catalogue:Instance.catalogue
      ~horizon_hours:240. ~term:Billing.On_demand
  in
  let s = Format.asprintf "%a" Right_size.pp r in
  Helpers.check_bool "mentions mix" true (Helpers.contains ~needle:"c3.large" s)

let suite =
  [
    Alcotest.test_case "replan after one failure" `Quick test_replan_after_one_failure;
    Alcotest.test_case "replan all failed" `Quick test_replan_all_failed;
    Alcotest.test_case "replan unknown ids" `Quick test_replan_unknown_ids_ignored;
    Alcotest.test_case "replan then second failure" `Quick test_replan_then_second_failure;
    prop_recovery_always_valid;
    Alcotest.test_case "right-size downsizes tail" `Quick test_right_size_downsizes_tail;
    Alcotest.test_case "right-size capacity safe" `Quick test_right_size_never_violates_capacity;
    Alcotest.test_case "right-size rejects empty catalogue" `Quick
      test_right_size_rejects_empty_catalogue;
    Alcotest.test_case "right-size pp" `Quick test_right_size_pp;
  ]
