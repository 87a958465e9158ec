(* Tests for the churn model and the billing-term pricing extension. *)

module Workload = Mcss_workload.Workload
module Delta = Mcss_engine.Delta
module Churn = Mcss_dynamic.Churn
module Billing = Mcss_pricing.Billing
module Cost_model = Mcss_pricing.Cost_model
module Instance = Mcss_pricing.Instance

let base () =
  let rng = Mcss_prng.Rng.create 31 in
  Helpers.random_workload rng ~num_topics:30 ~num_subscribers:50 ~max_rate:20
    ~max_interests:5

let test_tick_applies_cleanly () =
  let rng = Mcss_prng.Rng.create 1 in
  let w = base () in
  let deltas = Churn.tick rng Churn.default w in
  Helpers.check_bool "produces deltas" true (List.length deltas > 0);
  let w' = Delta.apply w deltas in
  Helpers.check_int "topics grew" (Workload.num_topics w + Churn.default.Churn.new_topics)
    (Workload.num_topics w');
  Helpers.check_int "subscribers grew"
    (Workload.num_subscribers w + Churn.default.Churn.new_subscribers)
    (Workload.num_subscribers w')

let test_tick_deterministic () =
  let w = base () in
  let d1 = Churn.tick (Mcss_prng.Rng.create 9) Churn.default w in
  let d2 = Churn.tick (Mcss_prng.Rng.create 9) Churn.default w in
  Helpers.check_bool "same deltas" true (d1 = d2)

let test_scaled_params () =
  let p = Churn.scaled 0.1 in
  Helpers.check_int "subscribes scaled" 10 p.Churn.subscribes;
  Helpers.check_int "floors at 1" 1 (Churn.scaled 0.001).Churn.new_topics

let test_run_folds () =
  let rng = Mcss_prng.Rng.create 5 in
  let w = base () in
  let calls = ref 0 in
  let final =
    Churn.run rng (Churn.scaled 0.2) ~ticks:4 w (fun w_before deltas ->
        incr calls;
        (* The deltas must be valid against the workload they were
           generated for — [Delta.apply] would raise otherwise. *)
        ignore (Delta.apply w_before deltas))
  in
  Helpers.check_int "four ticks" 4 !calls;
  Helpers.check_bool "workload evolved" true
    (Workload.num_topics final > Workload.num_topics w)

let prop_ticks_always_apply =
  Helpers.qtest ~count:60 "every generated tick applies without error"
    QCheck.(pair small_int small_int)
    (fun (seed, ticks) ->
      let ticks = 1 + (ticks mod 4) in
      let rng = Mcss_prng.Rng.create seed in
      let w =
        Helpers.random_workload rng ~num_topics:10 ~num_subscribers:12 ~max_rate:9
          ~max_interests:3
      in
      let final = Churn.run rng Churn.default ~ticks w (fun _ _ -> ()) in
      Workload.num_pairs final >= 0)

(* ----- billing terms ----- *)

let test_billing_discounts () =
  Helpers.check_float "on-demand" 1.0 (Billing.discount Billing.On_demand);
  Helpers.check_bool "1yr cheaper" true
    (Billing.discount Billing.Reserved_1yr < 1.0);
  Helpers.check_bool "3yr cheapest" true
    (Billing.discount Billing.Reserved_3yr < Billing.discount Billing.Reserved_1yr)

let test_billing_effective_hourly () =
  Helpers.check_float "od c3.large" 0.15
    (Billing.effective_hourly Instance.c3_large Billing.On_demand);
  Helpers.check_float "3yr c3.large" (0.15 *. 0.45)
    (Billing.effective_hourly Instance.c3_large Billing.Reserved_3yr)

let test_billing_of_string () =
  Helpers.check_bool "roundtrip" true
    (List.for_all
       (fun term ->
         Billing.of_string (Format.asprintf "%a" Billing.pp term) = Some term)
       Billing.all);
  Helpers.check_bool "unknown" true (Billing.of_string "spot" = None)

let test_cost_model_uses_term () =
  let od = Cost_model.ec2_2014 () in
  let ri = Cost_model.ec2_2014 ~term:Billing.Reserved_3yr () in
  Helpers.check_float "od vm cost" 360. (Cost_model.vm_cost od 10);
  Helpers.check_float "ri vm cost" (360. *. 0.45) (Cost_model.vm_cost ri 10);
  (* Bandwidth price unaffected by the term. *)
  Helpers.check_float "same bw" (Cost_model.bandwidth_cost od 5e9)
    (Cost_model.bandwidth_cost ri 5e9)

let suite =
  [
    Alcotest.test_case "tick applies cleanly" `Quick test_tick_applies_cleanly;
    Alcotest.test_case "tick deterministic" `Quick test_tick_deterministic;
    Alcotest.test_case "scaled params" `Quick test_scaled_params;
    Alcotest.test_case "run folds" `Quick test_run_folds;
    prop_ticks_always_apply;
    Alcotest.test_case "billing discounts" `Quick test_billing_discounts;
    Alcotest.test_case "billing effective hourly" `Quick test_billing_effective_hourly;
    Alcotest.test_case "billing of_string" `Quick test_billing_of_string;
    Alcotest.test_case "cost model uses term" `Quick test_cost_model_uses_term;
  ]
