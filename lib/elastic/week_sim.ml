module Workload = Mcss_workload.Workload
module Problem = Mcss_core.Problem
module Allocation = Mcss_core.Allocation
module Verifier = Mcss_core.Verifier
module Engine = Mcss_engine.Engine
module Cost_model = Mcss_pricing.Cost_model
module Reservation = Mcss_pricing.Reservation
module Clock = Mcss_obs.Clock

type slice_row = {
  slice : int;
  multiplier : float;
  fleet : int;
  reserved : int;
  overflow : int;
  consolidated : bool;
  scaling_actions : int;
  vm_usd : float;
  bandwidth_usd : float;
  scaling_usd : float;
  apply_seconds : float;
  clean : bool;
}

type policy_run = {
  policy : string;
  rows : slice_row array;
  vm_usd : float;
  bandwidth_usd : float;
  scaling_usd : float;
  total_usd : float;
  scaling_actions : int;
  reprovisions : int;
  apply_p95_seconds : float;
  clean : bool;
}

type result = {
  scenario : Scenario.t;
  static_fleet : int;
  static : policy_run;
  policies : policy_run list;
  oracle_usd : float;
  oracle_fleet : int array;
}

(* Re-price an allocation's bandwidth under different event rates: one
   incoming unit per distinct topic on a VM plus one outgoing unit per
   pair, exactly the verifier's recomputation (Eq. 2). *)
let bandwidth_under allocation rates =
  Array.fold_left
    (fun acc vm ->
      let incoming =
        List.fold_left (fun a t -> a +. rates.(t)) 0. (Allocation.topics_on vm)
      in
      let outgoing = ref 0. in
      Allocation.iter_vm_pairs vm (fun t _ -> outgoing := !outgoing +. rates.(t));
      acc +. incoming +. !outgoing)
    0.
    (Allocation.vms allocation)

let finish_run ~policy (rows : slice_row array) =
  let sum f = Array.fold_left (fun a r -> a +. f r) 0. rows in
  {
    policy;
    rows;
    vm_usd = sum (fun r -> r.vm_usd);
    bandwidth_usd = sum (fun r -> r.bandwidth_usd);
    scaling_usd = sum (fun r -> r.scaling_usd);
    total_usd = sum (fun r -> r.vm_usd +. r.bandwidth_usd +. r.scaling_usd);
    scaling_actions =
      Array.fold_left (fun a (r : slice_row) -> a + r.scaling_actions) 0 rows;
    reprovisions = 0;
    apply_p95_seconds =
      Mcss_workload.Stats.nearest_rank (Array.map (fun r -> r.apply_seconds) rows) 0.95;
    clean = Array.for_all (fun (r : slice_row) -> r.clean) rows;
  }

let run ?pricing ?capacity_events ?policies ?(on_slice = fun ~policy:_ _ -> ())
    ~workload ~tau ~model scenario =
  Scenario.validate scenario;
  let pricing =
    match pricing with
    | Some p ->
        Reservation.validate p;
        p
    | None -> Reservation.default ~instance:model.Cost_model.instance ()
  in
  let slices = scenario.Scenario.slices in
  let slice_hours = scenario.Scenario.slice_hours in
  let base_rates = Workload.event_rates workload in
  let num_topics = Array.length base_rates in
  let marked = Scenario.affected scenario ~num_topics in
  let ms = Array.init slices (fun k -> Scenario.multiplier scenario ~slice:k) in
  let rates_at k =
    Array.mapi (fun t r -> if marked.(t) then r *. ms.(k) else r) base_rates
  in
  let batches = Scenario.compile scenario workload in
  let problem_of w = Problem.of_pricing ?capacity_events ~workload:w ~tau model in
  (* Traffic during one slice, in event units: rates are events per
     model horizon, a slice is slice_hours of it. *)
  let bandwidth_usd bw_rate =
    Cost_model.bandwidth_cost model
      (bw_rate *. slice_hours /. model.Cost_model.horizon_hours)
  in
  let base_plan = Engine.plan (Engine.create (problem_of workload)) in

  (* --- static baseline: solve the envelope once, reserve it all. --- *)
  let static_run, static_fleet =
    let env_problem = problem_of (Scenario.envelope_workload scenario workload) in
    let plan = Engine.plan (Engine.create env_problem) in
    let report = Verifier.verify plan.problem plan.selection plan.allocation in
    let clean = Verifier.is_valid report in
    let fleet = Allocation.num_vms plan.allocation in
    let rows =
      Array.init slices (fun k ->
          let row =
            {
              slice = k;
              multiplier = ms.(k);
              fleet;
              reserved = fleet;
              overflow = 0;
              consolidated = false;
              scaling_actions = 0;
              vm_usd =
                Reservation.slice_vm_cost pricing ~reserved:fleet ~used:fleet
                  ~hours:slice_hours;
              bandwidth_usd =
                bandwidth_usd (bandwidth_under plan.allocation (rates_at k));
              scaling_usd = 0.;
              apply_seconds = 0.;
              clean;
            }
          in
          on_slice ~policy:"static" row;
          row)
    in
    (finish_run ~policy:"static" rows, fleet)
  in

  (* --- one tracked engine per adaptive policy. --- *)
  let policies =
    match policies with
    | Some ps -> ps
    | None ->
        [
          Autoscaler.hysteresis ();
          Autoscaler.lookahead ~pricing ~slice_hours ();
        ]
  in
  let track (policy : Autoscaler.t) =
    let engine = ref (Engine.of_plan base_plan) in
    let prev_reserved = ref None in
    let reprovisions = ref 0 in
    let rows =
      Array.init slices (fun k ->
          let t0 = Clock.now_ns () in
          let stats = Engine.apply !engine batches.(k) in
          let plan = Engine.plan !engine in
          let fleet0 = Allocation.num_vms plan.allocation in
          let load = Allocation.total_load plan.allocation in
          let capacity = plan.problem.Problem.capacity in
          let observation =
            {
              Autoscaler.slice = k;
              fleet = fleet0;
              min_fleet = int_of_float (ceil (load /. capacity));
              utilization = load /. (float_of_int fleet0 *. capacity);
              forecast =
                Array.init
                  (min policy.Autoscaler.horizon (slices - 1 - k))
                  (fun j ->
                    max 1
                      (int_of_float
                         (Float.round
                            (float_of_int fleet0 *. ms.(k + 1 + j) /. ms.(k)))));
            }
          in
          let decision = policy.Autoscaler.decide observation in
          let consolidated =
            decision.Autoscaler.consolidate
            &&
            let plan', cstats = Engine.consolidate plan in
            if cstats.Engine.vms_removed > 0 then begin
              engine := Engine.of_plan plan';
              true
            end
            else false
          in
          let apply_seconds = Clock.seconds_since t0 in
          let plan = Engine.plan !engine in
          let fleet = Allocation.num_vms plan.allocation in
          let report = Verifier.verify plan.problem plan.selection plan.allocation in
          let reserved = decision.Autoscaler.reserved in
          let scaling_actions =
            (match !prev_reserved with
            | Some r when r <> reserved -> 1
            | _ -> 0)
            + if consolidated then 1 else 0
          in
          prev_reserved := Some reserved;
          let changed =
            stats.Engine.pairs_added + stats.Engine.pairs_removed
              + stats.Engine.pairs_evicted + stats.Engine.vms_added
              + stats.Engine.vms_removed
              > 0
            || stats.Engine.resolved || consolidated
          in
          if changed then incr reprovisions;
          let row =
            {
              slice = k;
              multiplier = ms.(k);
              fleet;
              reserved;
              overflow = max 0 (fleet - reserved);
              consolidated;
              scaling_actions;
              vm_usd =
                Reservation.slice_vm_cost pricing ~reserved ~used:fleet
                  ~hours:slice_hours;
              bandwidth_usd = bandwidth_usd report.Verifier.total_bandwidth;
              scaling_usd = Reservation.scaling_cost pricing ~actions:scaling_actions;
              apply_seconds;
              clean = Verifier.is_valid report;
            }
          in
          on_slice ~policy:policy.Autoscaler.name row;
          row)
    in
    { (finish_run ~policy:policy.Autoscaler.name rows) with
      reprovisions = !reprovisions }
  in
  let policy_runs = List.map track policies in

  (* --- oracle: free per-slice consolidation, exact commitment. --- *)
  let oracle_usd, oracle_fleet =
    let engine = ref (Engine.of_plan base_plan) in
    let total = ref 0. in
    let fleets =
      Array.init slices (fun k ->
          ignore (Engine.apply !engine batches.(k));
          let plan = Engine.plan !engine in
          let plan =
            let plan', cstats = Engine.consolidate plan in
            if cstats.Engine.vms_removed > 0 then begin
              engine := Engine.of_plan plan';
              plan'
            end
            else plan
          in
          let fleet = Allocation.num_vms plan.allocation in
          total :=
            !total
            +. Reservation.slice_vm_cost pricing ~reserved:fleet ~used:fleet
                 ~hours:slice_hours
            +. bandwidth_usd (Allocation.total_load plan.allocation);
          fleet)
    in
    (!total, fleets)
  in
  {
    scenario;
    static_fleet;
    static = static_run;
    policies = policy_runs;
    oracle_usd;
    oracle_fleet;
  }

(* --- JSON ledger -------------------------------------------------- *)

let ledger_json result =
  let open Mcss_json.Json in
  let s = result.scenario in
  let row r =
    Obj
      [
        ("slice", Int r.slice); ("multiplier", Float r.multiplier); ("fleet", Int r.fleet);
        ("reserved", Int r.reserved); ("overflow", Int r.overflow);
        ("consolidated", Bool r.consolidated); ("scaling_actions", Int r.scaling_actions);
        ("vm_usd", Float r.vm_usd); ("bandwidth_usd", Float r.bandwidth_usd);
        ("scaling_usd", Float r.scaling_usd); ("apply_seconds", Float r.apply_seconds);
        ("clean", Bool r.clean);
      ]
  in
  let policy (run : policy_run) =
    Obj
      [
        ("policy", String run.policy); ("total_usd", Float run.total_usd);
        ("vm_usd", Float run.vm_usd); ("bandwidth_usd", Float run.bandwidth_usd);
        ("scaling_usd", Float run.scaling_usd); ("scaling_actions", Int run.scaling_actions);
        ("reprovisions", Int run.reprovisions);
        ("apply_p95_seconds", Float run.apply_p95_seconds); ("clean", Bool run.clean);
        ("rows", List (Array.to_list (Array.map row run.rows)));
      ]
  in
  Obj
    [
      ("schema", String "mcss-elastic-ledger-1");
      ( "scenario",
        Obj
          [
            ("slices", Int s.Scenario.slices); ("slice_hours", Float s.Scenario.slice_hours);
            ("seed", Int s.Scenario.seed); ("coverage", Float s.Scenario.coverage);
            ( "curve",
              List (List.map (fun c -> String (Rate_curve.component_to_string c)) s.Scenario.curve)
            );
          ] );
      ("static_fleet", Int result.static_fleet);
      ( "oracle",
        Obj
          [
            ("total_usd", Float result.oracle_usd);
            ("fleet", List (Array.to_list (Array.map (fun n -> Int n) result.oracle_fleet)));
          ] );
      ("policies", List (List.map policy (result.static :: result.policies)));
    ]

let write_ledger path result =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Mcss_json.Json.to_string (ledger_json result));
      output_char oc '\n')
