module Workload = Mcss_workload.Workload
module Problem = Mcss_core.Problem
module Selection = Mcss_core.Selection
module Allocation = Mcss_core.Allocation
module Verifier = Mcss_core.Verifier
module Simulator = Mcss_sim.Simulator
module Engine = Mcss_engine.Engine
module Rng = Mcss_prng.Rng
module Registry = Mcss_obs.Registry
module Span = Mcss_obs.Span
module Counter = Mcss_obs.Metric.Counter

type policy = {
  epochs : int;
  epoch_duration : float;
  epoch_hours : float;
  tolerance : float;
  hysteresis : int;
  base_backoff : int;
  max_backoff : int;
  jitter : int;
  seed : int;
  recovery : bool;
  max_new_vms : int;
  penalty_usd_per_violation_hour : float;
}

let default_policy =
  {
    epochs = 8;
    epoch_duration = 0.5;
    epoch_hours = 1.0;
    tolerance = 0.;
    hysteresis = 1;
    base_backoff = 1;
    max_backoff = 8;
    jitter = 1;
    seed = 42;
    recovery = true;
    max_new_vms = max_int;
    penalty_usd_per_violation_hour = 50.;
  }

type outcome = {
  plan : Engine.plan;
  sla : Sla.report;
  epoch_log : Sla.epoch list;
  repairs : int;
  repair_attempts : int;
  backoff_skips : int;
  shed : (int * int) list;
  vms_added : int;
  verified : (unit, string) result;
}

let backoff policy rng ~failures =
  if failures < 1 then invalid_arg "Orchestrator.backoff: failures must be >= 1";
  let doubling = failures - 1 in
  let base =
    if doubling >= 30 then policy.max_backoff
    else min policy.max_backoff (policy.base_backoff * (1 lsl doubling))
  in
  base + (if policy.jitter > 0 then Rng.int rng (policy.jitter + 1) else 0)

let check_policy policy =
  if policy.epochs < 1 then invalid_arg "Orchestrator: epochs must be >= 1";
  if not (policy.epoch_duration > 0.) then
    invalid_arg "Orchestrator: epoch_duration must be positive";
  if not (policy.epoch_hours > 0.) then
    invalid_arg "Orchestrator: epoch_hours must be positive";
  if policy.hysteresis < 1 then invalid_arg "Orchestrator: hysteresis must be >= 1"

(* Active outages live in absolute campaign time; each epoch sees the
   intersection with its window, shifted to epoch-local time. *)
let clip_outages active ~t0 ~t1 =
  List.filter_map
    (fun (o : Simulator.outage) ->
      if o.from_time < t1 && o.until_time > t0 then
        Some
          {
            o with
            from_time = Float.max 0. (o.from_time -. t0);
            until_time = Float.min (t1 -. t0) (o.until_time -. t0);
          }
      else None)
    active

let sum = Array.fold_left ( + ) 0

(* Rebuild the fleet without [failed], re-homing orphans best
   benefit-cost ratio first onto survivor free capacity plus at most
   [allowed] fresh VMs; whatever is left over is shed. *)
let rebuild_degraded (plan : Engine.plan) ~failed ~allowed =
  let p = plan.Engine.problem in
  let w = p.Problem.workload in
  let eps = Problem.epsilon p in
  let failed = List.sort_uniq compare failed in
  let fresh = Allocation.create ~capacity:p.Problem.capacity in
  let orphans = ref [] in
  Array.iter
    (fun vm ->
      if List.mem (Allocation.vm_id vm) failed then
        Allocation.iter_vm_pairs vm (fun t v -> orphans := (t, v) :: !orphans)
      else begin
        let nvm = Allocation.deploy fresh in
        Allocation.iter_vm_pairs vm (fun t v ->
            Allocation.place fresh nvm ~topic:t ~ev:(Workload.event_rate w t)
              ~subscribers:[| v |] ~from:0 ~count:1)
      end)
    (Allocation.vms plan.Engine.allocation);
  let ratio (t, v) =
    Selection.benefit_cost_ratio ~ev:(Workload.event_rate w t) ~rem:(Problem.tau_v p v)
  in
  let orphans =
    List.sort
      (fun x y -> match compare (ratio y) (ratio x) with 0 -> compare x y | c -> c)
      !orphans
  in
  let budget = ref allowed and added = ref 0 and shed = ref [] in
  List.iter
    (fun (t, v) ->
      let ev = Workload.event_rate w t in
      let best = ref None in
      Array.iter
        (fun vm ->
          if Allocation.max_pairs_that_fit fresh vm ~topic:t ~ev ~eps > 0 then
            match !best with
            | Some b when Allocation.free fresh b >= Allocation.free fresh vm -> ()
            | _ -> best := Some vm)
        (Allocation.vms fresh);
      match !best with
      | Some vm ->
          Allocation.place fresh vm ~topic:t ~ev ~subscribers:[| v |] ~from:0 ~count:1
      | None ->
          if !budget > 0 && Problem.pair_fits_empty_vm p t then begin
            decr budget;
            incr added;
            let vm = Allocation.deploy fresh in
            Allocation.place fresh vm ~topic:t ~ev ~subscribers:[| v |] ~from:0 ~count:1
          end
          else shed := (t, v) :: !shed)
    orphans;
  ({ plan with Engine.allocation = fresh }, List.rev !shed, !added)

let run ?(obs = Registry.noop) ?(policy = default_policy) ?(zones = 1)
    ?(log = fun _ -> ()) ~campaign p =
  check_policy policy;
  if zones < 1 then invalid_arg "Orchestrator.run: zones must be >= 1";
  Failure_model.validate campaign;
  let logf fmt = Printf.ksprintf log fmt in
  let rng = Rng.create (policy.seed lxor campaign.Failure_model.seed) in
  let plan = ref (Engine.plan (Engine.create p)) in
  let w = p.Problem.workload in
  let num_subs = Workload.num_subscribers w in
  let eps = Problem.epsilon p in
  let d = policy.epoch_duration in
  let faults = Array.of_list campaign.Failure_model.faults in
  let fired = Array.make (Array.length faults) false in
  let active = ref [] in
  let counters = ref (Array.make (Allocation.num_vms (!plan).Engine.allocation) 0) in
  let sla = Sla.create () in
  let repairs = ref 0
  and attempts = ref 0
  and backoff_skips = ref 0
  and shed = ref []
  and vms_added = ref 0
  and failures = ref 0
  and cooldown_until = ref 0 in
  (* Observability: first-suspect bookkeeping feeds the recovery-latency
     histogram (epochs from a VM first turning suspect to the repair that
     clears it); totals flush to counters after the campaign. *)
  let detections = ref 0 and suspect_since = ref None in
  let recovery_latency =
    Registry.histogram obs
      ~buckets:(Mcss_obs.Metric.Histogram.linear ~lo:1. ~hi:10. ~buckets:10)
      ~help:"Epochs from first suspicion to an adopted repair"
      "resilience.recovery_latency_epochs"
  in
  let degraded_rebuilds = ref 0 in
  (* Pending windows follow surviving VMs through the replan's
     renumbering (new id = rank among survivors); windows on the
     replaced VMs die with them. Dead-counters restart from zero. *)
  let remap_after_repair failed_ids =
    let failed_ids = List.sort_uniq compare failed_ids in
    active :=
      List.filter_map
        (fun (o : Simulator.outage) ->
          if List.mem o.vm failed_ids then None
          else
            Some
              { o with vm = o.vm - List.length (List.filter (fun f -> f < o.vm) failed_ids) })
        !active;
    counters := Array.make (Allocation.num_vms (!plan).Engine.allocation) 0
  in
  for e = 0 to policy.epochs - 1 do
    Span.with_ obs ~name:"epoch" @@ fun () ->
    let t0 = float_of_int e *. d and t1 = float_of_int (e + 1) *. d in
    let a = (!plan).Engine.allocation in
    let n = Allocation.num_vms a in
    Array.iteri
      (fun i f ->
        if (not fired.(i)) && Failure_model.start_time f < t1 then begin
          fired.(i) <- true;
          let os = Failure_model.compile_fault f ~num_vms:n ~zones in
          (if os = [] then
             logf "epoch %d: fault %s targets nothing in a %d-VM fleet" e
               (Failure_model.fault_to_string f) n
           else logf "epoch %d: fault %s strikes" e (Failure_model.fault_to_string f));
          active := !active @ os
        end)
      faults;
    let outages = clip_outages !active ~t0 ~t1 in
    let result =
      Simulator.run ~obs p a { Simulator.default_config with duration = d; outages }
    in
    let chk = Simulator.check p a result ~tolerance:policy.tolerance in
    let violations = List.length chk.Simulator.unsatisfied in
    let delivered = sum result.Simulator.delivered in
    let lost = sum result.Simulator.lost in
    if violations = 0 then logf "epoch %d: healthy, %d events delivered" e delivered
    else
      logf "epoch %d: %d/%d subscribers below threshold (%d delivered, %d lost)" e
        violations num_subs delivered lost;
    (* A VM is suspected dead when the plan expects it to move traffic
       but a whole epoch of metering saw none. *)
    let cnt = !counters in
    Array.iteri
      (fun id vm ->
        let load = Allocation.load vm in
        if load > eps && load *. d >= 1. && Simulator.total_vm_traffic result ~vm:id = 0
        then cnt.(id) <- cnt.(id) + 1
        else cnt.(id) <- 0)
      (Allocation.vms a);
    let suspects = ref [] in
    Array.iteri (fun id c -> if c >= policy.hysteresis then suspects := id :: !suspects) cnt;
    let suspects = List.rev !suspects in
    if suspects <> [] then begin
      detections := !detections + List.length suspects;
      if !suspect_since = None then suspect_since := Some e
    end;
    let repaired = ref false in
    if policy.recovery && suspects <> [] && violations > 0 then begin
      if e < !cooldown_until then begin
        incr backoff_skips;
        logf "epoch %d: %d suspect VM(s), holding off until epoch %d (backoff)" e
          (List.length suspects) !cooldown_until
      end
      else begin
        incr attempts;
        let budget_left = max 0 (policy.max_new_vms - !vms_added) in
        let decision =
          try
            (* Re-adopt per repair: a degraded rebuild replaces the plan
               outside any engine. *)
            let eng = Engine.of_plan ~drift_threshold:infinity !plan in
            let stats =
              Span.with_ obs ~name:"replan" (fun () -> Engine.fail eng ~failed:suspects)
            in
            let survivor_cost =
              Problem.cost p
                ~vms:(n - List.length suspects)
                ~bandwidth:
                  (Allocation.total_load a
                  -. List.fold_left
                       (fun acc id -> acc +. Allocation.load (Allocation.vms a).(id))
                       0. suspects)
            in
            let extra_rate = Engine.cost eng -. survivor_cost in
            let penalty_rate =
              policy.penalty_usd_per_violation_hour *. float_of_int violations
            in
            if extra_rate > penalty_rate then `Degrade 0
            else if stats.Engine.vms_added > budget_left then `Degrade budget_left
            else `Full (Engine.plan eng, stats)
          with Problem.Infeasible m -> `Infeasible m
        in
        match decision with
        | `Full (candidate, stats) ->
            plan := candidate;
            vms_added := !vms_added + stats.Engine.vms_added;
            incr repairs;
            repaired := true;
            failures := 0;
            cooldown_until := e + 1;
            (match !suspect_since with
            | Some e0 ->
                Mcss_obs.Metric.Histogram.observe recovery_latency
                  (float_of_int (e - e0 + 1));
                suspect_since := None
            | None -> ());
            remap_after_repair suspects;
            logf "epoch %d: repaired — %d VM(s) replaced by %d fresh, %d pairs re-homed"
              e stats.Engine.vms_lost stats.Engine.vms_added stats.Engine.pairs_rehomed
        | `Degrade allowed ->
            let candidate, newly_shed, added =
              rebuild_degraded !plan ~failed:suspects ~allowed
            in
            plan := candidate;
            vms_added := !vms_added + added;
            shed := !shed @ newly_shed;
            repaired := true;
            incr failures;
            incr degraded_rebuilds;
            cooldown_until := e + 1 + backoff policy rng ~failures:!failures;
            (match !suspect_since with
            | Some e0 ->
                Mcss_obs.Metric.Histogram.observe recovery_latency
                  (float_of_int (e - e0 + 1));
                suspect_since := None
            | None -> ());
            remap_after_repair suspects;
            logf
              "epoch %d: degraded — %d VM(s) dropped, %d fresh allowed, %d pair(s) \
               shed; backing off until epoch %d"
              e (List.length suspects) added (List.length newly_shed) !cooldown_until
        | `Infeasible m ->
            incr failures;
            cooldown_until := e + 1 + backoff policy rng ~failures:!failures;
            logf "epoch %d: repair infeasible (%s); backing off until epoch %d" e m
              !cooldown_until
      end
    end;
    Sla.record sla
      {
        Sla.index = e;
        hours = policy.epoch_hours;
        violations;
        subscribers = num_subs;
        delivered;
        lost;
        repaired = !repaired;
      };
    active := List.filter (fun (o : Simulator.outage) -> o.until_time > t1) !active
  done;
  let verified =
    if !shed <> [] then
      Error (Printf.sprintf "degraded: %d pair(s) shed" (List.length !shed))
    else
      let r =
        Verifier.verify p (!plan).Engine.selection (!plan).Engine.allocation
      in
      match r.Verifier.violations with
      | [] -> Ok ()
      | v :: _ -> Error (Format.asprintf "%a" Verifier.pp_violation v)
  in
  let outcome =
    {
      plan = !plan;
      sla =
        Sla.report ~penalty_usd_per_violation_hour:policy.penalty_usd_per_violation_hour
          sla;
      epoch_log = Sla.entries sla;
      repairs = !repairs;
      repair_attempts = !attempts;
      backoff_skips = !backoff_skips;
      shed = !shed;
      vms_added = !vms_added;
      verified;
    }
  in
  if Registry.enabled obs then begin
    let c name help v = Counter.add (Registry.counter obs ~help name) v in
    c "resilience.epochs" "Campaign epochs executed" policy.epochs;
    c "resilience.suspect_detections" "Suspect-VM detections (VM-epochs over hysteresis)"
      !detections;
    c "resilience.repair_attempts" "Repairs attempted" outcome.repair_attempts;
    c "resilience.repairs_adopted" "Repairs adopted (full or degraded)" outcome.repairs;
    c "resilience.backoff_skips" "Repair opportunities skipped while backing off"
      outcome.backoff_skips;
    c "resilience.degraded_rebuilds" "Degraded rebuilds (orphans re-homed, rest shed)"
      !degraded_rebuilds;
    c "resilience.vms_added" "Fresh VMs provisioned by repairs" outcome.vms_added;
    c "resilience.pairs_shed" "Pairs shed by degraded rebuilds" (List.length outcome.shed);
    c "resilience.violation_epochs" "Epochs with at least one SLA violation"
      (List.length
         (List.filter (fun (ep : Sla.epoch) -> ep.Sla.violations > 0) outcome.epoch_log))
  end;
  outcome

let evaluate ?(obs = Registry.noop) ?(policy = default_policy) ?(zones = 1) ~campaign p a =
  check_policy policy;
  if zones < 1 then invalid_arg "Orchestrator.evaluate: zones must be >= 1";
  Failure_model.validate campaign;
  let d = policy.epoch_duration in
  let n = Allocation.num_vms a in
  let num_subs = Workload.num_subscribers p.Problem.workload in
  let faults = Array.of_list campaign.Failure_model.faults in
  let fired = Array.make (Array.length faults) false in
  let active = ref [] in
  let sla = Sla.create () in
  for e = 0 to policy.epochs - 1 do
    let t0 = float_of_int e *. d and t1 = float_of_int (e + 1) *. d in
    Array.iteri
      (fun i f ->
        if (not fired.(i)) && Failure_model.start_time f < t1 then begin
          fired.(i) <- true;
          active := !active @ Failure_model.compile_fault f ~num_vms:n ~zones
        end)
      faults;
    let outages = clip_outages !active ~t0 ~t1 in
    let result =
      Simulator.run ~obs p a { Simulator.default_config with duration = d; outages }
    in
    let chk = Simulator.check p a result ~tolerance:policy.tolerance in
    Sla.record sla
      {
        Sla.index = e;
        hours = policy.epoch_hours;
        violations = List.length chk.Simulator.unsatisfied;
        subscribers = num_subs;
        delivered = sum result.Simulator.delivered;
        lost = sum result.Simulator.lost;
        repaired = false;
      };
    active := List.filter (fun (o : Simulator.outage) -> o.until_time > t1) !active
  done;
  Sla.report ~penalty_usd_per_violation_hour:policy.penalty_usd_per_violation_hour sla
