(* Failure drill: push one seeded fault campaign — a crash, a transient
   outage, a zone-correlated burst and a throttled VM — through the same
   small deployment three ways:

     1. unsupervised: nobody repairs anything, measure the damage;
     2. supervised:   the orchestrator detects dead VMs from metering,
                      replans, and verifies the repaired fleet;
     3. k=2 replicas: zone-diverse redundant placement rides out every
                      fault with zero violations, at a reported cost
                      overhead.

   The program aborts loudly if any of the three stories fails to hold.

   Run with: dune exec examples/failure_drill.exe *)

module Workload = Mcss_workload.Workload
module Problem = Mcss_core.Problem
module Selection = Mcss_core.Selection
module Failure_model = Mcss_resilience.Failure_model
module Orchestrator = Mcss_resilience.Orchestrator
module Redundancy = Mcss_resilience.Redundancy
module Sla = Mcss_resilience.Sla

let zones = 3

let campaign =
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

let () =
  let w =
    Workload.create ~event_rates:[| 20.; 10. |]
      ~interests:[| [| 0; 1 |]; [| 0; 1 |]; [| 1 |] |]
  in
  let p =
    Problem.create ~workload:w ~tau:30. ~capacity:80.
      (Problem.linear_costs ~vm_usd:0.24 ~per_event_usd:0.001)
  in
  Format.printf "workload: %a@." Workload.pp_summary w;
  Printf.printf "campaign (seed %d):\n" campaign.Failure_model.seed;
  List.iter
    (fun f -> Printf.printf "  %s\n" (Failure_model.fault_to_string f))
    campaign.Failure_model.faults;

  let policy = Orchestrator.default_policy in

  (* 1. Nobody watching. *)
  let baseline =
    Orchestrator.run ~policy:{ policy with Orchestrator.recovery = false } ~zones
      ~campaign p
  in
  Format.printf "@.[unsupervised] %a@." Sla.pp_report baseline.Orchestrator.sla;

  (* 2. The orchestrator on duty. *)
  print_newline ();
  print_endline "[supervised]";
  let supervised =
    Orchestrator.run ~policy ~zones ~log:(fun l -> print_endline ("  " ^ l)) ~campaign p
  in
  Format.printf "[supervised] %a@." Sla.pp_report supervised.Orchestrator.sla;
  Printf.printf "[supervised] %d repair(s), %d replacement VM(s), plan verified: %b\n"
    supervised.Orchestrator.repairs supervised.Orchestrator.vms_added
    (supervised.Orchestrator.verified = Ok ());

  (* 3. Replicas instead of repairs. *)
  let selection = Selection.gsp p in
  let redundant, stats = Redundancy.place ~zones ~k:2 p selection in
  (match Redundancy.check p selection ~k:2 redundant with
  | Ok () -> ()
  | Error m -> failwith m);
  Format.printf "@.[k=2] %a@." Redundancy.pp_stats stats;
  let sla2 = Orchestrator.evaluate ~policy ~zones ~campaign p redundant in
  Format.printf "[k=2] %a@." Sla.pp_report sla2;

  (* The three stories, checked. *)
  let vh r = r.Sla.violation_hours in
  if supervised.Orchestrator.verified <> Ok () then
    failwith "supervised drill ended with an unverifiable plan";
  (match List.rev supervised.Orchestrator.epoch_log with
  | last :: _ when last.Sla.violations = 0 -> ()
  | _ -> failwith "supervised drill did not end healthy");
  if not (vh supervised.Orchestrator.sla < vh baseline.Orchestrator.sla) then
    failwith "recovery did not reduce violation-hours";
  if not (vh sla2 < vh baseline.Orchestrator.sla) then
    failwith "redundancy did not reduce violation-hours";
  Printf.printf
    "\nrecovery cut violation-hours %.1f -> %.1f; k=2 (+%.0f%% cost) cut them to %.1f\n"
    (vh baseline.Orchestrator.sla)
    (vh supervised.Orchestrator.sla)
    stats.Redundancy.overhead_vs_base_pct (vh sla2);
  print_endline "all three stories verified."
