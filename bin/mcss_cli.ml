(* The mcss command-line tool: generate traces, solve MCSS instances,
   compute lower bounds, analyse traces, and replay allocations through
   the simulator.

     mcss generate --trace twitter --scale 0.002 -o twitter.wl
     mcss solve -w twitter.wl --tau 100 --ladder
     mcss lower-bound -w twitter.wl --tau 100
     mcss analyze -w twitter.wl -o analysis/
     mcss simulate -w twitter.wl --tau 100 --poisson 7

   One error rule holds for every subcommand. An error the program
   detects (a bad flag value, a missing or corrupt file, an infeasible
   problem, an [Invalid_argument] or [Sys_error] raised anywhere in a
   body) is one "mcss: <msg>" line on stderr and exit 1; cmdliner's own
   parse errors exit 124. The only other codes are deliberate: query's
   2 and 3 and pump's 4. *)

module Workload = Mcss_workload.Workload
module Stats = Mcss_workload.Stats
module Wio = Mcss_workload.Wio
module Instance = Mcss_pricing.Instance
module Cost_model = Mcss_pricing.Cost_model
module Problem = Mcss_core.Problem
module Solver = Mcss_core.Solver
module Allocation = Mcss_core.Allocation
module Verifier = Mcss_core.Verifier
module Lower_bound = Mcss_core.Lower_bound
module Simulator = Mcss_sim.Simulator
module Table = Mcss_report.Table
module Series = Mcss_report.Series
module Registry = Mcss_obs.Registry
module Span = Mcss_obs.Span
module Sink = Mcss_obs.Sink
module Failure_model = Mcss_resilience.Failure_model
module Orchestrator = Mcss_resilience.Orchestrator
module Redundancy = Mcss_resilience.Redundancy
module Sla = Mcss_resilience.Sla
module Json = Mcss_json.Json
module Serve_protocol = Mcss_serve.Protocol
module Serve_service = Mcss_serve.Service
module Serve_server = Mcss_serve.Server
module Serve_client = Mcss_serve.Client
module Serve_journal = Mcss_serve.Journal
module Serve_breaker = Mcss_serve.Breaker
module Serve_retry = Mcss_serve.Retry
module Serve_replication = Mcss_serve.Replication
module Serve_router = Mcss_serve.Router
module Serve_nemesis = Mcss_serve.Nemesis
module Build_info = Mcss_serve.Build_info
module Front = Mcss_front.Front
module Engine = Mcss_engine.Engine
module Reservation = Mcss_pricing.Reservation
module Scenario = Mcss_elastic.Scenario
module Autoscaler = Mcss_elastic.Autoscaler
module Week_sim = Mcss_elastic.Week_sim
module Delta_io = Mcss_engine.Delta_io
module Dp_cluster = Mcss_dataplane.Cluster
module Dp_pump = Mcss_dataplane.Pump
module Dp_control = Mcss_dataplane.Control
module Dp_ledger = Mcss_dataplane.Ledger
module Dp_reconcile = Mcss_dataplane.Reconcile

open Cmdliner

let setup_logs style_renderer level =
  Fmt_tty.setup_std_outputs ?style_renderer ();
  Logs.set_level level;
  Logs.set_reporter (Logs_fmt.reporter ())

let setup_logs_term =
  Term.(const setup_logs $ Fmt_cli.style_renderer () $ Logs_cli.level ())

(* ----- shared arguments ----- *)

let workload_file =
  let doc = "Workload file (mcss-workload format, see Wio)." in
  Arg.(value & opt (some string) None & info [ "w"; "workload" ] ~docv:"FILE" ~doc)

let trace_arg =
  let doc = "Synthetic trace family: $(b,spotify) or $(b,twitter)." in
  Arg.(value & opt (some (enum [ ("spotify", `Spotify); ("twitter", `Twitter) ])) None
       & info [ "trace" ] ~docv:"NAME" ~doc)

let scale_arg =
  let doc = "Trace scale relative to the published full-size trace." in
  Arg.(value & opt float 0.002 & info [ "scale" ] ~docv:"F" ~doc)

let seed_arg =
  let doc = "Generator seed." in
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N" ~doc)

let domains_arg =
  let doc =
    "Worker domains for Stage-1 selection and group construction. \
     Deterministic: any value yields a bit-identical plan."
  in
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc)

let tau_arg =
  let doc = "Satisfaction threshold: events per horizon per subscriber." in
  Arg.(value & opt float 100. & info [ "tau" ] ~docv:"F" ~doc)

let instance_arg =
  let doc =
    Printf.sprintf "EC2 instance type (%s)."
      (String.concat ", " (List.map (fun i -> i.Instance.name) Instance.catalogue))
  in
  Arg.(value & opt string "c3.large" & info [ "instance" ] ~docv:"NAME" ~doc)

let bc_events_arg =
  let doc =
    "Per-VM capacity in events per horizon. Default: the utilisation-consistent \
     5e7 x scale x (mbps/64) used by the benchmarks."
  in
  Arg.(value & opt (some float) None & info [ "bc-events" ] ~docv:"F" ~doc)

let config_arg =
  let doc =
    "Solver configuration by ladder name (default: the full \
     \"(e) +cost-decision\"); a served solve also accepts $(b,parallel)."
  in
  Arg.(value & opt string "(e) +cost-decision" & info [ "config" ] ~docv:"NAME" ~doc)

let plan_arg =
  Arg.(required & opt (some string) None & info [ "plan" ] ~docv:"FILE"
         ~doc:"Solved plan (mcss-plan format, from $(b,mcss solve --save-plan)).")

let plan_opt_arg =
  Arg.(value & opt (some string) None & info [ "plan" ] ~docv:"FILE"
         ~doc:"Start from this saved plan (mcss-plan format) instead of solving.")

let deltas_arg =
  Arg.(required & opt (some string) None & info [ "deltas" ] ~docv:"FILE"
         ~doc:"Delta batch to apply (mcss-deltas format, see Delta_io).")

let deltas_opt_arg =
  Arg.(value & opt (some string) None & info [ "deltas" ] ~docv:"FILE"
         ~doc:"Delta batch (mcss-deltas format) to evolve the workload and plan \
               with through the incremental engine.")

let save_plan_arg =
  Arg.(value & opt (some string) None & info [ "save-plan" ] ~docv:"FILE"
         ~doc:"Write the resulting plan to this file.")

let out_arg =
  Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Output file.")

let listen_arg ~default =
  Arg.(value & opt string default & info [ "l"; "listen" ] ~docv:"ADDR"
         ~doc:"Listen address: $(b,unix:PATH), $(b,HOST:PORT), $(b,:PORT) or a \
               bare port.")

let quiet_arg =
  Arg.(value & flag & info [ "silent" ] ~doc:"No lifecycle or progress logging.")

let duration_arg =
  Arg.(value & opt float 1.0 & info [ "duration" ] ~docv:"F"
         ~doc:"Horizons of load to publish through the plan.")

let campaign_seed_arg =
  Arg.(value & opt int 1 & info [ "campaign-seed" ] ~docv:"N"
         ~doc:"Seed for the random fault campaign (and the backoff jitter).")

let epochs_arg =
  Arg.(value & opt int 8 & info [ "epochs" ] ~docv:"N"
         ~doc:"Supervision epochs to run.")

let zones_arg =
  Arg.(value & opt int 3 & info [ "zones" ] ~docv:"N"
         ~doc:"Failure zones (VM b lives in zone b mod N).")

let metrics_out_arg =
  let doc =
    "Record solver/simulator metrics and span timings during the run and \
     write them to $(docv) as JSON lines (see the obs library)."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

(* An enabled registry only when someone will read it; [flush] writes the
   JSONL snapshot (and logs the path) after the command's work is done. *)
let obs_of metrics_out =
  match metrics_out with None -> Registry.noop | Some _ -> Registry.create ()

let flush_metrics obs metrics_out =
  match metrics_out with
  | None -> ()
  | Some path ->
      Sink.write_jsonl obs ~path;
      Printf.printf "metrics written to %s\n" path

(* ----- errors ----- *)

(* An error the program detects: one line on stderr and exit 1. A body
   may also just raise [Invalid_argument], [Sys_error] or
   [Problem.Infeasible]; the handler at the bottom of this file prints
   those the same way. *)
let die fmt = Printf.ksprintf (fun m -> prerr_endline ("mcss: " ^ m); exit 1) fmt

let or_die = function Ok x -> x | Error e -> die "%s" e
let check ok msg = if not ok then die "%s" msg

let unix_message e detail =
  Unix.error_message e ^ if detail = "" then "" else " (" ^ detail ^ ")"

let require_plan ~workload path = or_die (Front.load_plan ~workload path)

let require_deltas path =
  try Delta_io.load path with Delta_io.Parse_error msg -> die "%s: %s" path msg

let require_config name = or_die (Front.config name)

(* ----- the problem ----- *)

let load_workload file trace scale seed =
  (match (file, trace) with
  | Some path, _ -> Logs.info (fun m -> m "loading workload from %s" path)
  | None, Some _ ->
      Logs.info (fun m -> m "generating synthetic trace at scale %g" scale)
  | None, None -> ());
  or_die (Front.load_workload ~file ~trace ~scale ~seed)

(* The workload named by -w/--trace/--scale/--seed, for [analyze]. The
   value is lazy: a body forces it after the logs are set up. *)
let workload_term =
  let make file trace scale seed =
    lazy (load_workload file trace (or_die (Front.validate_scale scale)) seed)
  in
  Term.(const make $ workload_file $ trace_arg $ scale_arg $ seed_arg)

(* The MCSS instance every solving subcommand runs: the workload, the
   cost model and the problem it prices. Forcing it checks --scale,
   --tau, --bc-events and --instance before any file is opened, then
   loads or generates the workload. *)
let problem_term =
  let make file trace scale seed tau instance bc_events =
    lazy
      (let scale = or_die (Front.validate_scale scale) in
       let tau = or_die (Front.validate_tau tau) in
       let bc_events = Option.map (fun bc -> or_die (Front.validate_bc_events bc)) bc_events in
       let instance = or_die (Front.resolve_instance instance) in
       let w = load_workload file trace scale seed in
       let model, p = Front.problem_of ~w ~tau ~instance ~scale ~bc_events in
       (w, model, p))
  in
  Term.(
    const make $ workload_file $ trace_arg $ scale_arg $ seed_arg $ tau_arg $ instance_arg
    $ bc_events_arg)

(* ----- generate ----- *)

let generate_cmd =
  let run () trace scale seed out =
    let trace = match trace with Some t -> t | None -> die "--trace is required" in
    let scale = or_die (Front.validate_scale scale) in
    let w = Front.generate ?seed trace ~scale in
    Wio.save w out;
    Format.printf "wrote %s: %a@." out Workload.pp_summary w
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic Spotify- or Twitter-like trace")
    Term.(const run $ setup_logs_term $ trace_arg $ scale_arg $ seed_arg $ out_arg)

(* ----- solve ----- *)

let solve_cmd =
  let ladder_arg =
    Arg.(value & flag & info [ "ladder" ] ~doc:"Run the whole optimisation ladder.")
  in
  let no_verify_arg =
    Arg.(value & flag & info [ "no-verify" ] ~doc:"Skip the solution verifier.")
  in
  let detail_arg =
    Arg.(value & flag & info [ "detail" ]
           ~doc:"Print fleet diagnostics (utilisation spread, topic fragmentation).")
  in
  let run () problem domains config_name ladder no_verify save_plan detail metrics_out =
    let domains = or_die (Front.validate_domains domains) in
    let configs =
      if ladder then Solver.ladder else [ (config_name, require_config config_name) ]
    in
    let w, model, p = Lazy.force problem in
    let obs = obs_of metrics_out in
    Format.printf "%a@." Workload.pp_summary w;
    Format.printf "model: %a; BC = %g events/horizon@." Cost_model.pp model
      p.Problem.capacity;
    (match Problem.infeasible_subscribers p with
    | [] -> ()
    | bad ->
        Logs.warn (fun m ->
            m "%d subscriber(s) cannot be satisfied under this capacity" (List.length bad)));
    let table =
      Table.create
        [
          ("configuration", Table.Left);
          ("VMs", Table.Right);
          ("BW GB", Table.Right);
          ("cost", Table.Right);
          ("stage1 s", Table.Right);
          ("stage2 s", Table.Right);
          ("valid", Table.Left);
        ]
    in
    let row (name, config) =
      let r = Solver.solve ~obs ~config ~domains p in
      let valid =
        if no_verify then "-"
        else if
          Verifier.is_valid (Verifier.verify p r.Solver.selection r.Solver.allocation)
        then "yes"
        else "NO"
      in
      Table.add_row table
        [
          name;
          string_of_int r.Solver.num_vms;
          Table.cell_float ~decimals:2 (Cost_model.gb_of_events model r.Solver.bandwidth);
          Table.cell_usd r.Solver.cost;
          Table.cell_float ~decimals:3 r.Solver.stage1_seconds;
          Table.cell_float ~decimals:3 r.Solver.stage2_seconds;
          valid;
        ];
      r
    in
    (* The last row's result also serves --save-plan and --detail. *)
    let last = List.fold_left (fun _ c -> Some (row c)) None configs |> Option.get in
    Table.print table;
    let lb = Lower_bound.compute p in
    Printf.printf "lower bound: %d VMs, %.2f GB, %s\n" lb.Lower_bound.vms
      (Cost_model.gb_of_events model lb.Lower_bound.bandwidth)
      (Table.cell_usd lb.Lower_bound.cost);
    (match save_plan with
    | None -> ()
    | Some path ->
        Mcss_core.Plan_io.save last.Solver.allocation path;
        Printf.printf "plan written to %s\n" path);
    if detail then begin
      Format.printf "@[<hov>%a@]@."
        Mcss_core.Solution_stats.pp
        (Mcss_core.Solution_stats.compute p last.Solver.allocation);
      let rs =
        Mcss_core.Right_size.solve last.Solver.allocation ~baseline:model.Cost_model.instance
          ~catalogue:Instance.catalogue ~horizon_hours:model.Cost_model.horizon_hours
          ~term:model.Cost_model.term
      in
      Format.printf "right-sizing %a@." Mcss_core.Right_size.pp rs
    end;
    flush_metrics obs metrics_out
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Solve an MCSS instance")
    Term.(
      const run $ setup_logs_term $ problem_term $ domains_arg $ config_arg $ ladder_arg
      $ no_verify_arg $ save_plan_arg $ detail_arg $ metrics_out_arg)

(* ----- lower-bound ----- *)

let lower_bound_cmd =
  let run () problem =
    let _, model, p = Lazy.force problem in
    let lb = Lower_bound.compute p in
    Printf.printf "bandwidth >= %.2f GB\nVMs >= %d\ncost >= %s\n"
      (Cost_model.gb_of_events model lb.Lower_bound.bandwidth)
      lb.Lower_bound.vms
      (Table.cell_usd lb.Lower_bound.cost)
  in
  Cmd.v
    (Cmd.info "lower-bound" ~doc:"Theorem A.1 cost lower bound for an instance")
    Term.(const run $ setup_logs_term $ problem_term)

(* ----- analyze ----- *)

let analyze_cmd =
  let out_dir =
    Arg.(value & opt (some string) None & info [ "o"; "out-dir" ] ~docv:"DIR"
           ~doc:"Also dump CCDF/series data files there.")
  in
  let run () workload out_dir =
    let w = Lazy.force workload in
    Format.printf "%a@." Workload.pp_summary w;
    let rates = Stats.summarize (Workload.event_rates w) in
    Printf.printf "event rate:  mean %.1f  p50 %.0f  p90 %.0f  p99 %.0f  max %.0f\n"
      rates.Stats.mean rates.Stats.p50 rates.Stats.p90 rates.Stats.p99 rates.Stats.max;
    let followers = Array.map float_of_int (Stats.follower_counts w) in
    let f = Stats.summarize followers in
    Printf.printf "#followers:  mean %.1f  p50 %.0f  p90 %.0f  p99 %.0f  max %.0f\n"
      f.Stats.mean f.Stats.p50 f.Stats.p90 f.Stats.p99 f.Stats.max;
    let interests = Array.map float_of_int (Stats.interest_counts w) in
    let i = Stats.summarize interests in
    Printf.printf "#followings: mean %.1f  p50 %.0f  p90 %.0f  p99 %.0f  max %.0f\n"
      i.Stats.mean i.Stats.p50 i.Stats.p90 i.Stats.p99 i.Stats.max;
    let sc = Stats.summarize (Stats.subscription_cardinalities w) in
    Printf.printf "SC%%:         mean %.4f  p50 %.4f  p99 %.4f  max %.4f\n" sc.Stats.mean
      sc.Stats.p50 sc.Stats.p99 sc.Stats.max;
    let rate_hist = Mcss_workload.Histogram.log_bins (Workload.event_rates w) in
    Printf.printf "rate distribution (log bins): %s\n"
      (Mcss_workload.Histogram.sparkline rate_hist);
    (match out_dir with
    | None -> ()
    | Some dir ->
        Series.save_all ~dir
          [
            Series.of_int_pairs ~name:"ccdf_followers"
              (Stats.ccdf_int (Stats.follower_counts w));
            Series.of_int_pairs ~name:"ccdf_followings"
              (Stats.ccdf_int (Stats.interest_counts w));
            Series.of_pairs ~name:"ccdf_rate" (Stats.ccdf_float (Workload.event_rates w));
            Series.of_int_pairs ~name:"rate_by_followers" (Stats.mean_rate_by_followers w);
            Series.of_int_pairs ~name:"sc_by_followings" (Stats.mean_sc_by_interests w);
          ];
        Printf.printf "series written to %s/\n" dir)
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Trace statistics (the paper's Appendix-D analysis)")
    Term.(const run $ setup_logs_term $ workload_term $ out_dir)

(* ----- simulate ----- *)

let outage_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ vm_s; from_s; until_s ] -> (
        match
          ( int_of_string_opt vm_s,
            float_of_string_opt from_s,
            float_of_string_opt until_s )
        with
        | Some vm, Some from_time, Some until_time
          when vm >= 0 && from_time >= 0. && from_time <= until_time ->
            Ok (Simulator.outage ~vm ~from_time ~until_time ())
        | _ ->
            Error
              (`Msg
                (Printf.sprintf
                   "bad outage %S: VM:FROM:UNTIL needs a nonnegative VM id and \
                    0 <= FROM <= UNTIL (UNTIL may be 'inf')"
                   s)))
    | _ -> Error (`Msg (Printf.sprintf "bad outage %S: expected VM:FROM:UNTIL" s))
  in
  let print ppf (o : Simulator.outage) =
    Format.fprintf ppf "%d:%g:%g" o.Simulator.vm o.Simulator.from_time
      o.Simulator.until_time
  in
  Arg.conv (parse, print)

let simulate_cmd =
  let poisson_arg =
    Arg.(value & opt (some int) None & info [ "poisson" ] ~docv:"SEED"
           ~doc:"Use Poisson arrivals with this seed (default: deterministic).")
  in
  let outages_arg =
    Arg.(value & opt_all outage_conv [] & info [ "outage" ] ~docv:"VM:FROM:UNTIL"
           ~doc:"Take a VM down over a window, in horizons (repeatable; UNTIL may \
                 be 'inf'). With outages the run reports damage instead of \
                 pass/fail.")
  in
  let run () problem domains poisson duration plan deltas outages metrics_out =
    let domains = or_die (Front.validate_domains domains) in
    let w, _, p = Lazy.force problem in
    let obs = obs_of metrics_out in
    (* A bad --deltas path fails before the solve or plan load it would
       otherwise follow. *)
    let ds = Option.map require_deltas deltas in
    let selection, allocation =
      match plan with
      | Some path ->
          let a, s = require_plan ~workload:w path in
          let report = Verifier.verify p s a in
          Printf.printf "loaded plan: %d VMs (verifier: %s)\n"
            (Allocation.num_vms a)
            (if Verifier.is_valid report then "clean" else "VIOLATIONS");
          (s, a)
      | None ->
          let r = Solver.solve ~obs ~domains p in
          Format.printf "solved: %a@." Solver.pp_result r;
          (r.Solver.selection, r.Solver.allocation)
    in
    let p, allocation =
      match ds with
      | None -> (p, allocation)
      | Some ds ->
          let eng = Engine.of_plan { Engine.problem = p; selection; allocation } in
          let stats = Engine.apply eng ds in
          Printf.printf
            "deltas applied: %d (%d dirty subscribers, +%d/-%d pairs, %d \
             evicted%s); fleet now %d VMs\n"
            (List.length ds) stats.Engine.dirty_subscribers stats.Engine.pairs_added
            stats.Engine.pairs_removed stats.Engine.pairs_evicted
            (if stats.Engine.resolved then ", full re-solve" else "")
            (Engine.num_vms eng);
          let plan = Engine.plan eng in
          (plan.Engine.problem, plan.Engine.allocation)
    in
    let config =
      {
        Simulator.duration;
        arrivals =
          (match poisson with
          | Some s -> Simulator.Poisson s
          | None -> Simulator.Deterministic);
        outages;
      }
    in
    let res = Simulator.run ~obs p allocation config in
    Printf.printf "published %d events over %.2f horizon(s)\n" res.Simulator.events_published
      duration;
    let tolerance = match poisson with Some _ -> 0.5 | None -> 0. in
    let c = Simulator.check p allocation res ~tolerance in
    Printf.printf "subscribers under-delivered: %d\n" (List.length c.Simulator.unsatisfied);
    Printf.printf "VMs deviating from plan:     %d\n"
      (List.length c.Simulator.traffic_mismatch);
    let worst = ref 0. in
    Array.iter
      (fun vm ->
        let u =
          Simulator.peak_bucket_rate res ~vm:(Allocation.vm_id vm) /. p.Problem.capacity
        in
        if u > !worst then worst := u)
      (Allocation.vms allocation);
    Printf.printf "worst instantaneous VM utilisation: %.0f%%\n" (100. *. !worst);
    flush_metrics obs metrics_out;
    if outages <> [] then
      (* Failure injection is a damage report, not a pass/fail gate. *)
      Printf.printf "events lost to outages: %d\n"
        (Array.fold_left ( + ) 0 res.Simulator.lost)
    else check (Simulator.all_ok c) "simulation check failed"
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Solve, then replay the plan through the simulator")
    Term.(
      const run $ setup_logs_term $ problem_term $ domains_arg $ poisson_arg
      $ duration_arg $ plan_opt_arg $ deltas_opt_arg $ outages_arg $ metrics_out_arg)

(* ----- update ----- *)

let update_cmd =
  let drift_arg =
    Arg.(value & opt float Engine.default_drift_threshold
         & info [ "drift-threshold" ] ~docv:"F"
           ~doc:"Churned-pairs fraction that triggers a full re-solve \
                 ($(b,inf) disables drift re-solves).")
  in
  let save_workload_arg =
    Arg.(value & opt (some string) None & info [ "save-workload" ] ~docv:"FILE"
           ~doc:"Write the evolved workload to this file.")
  in
  let echo_deltas_arg =
    Arg.(value & flag & info [ "echo-deltas" ]
           ~doc:"Re-render the parsed batch in canonical mcss-deltas form on \
                 stdout before applying it (a codec round-trip check).")
  in
  let run () problem config_name deltas plan drift save_plan save_workload echo_deltas =
    let config = require_config config_name in
    let w, _, p = Lazy.force problem in
    let ds = require_deltas deltas in
    if echo_deltas then print_string (Delta_io.to_string ds);
    let eng =
      match plan with
      | Some path ->
          let allocation, selection = require_plan ~workload:w path in
          Engine.of_plan ~config ~drift_threshold:drift
            { Engine.problem = p; selection; allocation }
      | None -> Engine.create ~config ~drift_threshold:drift p
    in
    Printf.printf "before: %d VMs, cost %s\n" (Engine.num_vms eng)
      (Table.cell_usd (Engine.cost eng));
    let t0 = Mcss_obs.Clock.now_ns () in
    let stats = Engine.apply eng ds in
    Logs.info (fun m ->
        m "applied %d delta(s) in %.3f ms" (List.length ds)
          (1e3 *. Mcss_obs.Clock.seconds_since t0));
    Printf.printf
      "applied %d delta(s): %d dirty subscriber(s), %d pair(s) kept, +%d added, \
       -%d removed, %d evicted, +%d/-%d VM(s)%s\n"
      (List.length ds) stats.Engine.dirty_subscribers stats.Engine.pairs_kept
      stats.Engine.pairs_added stats.Engine.pairs_removed stats.Engine.pairs_evicted
      stats.Engine.vms_added stats.Engine.vms_removed
      (if stats.Engine.resolved then " (drift threshold tripped: full re-solve)"
       else "");
    Printf.printf "after:  %d VMs, cost %s\n" (Engine.num_vms eng)
      (Table.cell_usd (Engine.cost eng));
    let { Engine.problem = p'; selection = s'; allocation = a' } = Engine.plan eng in
    let report = Verifier.verify p' s' a' in
    Printf.printf "verifier: %s\n"
      (if Verifier.is_valid report then "CLEAN" else "VIOLATIONS");
    (match save_plan with
    | None -> ()
    | Some path ->
        Mcss_core.Plan_io.save a' path;
        Printf.printf "plan written to %s\n" path);
    (match save_workload with
    | None -> ()
    | Some path ->
        Wio.save p'.Problem.workload path;
        Printf.printf "workload written to %s\n" path);
    check (Verifier.is_valid report) "evolved plan failed verification"
  in
  Cmd.v
    (Cmd.info "update"
       ~doc:"Apply a delta batch to a plan through the incremental engine \
             (offline; see $(b,mcss query update) for the live daemon)")
    Term.(
      const run $ setup_logs_term $ problem_term $ config_arg $ deltas_arg $ plan_opt_arg
      $ drift_arg $ save_plan_arg $ save_workload_arg $ echo_deltas_arg)

(* ----- budget ----- *)

let budget_cmd =
  let budgets_arg =
    Arg.(value & opt_all int [] & info [ "b"; "budget" ] ~docv:"N"
           ~doc:"Fixed VM budget (repeatable). Default: a sweep up to the MCSS fleet size.")
  in
  let run () problem budgets =
    let w, _, p = Lazy.force problem in
    let full = Solver.solve p in
    let budgets =
      if budgets <> [] then List.sort_uniq compare budgets
      else
        List.sort_uniq compare
          (List.map
             (fun f -> int_of_float (Float.round (f *. float_of_int full.Solver.num_vms)))
             [ 0.1; 0.25; 0.5; 0.75; 1.0 ])
    in
    let subscribers = Workload.num_subscribers w in
    let table =
      Table.create
        [ ("VM budget", Table.Right); ("satisfied", Table.Right); ("%", Table.Right) ]
    in
    List.iter
      (fun (budget, satisfied) ->
        Table.add_row table
          [
            string_of_int budget;
            string_of_int satisfied;
            Table.cell_pct (100. *. float_of_int satisfied /. float_of_int subscribers);
          ])
      (Mcss_core.Budget.satisfaction_curve p ~budgets);
    Table.print table;
    Printf.printf "(MCSS satisfies all %d subscribers with %d VMs)\n" subscribers
      full.Solver.num_vms
  in
  Cmd.v
    (Cmd.info "budget"
       ~doc:"Maximize satisfied subscribers under a fixed VM budget (the dual problem)")
    Term.(const run $ setup_logs_term $ problem_term $ budgets_arg)

(* ----- convert ----- *)

let convert_cmd =
  let edges_arg =
    Arg.(required & opt (some string) None & info [ "edges" ] ~docv:"FILE"
           ~doc:"Edge list: one 'follower followee' pair of user ids per line.")
  in
  let rates_arg =
    Arg.(required & opt (some string) None & info [ "rates" ] ~docv:"FILE"
           ~doc:"Rates: one 'user count' pair per line.")
  in
  let run () edges rates out =
    let w, mapping =
      try Mcss_traces.Edge_list.load ~edges ~rates with Wio.Parse_error msg -> die "%s" msg
    in
    Wio.save w out;
    Format.printf "wrote %s: %a@." out Workload.pp_summary w;
    Printf.printf "(%d active topics, %d subscribers mapped from raw user ids)\n"
      (Array.length mapping.Mcss_traces.Edge_list.user_of_topic)
      (Array.length mapping.Mcss_traces.Edge_list.user_of_subscriber)
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:"Convert a follower-graph edge list plus a rates file into a workload")
    Term.(const run $ setup_logs_term $ edges_arg $ rates_arg $ out_arg)

(* ----- export-lp ----- *)

let export_lp_cmd =
  let max_vms_arg =
    Arg.(value & opt (some int) None & info [ "max-vms" ] ~docv:"N"
           ~doc:"Fleet bound for the model (default: heuristic fleet + 2).")
  in
  let run () problem out max_vms =
    let _, model, p = Lazy.force problem in
    let max_vms =
      match max_vms with Some n -> n | None -> (Solver.solve p).Solver.num_vms + 2
    in
    let vm_usd = Mcss_pricing.Cost_model.vm_cost model 1 in
    let per_event_usd = Mcss_pricing.Cost_model.bandwidth_cost model 1. in
    let dims =
      Mcss_exact.Lp_export.save p ~max_vms ~vm_usd ~per_event_usd ~path:out
    in
    Printf.printf "wrote %s: %d VMs bound, %d binaries, %d constraints\n" out
      dims.Mcss_exact.Lp_export.vms dims.Mcss_exact.Lp_export.variables
      dims.Mcss_exact.Lp_export.constraints
  in
  Cmd.v
    (Cmd.info "export-lp"
       ~doc:"Export the instance as a CPLEX-LP mixed-integer program")
    Term.(const run $ setup_logs_term $ problem_term $ out_arg $ max_vms_arg)

(* ----- verify ----- *)

let verify_cmd =
  let run () problem plan =
    let w, model, p = Lazy.force problem in
    let a, s = require_plan ~workload:w plan in
    let report = Verifier.verify p s a in
    Printf.printf "plan: %d VMs, %.2f GB bandwidth, cost %s\n" report.Verifier.num_vms
      (Cost_model.gb_of_events model report.Verifier.total_bandwidth)
      (Table.cell_usd report.Verifier.cost);
    Format.printf "@[<hov>%a@]@." Mcss_core.Solution_stats.pp
      (Mcss_core.Solution_stats.compute p a);
    (* Deterministic replay as the final word. *)
    let res = Simulator.run p a Simulator.default_config in
    let c = Simulator.check p a res ~tolerance:0. in
    Printf.printf "simulated replay: %d events, measured = analytical: %b\n"
      res.Simulator.events_published (Simulator.all_ok c);
    if Verifier.is_valid report && Simulator.all_ok c then print_endline "verifier: CLEAN"
    else begin
      List.iter
        (fun v -> Format.printf "  %a@." Verifier.pp_violation v)
        report.Verifier.violations;
      die "plan failed verification"
    end
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Audit a saved plan against a workload: verifier + replay")
    Term.(const run $ setup_logs_term $ problem_term $ plan_arg)

(* ----- chaos ----- *)

let chaos_cmd =
  let fault_conv =
    let parse s =
      match Failure_model.fault_of_string s with
      | Ok f -> Ok f
      | Error m -> Error (`Msg m)
    in
    Arg.conv (parse, Failure_model.pp_fault)
  in
  let faults_arg =
    Arg.(value & opt_all fault_conv [] & info [ "fault" ] ~docv:"SPEC"
           ~doc:"Inject one fault (repeatable): $(b,crash:VM@AT), \
                 $(b,transient:VM@FROM-UNTIL), $(b,throttle:VM@FROM-UNTIL*SEV), \
                 or $(b,zone:Z@AT+DUR); times in horizons. Without any, a random \
                 campaign is drawn from --campaign-seed.")
  in
  let epoch_duration_arg =
    Arg.(value & opt float 0.5 & info [ "epoch-duration" ] ~docv:"F"
           ~doc:"Simulated horizons per epoch.")
  in
  let k_arg =
    Arg.(value & opt int 1 & info [ "k"; "replicas" ] ~docv:"K"
           ~doc:"Replicas per pair. K=1 runs the supervised recovery loop; K>1 \
                 drills a passive K-redundant placement instead.")
  in
  let no_recovery_arg =
    Arg.(value & flag & info [ "no-recovery" ]
           ~doc:"Observe only, never repair (the ablation baseline).")
  in
  let max_new_vms_arg =
    Arg.(value & opt (some int) None & info [ "max-new-vms" ] ~docv:"N"
           ~doc:"Replacement-VM budget for repairs (default: unlimited).")
  in
  let penalty_arg =
    Arg.(value & opt float 50. & info [ "penalty" ] ~docv:"USD"
           ~doc:"SLA penalty per subscriber violation-hour.")
  in
  let hysteresis_arg =
    Arg.(value & opt int 1 & info [ "hysteresis" ] ~docv:"N"
           ~doc:"Consecutive dead epochs before a VM is declared failed.")
  in
  let backoff_base_arg =
    Arg.(value & opt int Orchestrator.default_policy.Orchestrator.base_backoff
         & info [ "backoff-base" ] ~docv:"N"
             ~doc:"Epochs of cooldown after the first failed repair (the \
                   exponential backoff doubles from here).")
  in
  let backoff_max_arg =
    Arg.(value & opt int Orchestrator.default_policy.Orchestrator.max_backoff
         & info [ "backoff-max" ] ~docv:"N"
             ~doc:"Cap on the exponential repair cooldown, in epochs.")
  in
  let backoff_jitter_arg =
    Arg.(value & opt int Orchestrator.default_policy.Orchestrator.jitter
         & info [ "backoff-jitter" ] ~docv:"N"
             ~doc:"Max extra cooldown epochs drawn from the seeded RNG; 0 \
                   makes repair timing fully deterministic.")
  in
  let run () problem faults campaign_seed epochs epoch_duration zones k no_recovery
      max_new_vms penalty hysteresis backoff_base backoff_max backoff_jitter metrics_out =
    check (k >= 1) "--replicas must be >= 1";
    check (zones >= 1) "--zones must be >= 1";
    check (backoff_base >= 1) "--backoff-base must be >= 1";
    check (backoff_max >= backoff_base) "--backoff-max must be >= --backoff-base";
    check (backoff_jitter >= 0) "--backoff-jitter must be >= 0";
    check (hysteresis >= 1) "--hysteresis must be >= 1";
    let _, _, p = Lazy.force problem in
    let obs = obs_of metrics_out in
    let policy =
      {
        Orchestrator.epochs;
        epoch_duration;
        hysteresis;
        base_backoff = backoff_base;
        max_backoff = backoff_max;
        jitter = backoff_jitter;
        seed = campaign_seed;
        recovery = not no_recovery;
        max_new_vms = Option.value ~default:max_int max_new_vms;
        penalty_usd_per_violation_hour = penalty;
      }
    in
    let selection = Mcss_core.Selection.gsp p in
    let fleet =
      Allocation.num_vms (Mcss_core.Cbp.run p selection Mcss_core.Cbp.with_cost_decision)
    in
    let campaign =
      if faults <> [] then { Failure_model.seed = campaign_seed; faults }
      else
        Failure_model.random ~seed:campaign_seed ~num_vms:fleet ~zones
          ~horizon:(float_of_int epochs *. epoch_duration)
          ()
    in
    Printf.printf "fleet: %d VMs over %d zone(s); campaign (seed %d):\n" fleet zones
      campaign.Failure_model.seed;
    List.iter
      (fun f -> Printf.printf "  %s\n" (Failure_model.fault_to_string f))
      campaign.Failure_model.faults;
    if k <= 1 then begin
      let o = Orchestrator.run ~obs ~policy ~zones ~log:print_endline ~campaign p in
      Format.printf "@.%a@." Sla.pp_report o.Orchestrator.sla;
      Printf.printf
        "repairs: %d adopted of %d attempt(s), %d backoff skip(s), %d VM(s) added, \
         %d pair(s) shed\n"
        o.Orchestrator.repairs o.Orchestrator.repair_attempts o.Orchestrator.backoff_skips
        o.Orchestrator.vms_added
        (List.length o.Orchestrator.shed);
      match o.Orchestrator.verified with
      | Ok () -> print_endline "final plan: verifier CLEAN"
      | Error m -> Printf.printf "final plan: NOT verifiable (%s)\n" m
    end
    else begin
      let a, stats = Redundancy.place ~zones ~k p selection in
      or_die (Redundancy.check p selection ~k a);
      Format.printf "@.%a@." Redundancy.pp_stats stats;
      let sla = Orchestrator.evaluate ~obs ~policy ~zones ~campaign p a in
      Format.printf "%a@." Sla.pp_report sla
    end;
    flush_metrics obs metrics_out
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Run a fault-injection campaign: supervised recovery or k-redundant drill")
    Term.(
      const run $ setup_logs_term $ problem_term $ faults_arg $ campaign_seed_arg
      $ epochs_arg $ epoch_duration_arg $ zones_arg $ k_arg $ no_recovery_arg
      $ max_new_vms_arg $ penalty_arg $ hysteresis_arg $ backoff_base_arg
      $ backoff_max_arg $ backoff_jitter_arg $ metrics_out_arg)

(* ----- elastic ----- *)

let require_scenario path =
  try Scenario.load path
  with Scenario.Parse_error { line; message } -> die "%s:%d: %s" path line message

let elastic_cmd =
  let scenario_arg =
    Arg.(required & opt (some string) None & info [ "scenario" ] ~docv:"FILE"
           ~doc:"Scenario file (mcss-scenario format): time slices and the \
                 rate curve to replay over the workload.")
  in
  let policy_arg =
    Arg.(value & opt (enum [ ("all", `All); ("hysteresis", `Hysteresis);
                             ("lookahead", `Lookahead) ]) `All
         & info [ "policy" ] ~docv:"NAME"
             ~doc:"Adaptive policy to run besides the static baseline: \
                   $(b,hysteresis), $(b,lookahead), or $(b,all).")
  in
  let deployment_arg =
    Arg.(value & opt (enum [ ("zonal", Reservation.Zonal);
                             ("regional", Reservation.Regional) ])
           Reservation.Zonal
         & info [ "deployment" ] ~docv:"KIND"
             ~doc:"Reservation deployment: $(b,zonal) or $(b,regional) \
                   (regional multiplies both tiers by the regional premium).")
  in
  let scaling_usd_arg =
    Arg.(value & opt (some float) None & info [ "scaling-usd" ] ~docv:"USD"
           ~doc:"Flat charge per scaling action (reservation change or \
                 consolidation pass). Default \\$0.10.")
  in
  let lookahead_arg =
    Arg.(value & opt int Autoscaler.default_lookahead.Autoscaler.horizon
         & info [ "lookahead" ] ~docv:"N"
             ~doc:"Forecast window of the lookahead policy, in slices.")
  in
  let down_cooldown_arg =
    Arg.(value & opt int Autoscaler.default_hysteresis.Autoscaler.down_cooldown
         & info [ "down-cooldown" ] ~docv:"N"
             ~doc:"Slices the fleet must sit below the commitment before the \
                   hysteresis policy lowers it.")
  in
  let consolidate_below_arg =
    Arg.(value
         & opt float Autoscaler.default_hysteresis.Autoscaler.consolidate_below
         & info [ "consolidate-below" ] ~docv:"F"
             ~doc:"Utilization threshold that triggers a consolidation pass.")
  in
  let ledger_arg =
    Arg.(value & opt (some string) None & info [ "ledger" ] ~docv:"FILE"
           ~doc:"Write the full per-slice cost ledger as JSON.")
  in
  let run () problem scenario_path policy deployment scaling_usd lookahead down_cooldown
      consolidate_below ledger =
    let w, model, p = Lazy.force problem in
    let scenario = require_scenario scenario_path in
    let pricing =
      let d = Reservation.default ~instance:model.Cost_model.instance ~deployment () in
      match scaling_usd with
      | None -> d
      | Some usd -> { d with Reservation.scaling_usd_per_action = usd }
    in
    let slice_hours = scenario.Scenario.slice_hours in
    let hyst_config =
      {
        Autoscaler.default_hysteresis with
        Autoscaler.down_cooldown;
        consolidate_below;
      }
    in
    let look_config =
      {
        Autoscaler.default_lookahead with
        Autoscaler.horizon = lookahead;
        consolidate_below;
      }
    in
    let policies =
      let hyst () = Autoscaler.hysteresis ~config:hyst_config () in
      let look () =
        Autoscaler.lookahead ~config:look_config ~pricing ~slice_hours ()
      in
      match policy with
      | `All -> [ hyst (); look () ]
      | `Hysteresis -> [ hyst () ]
      | `Lookahead -> [ look () ]
    in
    let result =
      Week_sim.run ~pricing ~capacity_events:p.Problem.capacity ~policies ~workload:w
        ~tau:p.Problem.tau ~model scenario
    in
    Printf.printf
      "scenario: %d slice(s) x %gh, seed %d, coverage %g; static fleet %d VM(s)\n"
      scenario.Scenario.slices slice_hours scenario.Scenario.seed
      scenario.Scenario.coverage result.Week_sim.static_fleet;
    let runs = result.Week_sim.static :: result.Week_sim.policies in
    let table =
      Table.create
        [
          ("policy", Table.Left); ("week cost", Table.Right);
          ("vm", Table.Right); ("bandwidth", Table.Right);
          ("scaling", Table.Right); ("actions", Table.Right);
          ("replans", Table.Right); ("vs static", Table.Right);
          ("verifier", Table.Left);
        ]
    in
    let static_usd = result.Week_sim.static.Week_sim.total_usd in
    List.iter
      (fun (r : Week_sim.policy_run) ->
        Table.add_row table
          [
            r.Week_sim.policy;
            Table.cell_usd r.Week_sim.total_usd;
            Table.cell_usd r.Week_sim.vm_usd;
            Table.cell_usd r.Week_sim.bandwidth_usd;
            Table.cell_usd r.Week_sim.scaling_usd;
            string_of_int r.Week_sim.scaling_actions;
            string_of_int r.Week_sim.reprovisions;
            (if r.Week_sim.policy = "static" then "-"
             else
               Table.cell_pct (Table.pct_change ~baseline:static_usd r.Week_sim.total_usd));
            (if r.Week_sim.clean then "CLEAN" else "VIOLATIONS");
          ])
      runs;
    Table.print table;
    Printf.printf "oracle (knows the whole curve): %s, %s vs static\n"
      (Table.cell_usd result.Week_sim.oracle_usd)
      (Table.cell_pct (Table.pct_change ~baseline:static_usd result.Week_sim.oracle_usd));
    (match ledger with
    | None -> ()
    | Some path ->
        Week_sim.write_ledger path result;
        Printf.printf "ledger written to %s\n" path);
    check
      (List.for_all (fun (r : Week_sim.policy_run) -> r.Week_sim.clean) runs)
      "a policy produced a plan that failed verification"
  in
  Cmd.v
    (Cmd.info "elastic"
       ~doc:"Replay a time-varying scenario through the capacity planner: \
             static envelope plan vs autoscaling policies under reservation \
             pricing")
    Term.(
      const run $ setup_logs_term $ problem_term $ scenario_arg $ policy_arg
      $ deployment_arg $ scaling_usd_arg $ lookahead_arg $ down_cooldown_arg
      $ consolidate_below_arg $ ledger_arg)

(* ----- profile ----- *)

let profile_cmd =
  let format_arg =
    let doc = "Output format: $(b,console) (table + span tree), $(b,prometheus), or $(b,jsonl)." in
    Arg.(value
         & opt (enum [ ("console", `Console); ("prometheus", `Prometheus); ("jsonl", `Jsonl) ])
             `Console
         & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let no_simulate_arg =
    Arg.(value & flag & info [ "no-simulate" ]
           ~doc:"Profile the solver only; skip the simulator and the broker-fleet latency pass.")
  in
  let run () problem config_name format no_simulate metrics_out =
    let config = require_config config_name in
    let _, _, p = Lazy.force problem in
    let obs = Registry.create () in
    Span.with_ obs ~name:"profile" (fun () ->
        let r = Solver.solve ~obs ~config p in
        if not no_simulate then begin
          ignore (Simulator.run ~obs p r.Solver.allocation Simulator.default_config);
          ignore (Mcss_broker.Fleet.latency ~obs p r.Solver.allocation ~latency_seed:1)
        end);
    (match format with
    | `Console -> print_string (Sink.console obs)
    | `Prometheus -> print_string (Sink.prometheus obs)
    | `Jsonl -> print_string (Sink.jsonl obs));
    flush_metrics obs metrics_out
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run solver + simulator + broker-fleet latency pass with instrumentation on and print \
             the metrics and span tree")
    Term.(
      const run $ setup_logs_term $ problem_term $ config_arg $ format_arg $ no_simulate_arg
      $ metrics_out_arg)

(* ----- serve ----- *)

(* A planning service over [config], with a journal that cannot be
   opened reported as one line. *)
let open_service ~config ?role ?replay_to () =
  try Serve_service.create ~config ?role ?replay_to () with
  | Unix.Unix_error (e, _, detail) -> die "cannot open journal: %s" (unix_message e detail)
  | Sys_error m -> die "cannot open journal: %s" m

let serve_cmd =
  let cache_size_arg =
    Arg.(value & opt int 128 & info [ "cache-size" ] ~docv:"N"
           ~doc:"Plan-cache capacity in entries (LRU beyond that). Versions \
                 derived by $(b,update) are bounded separately: only the \
                 newest stays in memory, older ones keep only their update \
                 record and are rebuilt by replay when asked for.")
  in
  let max_in_flight_arg =
    Arg.(value & opt int 4 & info [ "max-in-flight" ] ~docv:"N"
           ~doc:"Concurrent solver runs admitted; further solves are refused \
                 with an $(b,overloaded) error.")
  in
  let workers_arg =
    Arg.(value & opt int 4 & info [ "serve-workers" ] ~docv:"N"
           ~doc:"Connection-worker domains.")
  in
  let max_request_bytes_arg =
    Arg.(value & opt int (8 * 1024 * 1024) & info [ "max-request-bytes" ] ~docv:"N"
           ~doc:"Longest accepted request line; longer ones get a \
                 $(b,too_large) error.")
  in
  let default_deadline_arg =
    Arg.(value & opt (some float) None & info [ "default-deadline-ms" ] ~docv:"MS"
           ~doc:"Deadline applied to requests that do not carry their own.")
  in
  let preload_arg =
    Arg.(value & opt_all string [] & info [ "preload" ] ~docv:"FILE"
           ~doc:"Workload file to register at startup (repeatable); its digest \
                 is printed.")
  in
  let journal_arg =
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"DIR"
           ~doc:"Persist workloads and solved plans to a write-ahead log + \
                 snapshot under $(docv); a restarted (even kill -9'd) server \
                 replays it and answers the same solves as cache hits.")
  in
  let snapshot_every_arg =
    Arg.(value & opt int 256 & info [ "snapshot-every" ] ~docv:"N"
           ~doc:"Fold the WAL into a fresh snapshot every $(docv) records \
                 (0 never; needs --journal).")
  in
  let no_fsync_arg =
    Arg.(value & flag & info [ "no-fsync" ]
           ~doc:"Skip the per-append fsync (faster; risks the WAL tail on \
                 power loss, not on process crash).")
  in
  let breaker_failures_arg =
    Arg.(value & opt int Serve_breaker.default_config.Serve_breaker.failure_threshold
         & info [ "breaker-failures" ] ~docv:"N"
           ~doc:"Consecutive solver failures (deadline blowouts or internal \
                 errors) that open the circuit; while open, cache misses are \
                 answered $(b,degraded) from the last solved plan.")
  in
  let breaker_cooldown_arg =
    Arg.(value & opt float Serve_breaker.default_config.Serve_breaker.cooldown_ms
         & info [ "breaker-cooldown-ms" ] ~docv:"MS"
           ~doc:"Open time before a half-open probe solve is let through.")
  in
  let queue_depth_arg =
    Arg.(value & opt (some int) None & info [ "queue-depth" ] ~docv:"N"
           ~doc:"Accepted-but-unclaimed connection bound; beyond it new \
                 connections are shed with an $(b,overloaded) reply (default \
                 4 x workers).")
  in
  let start_degraded_arg =
    Arg.(value & flag & info [ "start-degraded" ]
           ~doc:"Boot with the solver circuit already open (maintenance mode): \
                 cache hits and journaled plans are still served — misses get \
                 $(b,degraded) replies — but the solver does not run until the \
                 breaker cooldown admits a probe. Pair with a large \
                 $(b,--breaker-cooldown-ms) to hold it open.")
  in
  let replicate_on_arg =
    Arg.(value & opt (some string) None & info [ "replicate-on" ] ~docv:"ADDR"
           ~doc:"Also stream the journal to followers on $(docv) (needs \
                 --journal): each follower that connects is resynced and then \
                 fed every subsequent append, so it can take over after this \
                 process dies.")
  in
  let follow_arg =
    Arg.(value & opt (some string) None & info [ "follow" ] ~docv:"ADDR"
           ~doc:"Run as a follower of the leader replicating on $(docv) \
                 (needs --journal): pull its journal stream, mirror it \
                 locally, refuse $(b,update)s with $(b,not_leader), and serve \
                 reads; a $(b,promote) query turns this replica into a leader \
                 in place.")
  in
  let name_arg =
    Arg.(value & opt string Serve_service.default_config.Serve_service.name
         & info [ "name" ] ~docv:"NAME"
           ~doc:"Node name stamped into journaled records as their origin \
                 (the nemesis invariant checker groups writes by origin to \
                 prove no two leaders accepted writes in the same epoch).")
  in
  let quorum_acks_arg =
    Arg.(value & opt int 1 & info [ "quorum-acks" ] ~docv:"N"
           ~doc:"Replicas (counting this leader) that must have fsynced a \
                 non-idempotent record ($(b,update), first-time $(b,load)) \
                 before it is acknowledged; needs $(b,--replicate-on) when \
                 above 1. Idempotent solves never wait — replication stays \
                 asynchronous for them.")
  in
  let quorum_timeout_arg =
    Arg.(value & opt float 2000. & info [ "quorum-timeout-ms" ] ~docv:"MS"
           ~doc:"How long a write waits for its quorum before it is refused \
                 with $(b,no_quorum) (the record stays journaled locally).")
  in
  let run () listen cache_size max_in_flight workers max_request_bytes
      default_deadline preloads journal snapshot_every no_fsync breaker_failures
      breaker_cooldown queue_depth start_degraded replicate_on follow name
      quorum_acks quorum_timeout quiet =
    let address = or_die (Serve_server.address_of_string listen) in
    check (cache_size >= 1) "--cache-size must be >= 1";
    check (max_in_flight >= 1) "--max-in-flight must be >= 1";
    check (workers >= 1) "--serve-workers must be >= 1";
    check (max_request_bytes >= 1024) "--max-request-bytes must be >= 1024";
    check (snapshot_every >= 0) "--snapshot-every must be >= 0";
    check (breaker_failures >= 1) "--breaker-failures must be >= 1";
    check (breaker_cooldown > 0.) "--breaker-cooldown-ms must be positive";
    check (Option.fold ~none:true ~some:(fun d -> d >= 1) queue_depth)
      "--queue-depth must be >= 1";
    check
      ((replicate_on = None && follow = None) || journal <> None)
      "--replicate-on and --follow need --journal DIR";
    check (quorum_acks >= 1) "--quorum-acks must be >= 1";
    check
      (quorum_acks = 1 || replicate_on <> None)
      "--quorum-acks above 1 needs --replicate-on (the acks come from followers of \
       the replication stream)";
    check (quorum_timeout > 0.) "--quorum-timeout-ms must be positive";
    let address_opt = Option.map (fun a -> or_die (Serve_server.address_of_string a)) in
    let replicate_address = address_opt replicate_on in
    let leader_address = address_opt follow in
    let config =
      {
        Serve_service.cache_capacity = cache_size;
        name;
        quorum_acks;
        quorum_timeout_ms = quorum_timeout;
        max_in_flight;
        default_deadline_ms = default_deadline;
        journal =
          Option.map
            (fun dir ->
              { Serve_journal.dir; fsync = not no_fsync; snapshot_every })
            journal;
        breaker =
          {
            Serve_breaker.failure_threshold = breaker_failures;
            cooldown_ms = breaker_cooldown;
          };
      }
    in
    let role =
      if leader_address <> None then Serve_service.Follower
      else Serve_service.Leader
    in
    let service = open_service ~config ~role () in
    List.iter
      (fun path ->
        let w = try Wio.load path with Wio.Parse_error m -> die "%s: %s" path m in
        let digest = Serve_service.load_workload service w in
        if not quiet then Printf.printf "preloaded %s: digest %s\n%!" path digest)
      preloads;
    let log = if quiet then ignore else fun s -> Printf.printf "%s\n%!" s in
    log
      (Printf.sprintf "mcss-plan-server %s (%s)" (Build_info.to_string ())
         (Serve_service.role_to_string role));
    (match Serve_service.replay_stats service with
    | Some r ->
        log
          (Printf.sprintf
             "mcss serve: journal replayed (%d workloads, %d plans, %d updates, \
              %d skipped, %d bytes torn tail, %d corrupt)"
             r.Serve_service.workloads_recovered r.Serve_service.plans_recovered
             r.Serve_service.updates_replayed r.Serve_service.records_skipped
             r.Serve_service.wal_truncated_bytes r.Serve_service.corrupt_records)
    | None -> ());
    if start_degraded then begin
      let b = Serve_service.breaker service in
      for _ = 1 to breaker_failures do
        Serve_breaker.failure b
      done;
      log "mcss serve: solver circuit opened at boot (--start-degraded)"
    end;
    let sconfig =
      {
        Serve_server.default_config with
        Serve_server.workers;
        queue_depth;
        max_request_bytes;
        log;
      }
    in
    let serve () =
      (* Leader side of replication binds its own listener before the
         request socket; follower side pulls the leader's stream on a
         spare domain until drain (or promotion, handled inside). *)
      let leader_hub =
        Option.map
          (fun rep ->
            log
              (Printf.sprintf "mcss serve: replicating journal on %s"
                 (Serve_server.address_to_string rep));
            let hub = Serve_replication.start_leader ~service rep in
            if quorum_acks > 1 then begin
              log
                (Printf.sprintf
                   "mcss serve: writes wait for %d-of-cluster acks (%.0f ms)"
                   quorum_acks quorum_timeout);
              Serve_service.set_commit_gate service
                (Some
                   (fun ~index ->
                     Serve_replication.commit_gate hub ~quorum:quorum_acks
                       ~timeout_ms:quorum_timeout ~index))
            end;
            hub)
          replicate_address
      in
      let stopped = Atomic.make false in
      let follower =
        Option.map
          (fun leader ->
            log
              (Printf.sprintf "mcss serve: following leader at %s"
                 (Serve_server.address_to_string leader));
            Domain.spawn (fun () ->
                Serve_replication.follow ~service
                  ~stop:(fun () ->
                    Atomic.get stopped || Serve_service.draining service)
                  leader))
          leader_address
      in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set stopped true;
          Option.iter Serve_replication.stop_leader leader_hub;
          Option.iter Domain.join follower)
        (fun () -> Serve_server.run ~config:sconfig service address)
    in
    try Fun.protect ~finally:(fun () -> Serve_service.close service) serve
    with Unix.Unix_error (e, _, detail) ->
      die "cannot serve on %s: %s" listen (unix_message e detail)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the planning daemon: resident workloads, a plan cache, and the \
             line-delimited JSON protocol (see $(b,mcss query))")
    Term.(
      const run $ setup_logs_term $ listen_arg ~default:"unix:mcss.sock" $ cache_size_arg
      $ max_in_flight_arg $ workers_arg $ max_request_bytes_arg $ default_deadline_arg
      $ preload_arg $ journal_arg $ snapshot_every_arg $ no_fsync_arg
      $ breaker_failures_arg $ breaker_cooldown_arg $ queue_depth_arg
      $ start_degraded_arg $ replicate_on_arg $ follow_arg $ name_arg $ quorum_acks_arg
      $ quorum_timeout_arg $ quiet_arg)

(* ----- route ----- *)

let route_cmd =
  let shard_arg =
    Arg.(non_empty & opt_all string [] & info [ "shard" ] ~docv:"SPEC"
           ~doc:"One shard as $(b,NAME=ADDR)[$(b,,ADDR)...] (repeatable). The \
                 first address is the leader, the rest are followers tried \
                 when it is unreachable.")
  in
  let vnodes_arg =
    Arg.(value & opt int Serve_router.default_config.Serve_router.vnodes
         & info [ "vnodes" ] ~docv:"N"
           ~doc:"Virtual ring points per shard.")
  in
  let health_period_arg =
    Arg.(value & opt float Serve_router.default_config.Serve_router.health_period_s
         & info [ "health-period-s" ] ~docv:"S"
           ~doc:"Member health-probe cadence in seconds.")
  in
  let auto_promote_arg =
    Arg.(value & flag & info [ "auto-promote" ]
           ~doc:"Drive fenced failover from the health probes: when a shard's \
                 leader is dead past $(b,--promote-after) probes, promote the \
                 most caught-up live follower at a fencing epoch above \
                 anything the shard has reported; a revived stale leader is \
                 demoted on sight. Without this flag the member order is \
                 static and promotion is manual, as before.")
  in
  let promote_after_arg =
    Arg.(value & opt int Serve_router.default_config.Serve_router.promote_after
         & info [ "promote-after" ] ~docv:"N"
           ~doc:"Consecutive failed probes before a leader is declared dead \
                 (needs $(b,--auto-promote)).")
  in
  let run () listen shards vnodes health_period auto_promote promote_after quiet =
    let address = or_die (Serve_server.address_of_string listen) in
    check (vnodes >= 1) "--vnodes must be >= 1";
    check (health_period > 0.) "--health-period-s must be positive";
    check (promote_after >= 1) "--promote-after must be >= 1";
    let parse_spec spec =
      match String.index_opt spec '=' with
      | None | Some 0 -> die "--shard %s: expected NAME=ADDR[,ADDR...]" spec
      | Some i ->
          let member a =
            match Serve_server.address_of_string a with
            | Ok address -> { Serve_router.name = a; address }
            | Error m -> die "--shard %s: %s" spec m
          in
          let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
          let parts = List.filter (fun s -> s <> "") (String.split_on_char ',' rest) in
          if parts = [] then die "--shard %s: no member addresses" spec;
          { Serve_router.shard_name = String.sub spec 0 i; members = List.map member parts }
    in
    let shards = List.map parse_spec shards in
    let log = if quiet then ignore else fun s -> Printf.printf "%s\n%!" s in
    let config =
      {
        Serve_router.default_config with
        Serve_router.vnodes;
        health_period_s = health_period;
        auto_promote;
        promote_after;
        log;
      }
    in
    let router = Serve_router.create ~config shards in
    log (Printf.sprintf "mcss-plan-router %s" (Build_info.to_string ()));
    List.iter
      (fun s ->
        log
          (Printf.sprintf "mcss route: shard %s -> %s" s.Serve_router.shard_name
             (String.concat ", "
                (List.map (fun m -> m.Serve_router.name) s.Serve_router.members))))
      shards;
    let server_config = { Serve_server.default_config with Serve_server.log } in
    try Serve_router.run ~server_config router address
    with Unix.Unix_error (e, _, detail) ->
      die "cannot route on %s: %s" listen (unix_message e detail)
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:"Run the shard router: forward queries to the owning shard's \
             leader by workload digest, fail over to followers, and shed with \
             $(b,no_quorum) when a whole shard is down")
    Term.(
      const run $ setup_logs_term $ listen_arg ~default:"unix:mcss-route.sock" $ shard_arg
      $ vnodes_arg $ health_period_arg $ auto_promote_arg $ promote_after_arg $ quiet_arg)

(* ----- journal ----- *)

let journal_cmd =
  let dir_arg =
    Arg.(required & opt (some string) None & info [ "dir" ] ~docv:"DIR"
           ~doc:"Journal directory (as given to $(b,mcss serve --journal)).")
  in
  let seek_arg =
    Arg.(value & opt (some int) None & info [ "seek" ] ~docv:"N"
           ~doc:"Point-in-time replay: apply only the first $(docv) recovered \
                 records (snapshot records first, then the WAL) instead of \
                 all of them.")
  in
  let verify_arg =
    Arg.(value & flag & info [ "verify" ]
           ~doc:"Read-only integrity scan: check every CRC frame in the \
                 snapshot and WAL, report record counts, the epoch span, and \
                 dropped frames, and exit 1 on any corruption. Unlike a \
                 replay, the journal on disk is untouched — a torn tail is \
                 reported, never truncated.")
  in
  let run_verify dir =
    (* A journal dir is created on demand by a server, but a *scan* of
       a path that does not exist is a typo, not a clean journal. *)
    check (Sys.file_exists dir && Sys.is_directory dir)
      (Printf.sprintf "cannot verify journal: %s is not a directory" dir);
    let r =
      try Serve_journal.verify ~dir with
      | Unix.Unix_error (e, _, detail) ->
          die "cannot verify journal: %s" (unix_message e detail)
      | Sys_error m -> die "cannot verify journal: %s" m
    in
    let open Serve_journal in
    Printf.printf "journal %s: verify (read-only)\n" dir;
    Printf.printf "  snapshot records: %d (base index %d)\n" r.v_snapshot_records
      r.v_base_index;
    Printf.printf "  wal records: %d (last index %d)\n" r.v_wal_records
      (r.v_base_index + r.v_wal_records);
    Printf.printf "  epoch span: %d..%d (persisted %d)\n" r.v_min_epoch r.v_max_epoch
      r.v_persisted_epoch;
    Printf.printf "  dropped_frames: %d\n" r.v_dropped_frames;
    if r.v_corrupt_records > 0 || r.v_trailing_bytes > 0 || r.v_epoch_regressions > 0
    then begin
      Printf.printf "CORRUPT: %d corrupt records, %d trailing bytes, %d epoch regressions\n"
        r.v_corrupt_records r.v_trailing_bytes r.v_epoch_regressions;
      exit 1
    end
    else Printf.printf "clean\n"
  in
  let run_replay dir seek =
    check (Option.fold ~none:true ~some:(fun n -> n >= 0) seek) "--seek must be >= 0";
    let config =
      {
        Serve_service.default_config with
        Serve_service.journal = Some { Serve_journal.dir; fsync = false; snapshot_every = 0 };
      }
    in
    let service = open_service ~config ?replay_to:seek () in
    Fun.protect
      ~finally:(fun () -> Serve_service.close service)
      (fun () ->
        let last = Option.value ~default:0 (Serve_service.journal_last_index service) in
        match Serve_service.replay_stats service with
        | None -> Printf.printf "journal %s: empty (last index 0)\n" dir
        | Some r ->
            let applied =
              r.Serve_service.workloads_recovered + r.Serve_service.plans_recovered
              + r.Serve_service.updates_replayed + r.Serve_service.records_skipped
            in
            Printf.printf "journal %s: last index %d\n" dir last;
            (match seek with
            | Some n -> Printf.printf "replayed %d of %d records (--seek %d)\n" applied last n
            | None -> Printf.printf "replayed %d records\n" applied);
            Printf.printf "  %d workloads, %d plans, %d updates, %d skipped\n"
              r.Serve_service.workloads_recovered r.Serve_service.plans_recovered
              r.Serve_service.updates_replayed r.Serve_service.records_skipped;
            Printf.printf
              "  torn tail: %d bytes truncated, %d corrupt records, %d dropped frames\n"
              r.Serve_service.wal_truncated_bytes r.Serve_service.corrupt_records
              r.Serve_service.dropped_frames)
  in
  let run () dir seek verify = if verify then run_verify dir else run_replay dir seek in
  Cmd.v
    (Cmd.info "journal"
       ~doc:"Inspect a planning-service journal: replay it (optionally only a \
             prefix, with $(b,--seek)) and print what was recovered, or scan \
             it read-only with $(b,--verify)")
    Term.(const run $ setup_logs_term $ dir_arg $ seek_arg $ verify_arg)

(* ----- nemesis ----- *)

let nemesis_cmd =
  let seed_arg =
    Arg.(value & opt int Serve_nemesis.default_config.Serve_nemesis.seed
           & info [ "seed" ] ~docv:"N"
               ~doc:"Nemesis seed: drives victim choice and the phase order. \
                     The whole run is deterministic given the seed.")
  in
  let partitions_arg =
    Arg.(value & opt int Serve_nemesis.default_config.Serve_nemesis.partitions
           & info [ "partitions" ] ~docv:"N"
               ~doc:"Fault phases to inject (>= 3: the first three always \
                     cover leader isolation, an asymmetric link, and a \
                     follower pause).")
  in
  let updates_arg =
    Arg.(value
           & opt int Serve_nemesis.default_config.Serve_nemesis.updates_per_phase
           & info [ "updates-per-phase" ] ~docv:"N"
               ~doc:"Updates the workload generator pushes during and after \
                     each phase.")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
           ~doc:"Write the full report (counters, recovery percentiles, \
                 invariant booleans) as JSON to $(docv) — the \
                 $(b,BENCH_partition.json) shape.")
  in
  let run () seed partitions updates out quiet =
    check (partitions >= 3) "--partitions must be >= 3";
    check (updates >= 1) "--updates-per-phase must be >= 1";
    let log = if quiet then ignore else fun s -> Printf.eprintf "%s\n%!" s in
    let r =
      try
        Serve_nemesis.run
          {
            Serve_nemesis.default_config with
            Serve_nemesis.seed;
            partitions;
            updates_per_phase = updates;
            log;
          }
      with Serve_nemesis.Nemesis_timeout what -> die "nemesis wedged: %s" what
    in
    (match out with
    | Some path ->
        Out_channel.with_open_text path (fun oc ->
            output_string oc (Json.to_string (Serve_nemesis.report_to_json r));
            output_char oc '\n')
    | None -> ());
    Printf.printf
      "nemesis seed %d: %d partitions, %d/%d updates acked, %d promotions, %d fenced \
       demotions, recovery p50 %.0f ms p95 %.0f ms\n"
      r.Serve_nemesis.r_seed r.Serve_nemesis.r_partitions r.Serve_nemesis.r_updates_acked
      r.Serve_nemesis.r_updates_sent r.Serve_nemesis.r_auto_promotions
      r.Serve_nemesis.r_fenced_demotions r.Serve_nemesis.r_recovery_p50_ms
      r.Serve_nemesis.r_recovery_p95_ms;
    Printf.printf
      "invariants: single_writer=%b no_acked_lost=%b journals_converged=%b \
       plans_converged=%b verify_clean=%b\n"
      r.Serve_nemesis.r_single_writer_per_epoch r.Serve_nemesis.r_no_acked_update_lost
      r.Serve_nemesis.r_journals_converged r.Serve_nemesis.r_plan_digests_converged
      r.Serve_nemesis.r_journals_verify_clean;
    if Serve_nemesis.passed r then Printf.printf "PASSED\n"
    else begin
      Printf.printf "FAILED\n";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "nemesis"
       ~doc:"Partition-nemesis the replicated planning cluster: build a live \
             3-replica cluster behind fault-injecting proxies, run a seeded \
             schedule of partitions, heals, and a stale-leader revival while \
             pushing quorum-acked updates, then check the failover \
             invariants (single writer per epoch, no acknowledged update \
             lost, journal and plan convergence). Exits 1 when any invariant \
             fails.")
    Term.(
      const run $ setup_logs_term $ seed_arg $ partitions_arg $ updates_arg $ out_arg
      $ quiet_arg)

(* ----- dataplane / pump ----- *)

let dir_arg =
  Arg.(value & opt string "dataplane" & info [ "dir" ] ~docv:"DIR"
         ~doc:"Fleet directory: per-broker Unix sockets and the \
               $(b,fleet.json) manifest live here.")

let message_bytes_arg =
  Arg.(value & opt int 200 & info [ "message-bytes" ] ~docv:"N"
         ~doc:"Bytes per publication, recorded in the fleet manifest. The \
               brokers' queue model serves BC events per horizon, so the \
               size has no other effect.")

let dataplane_cmd =
  let replay_scenario_arg =
    Arg.(value & opt (some string) None & info [ "replay-scenario" ] ~docv:"FILE"
           ~doc:"Replay an elastic scenario over the live fleet: at each slice \
                 boundary the slice's rate deltas go through the incremental \
                 engine and the running brokers are re-homed onto the evolved \
                 plan, then the fleet shuts down. Without this flag the fleet \
                 serves until shut down externally.")
  in
  let slice_pace_arg =
    Arg.(value & opt float 0. & info [ "slice-pace" ] ~docv:"S"
           ~doc:"Wall seconds to hold each scenario slice before moving on \
                 (0 replays as fast as the re-homes complete).")
  in
  let run () problem plan dir message_bytes replay_scenario slice_pace =
    check (slice_pace >= 0.) "--slice-pace must be >= 0";
    let w, _, p = Lazy.force problem in
    let allocation, selection = require_plan ~workload:w plan in
    let scenario = Option.map require_scenario replay_scenario in
    Mcss_report.Fs.mkdir_p dir;
    let cluster = Dp_cluster.boot ~dir ~message_bytes p allocation in
    let manifest = Filename.concat dir "fleet.json" in
    Dp_cluster.save_manifest cluster manifest;
    let live = Dp_cluster.live cluster in
    Printf.printf "dataplane: %d brokers up, manifest %s\n" (List.length live)
      manifest;
    List.iter
      (fun (vm, addr) ->
        Printf.printf "  broker %d: %s (%d pairs)\n" vm
          (Serve_server.address_to_string addr)
          (Dp_cluster.pairs_on cluster vm))
      live;
    match scenario with
    | None ->
        Printf.printf "serving; stop with 'mcss pump --shutdown' or \
                       'mcss query shutdown -c <socket>' per broker\n%!";
        Dp_cluster.join cluster;
        print_endline "dataplane: all brokers stopped"
    | Some scenario ->
        (* Scenario replay: the engine evolves the plan slice by slice
           and the live fleet is reconciled onto each evolved plan —
           the dataplane twin of [mcss elastic]'s simulated week. An
           error on the way still shuts the fleet down. *)
        Fun.protect
          ~finally:(fun () -> Dp_cluster.shutdown cluster)
          (fun () ->
            let eng = Engine.of_plan { Engine.problem = p; selection; allocation } in
            Array.iteri
              (fun k batch ->
                let stats = Engine.apply eng batch in
                let plan = Engine.plan eng in
                let report =
                  Verifier.verify plan.Engine.problem plan.Engine.selection
                    plan.Engine.allocation
                in
                let apply = Dp_cluster.apply_plan cluster plan.Engine.allocation in
                Printf.printf
                  "slice %d: x%.3f rates, %d VM(s), re-home +%d/-%d pair(s), \
                   %d broker(s) spawned%s, verifier %s\n%!"
                  k
                  (Scenario.multiplier scenario ~slice:k)
                  (Engine.num_vms eng) apply.Dp_cluster.pairs_added
                  apply.Dp_cluster.pairs_removed apply.Dp_cluster.spawned
                  (if stats.Engine.resolved then " (drift re-solve)" else "")
                  (if Verifier.is_valid report then "CLEAN" else "VIOLATIONS");
                List.iter
                  (fun e -> Printf.printf "  broker error: %s\n" e)
                  apply.Dp_cluster.errors;
                if slice_pace > 0. then Unix.sleepf slice_pace)
              (Scenario.compile scenario w));
        print_endline "dataplane: scenario replayed, all brokers stopped"
  in
  Cmd.v
    (Cmd.info "dataplane"
       ~doc:"Boot a live broker fleet (one socket per planned VM) from a \
             solved plan and serve until shut down, or replay an elastic \
             scenario over it")
    Term.(
      const run $ setup_logs_term $ problem_term $ plan_arg $ dir_arg $ message_bytes_arg
      $ replay_scenario_arg $ slice_pace_arg)

let pump_cmd =
  let pace_arg =
    Arg.(value & opt float 0. & info [ "pace" ] ~docv:"S"
           ~doc:"Wall seconds per horizon; 0 pumps as fast as acks allow.")
  in
  let batch_arg =
    Arg.(value & opt int 64 & info [ "batch" ] ~docv:"N"
           ~doc:"Events per publish batch (acked synchronously).")
  in
  let tolerance_arg =
    Arg.(value & opt float 0. & info [ "tolerance" ] ~docv:"F"
           ~doc:"Reconciliation tolerance (max relative deviation against the \
                 simulator's predictions). Exit status 4 when exceeded.")
  in
  let no_reconcile_arg =
    Arg.(value & flag & info [ "no-reconcile" ]
           ~doc:"Skip the simulator comparison (e.g. while brokers are being \
                 re-homed or killed by another process).")
  in
  let latency_seed_arg =
    Arg.(value & opt int 1 & info [ "latency-seed" ] ~docv:"N"
           ~doc:"Seed for the end-to-end latency reservoir's eviction draws.")
  in
  let report_arg =
    Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE"
           ~doc:"Write the run report as JSON.")
  in
  let shutdown_arg =
    Arg.(value & flag & info [ "shutdown" ]
           ~doc:"Gracefully shut the fleet down after the run (drain, flush, \
                 exit).")
  in
  let run () problem plan dir duration pace batch tolerance no_reconcile latency_seed
      report_file shutdown =
    let w, _, p = Lazy.force problem in
    let allocation, _ = require_plan ~workload:w plan in
    let manifest = Filename.concat dir "fleet.json" in
    let cluster = try Dp_cluster.attach ~manifest allocation with Failure m -> die "%s" m in
    let config =
      {
        Dp_pump.default_config with
        Dp_pump.duration;
        pace;
        batch;
        latency_seed;
        tolerance = (if no_reconcile then None else Some tolerance);
      }
    in
    let r = try Dp_pump.run ~config cluster p allocation with Failure m -> die "%s" m in
    let totals = r.Dp_pump.totals in
    Printf.printf
      "pump: %d events -> %d copies sent, %d received (%d duplicates), %d \
       send failures, %d unrouted, %.2fs%s\n"
      r.Dp_pump.publisher.Mcss_dataplane.Publisher.events
      r.Dp_pump.publisher.Mcss_dataplane.Publisher.copies_sent
      r.Dp_pump.copies_received r.Dp_pump.duplicates
      r.Dp_pump.publisher.Mcss_dataplane.Publisher.send_failures
      r.Dp_pump.publisher.Mcss_dataplane.Publisher.unrouted r.Dp_pump.wall_s
      (if r.Dp_pump.quiesced then "" else " (quiesce timeout)");
    Format.printf "ledger:   %a@." Mcss_report.Delivery.pp totals;
    (match r.Dp_pump.latency with
    | None -> ()
    | Some l ->
        Printf.printf
          "latency:  p50 %.3f ms  p95 %.3f ms  p99 %.3f ms  max %.3f ms (%d \
           samples)\n"
          (l.Mcss_broker.Fleet.p50 *. 1e3)
          (l.Mcss_broker.Fleet.p95 *. 1e3)
          (l.Mcss_broker.Fleet.p99 *. 1e3)
          (l.Mcss_broker.Fleet.max *. 1e3)
          l.Mcss_broker.Fleet.samples);
    (match r.Dp_pump.reconcile with
    | None -> ()
    | Some rec_ -> Format.printf "%a@." Dp_reconcile.pp rec_);
    (match report_file with
    | None -> ()
    | Some path ->
        let open Json in
        let latency =
          match r.Dp_pump.latency with
          | None -> Null
          | Some l ->
              let ms x = Float (x *. 1e3) in
              Obj
                [
                  ("p50_ms", ms l.Mcss_broker.Fleet.p50);
                  ("p95_ms", ms l.Mcss_broker.Fleet.p95);
                  ("p99_ms", ms l.Mcss_broker.Fleet.p99);
                  ("max_ms", ms l.Mcss_broker.Fleet.max);
                  ("samples", Int l.Mcss_broker.Fleet.samples);
                ]
        in
        let reconcile =
          match r.Dp_pump.reconcile with
          | None -> Null
          | Some rc ->
              Obj
                [
                  ("pass", Bool rc.Dp_reconcile.pass);
                  ("max_deviation", Float rc.Dp_reconcile.max_deviation);
                  ("tolerance", Float rc.Dp_reconcile.tolerance);
                  ( "subscriber_mismatches",
                    Int (List.length rc.Dp_reconcile.subscriber_mismatches) );
                ]
        in
        let publisher = r.Dp_pump.publisher in
        let report =
          Obj
            (List.map (fun (k, v) -> (k, Int v)) (Mcss_report.Delivery.fields totals)
            @ [
                ("duplicates", Int r.Dp_pump.duplicates);
                ("send_failures", Int publisher.Mcss_dataplane.Publisher.send_failures);
                ("unrouted", Int publisher.Mcss_dataplane.Publisher.unrouted);
                ("quiesced", Bool r.Dp_pump.quiesced); ("wall_s", Float r.Dp_pump.wall_s);
                ("latency", latency); ("reconcile", reconcile);
              ])
        in
        Out_channel.with_open_text path (fun oc ->
            output_string oc (to_string report);
            output_char oc '\n');
        Printf.printf "report written to %s\n" path);
    if shutdown then begin
      List.iter
        (fun (_, addr) -> ignore (Dp_control.shutdown addr))
        (Dp_cluster.live cluster);
      print_endline "pump: fleet shutdown requested"
    end;
    match r.Dp_pump.reconcile with
    | Some rc when not rc.Dp_reconcile.pass ->
        prerr_endline "mcss pump: reconciliation deviation above tolerance";
        exit 4
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "pump"
       ~doc:"Pump trace-derived load through a running $(b,mcss dataplane) \
             fleet, collect the delivery ledgers, and reconcile them against \
             the simulator")
    Term.(
      const run $ setup_logs_term $ problem_term $ plan_arg $ dir_arg $ duration_arg
      $ pace_arg $ batch_arg $ tolerance_arg $ no_reconcile_arg $ latency_seed_arg
      $ report_arg $ shutdown_arg)

let query_cmd =
  let connect_arg =
    Arg.(value & opt string "unix:mcss.sock" & info [ "c"; "connect" ] ~docv:"ADDR"
           ~doc:"Server address: $(b,unix:PATH), $(b,HOST:PORT), $(b,:PORT) or a \
                 bare port.")
  in
  let verb_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"VERB"
           ~doc:"One of $(b,health), $(b,load), $(b,solve), $(b,update), \
                 $(b,whatif), $(b,chaos), $(b,stats), $(b,metrics), \
                 $(b,promote), $(b,shutdown), the dataplane control verbs \
                 $(b,drain), $(b,rehome), $(b,ledger) (sent to a broker \
                 socket from $(b,mcss dataplane)), or $(b,raw) (send the \
                 next positional argument verbatim).")
  in
  let add_pair_arg =
    Arg.(value & opt_all (pair ~sep:':' int int) [] & info [ "add" ] ~docv:"T:S"
           ~doc:"(topic, subscriber) pair for $(b,rehome) to add \
                 (repeatable; set semantics, replay-safe).")
  in
  let remove_pair_arg =
    Arg.(value & opt_all (pair ~sep:':' int int) [] & info [ "remove" ] ~docv:"T:S"
           ~doc:"(topic, subscriber) pair for $(b,rehome) to remove \
                 (repeatable).")
  in
  let raw_json_arg =
    Arg.(value & pos 1 (some string) None & info [] ~docv:"JSON"
           ~doc:"Raw request line for $(b,raw).")
  in
  let digest_arg =
    Arg.(value & opt (some string) None & info [ "digest" ] ~docv:"HEX"
           ~doc:"Workload digest returned by $(b,load).")
  in
  let taus_arg =
    Arg.(value & opt_all float [] & info [ "tau" ] ~docv:"F"
           ~doc:"Satisfaction threshold (repeat for a $(b,whatif) sweep).")
  in
  let deadline_arg =
    Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Per-request deadline; exceeding it yields a $(b,timeout) error.")
  in
  let faults_arg =
    Arg.(value & opt_all string [] & info [ "fault" ] ~docv:"SPEC"
           ~doc:"Fault spec for $(b,chaos) (repeatable), as in $(b,mcss chaos).")
  in
  let retries_arg =
    Arg.(value & opt int 1 & info [ "retries" ] ~docv:"N"
           ~doc:"Total attempts (including the first). Transport failures and \
                 $(b,overloaded)/$(b,timeout) replies are retried on a fresh \
                 connection with jittered exponential backoff.")
  in
  let retry_base_arg =
    Arg.(value & opt float Serve_retry.default_policy.Serve_retry.base_ms
         & info [ "retry-base-ms" ] ~docv:"MS"
           ~doc:"Backoff lower bound per retry (cap is 2000 ms).")
  in
  let timeout_arg =
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"MS"
           ~doc:"Per-attempt timeout: socket receive timeout and, unless \
                 --deadline-ms is given, the request's deadline.")
  in
  let epoch_arg =
    Arg.(value & opt (some int) None & info [ "epoch" ] ~docv:"E"
           ~doc:"Fencing epoch for $(b,promote)/$(b,demote). A promote \
                 without it bumps the member's own epoch by one; a demote \
                 requires it and is refused unless it is strictly above the \
                 member's epoch (fenced — a stray demote cannot depose a \
                 current leader).")
  in
  let run () connect verb raw_json wfile digest deltas_file taus instance_name
      bc_events config_name deadline faults campaign_seed epochs zones retries
      retry_base timeout add_pairs remove_pairs epoch =
    let address = or_die (Serve_server.address_of_string connect) in
    let params tau =
      {
        Serve_protocol.tau;
        instance = instance_name;
        bc_events;
        config = config_name;
      }
    in
    let need_digest () =
      match digest with
      | Some d -> d
      | None -> die "--digest is required (run 'mcss query load -w FILE' first)"
    in
    let read_file what = function
      | Some path -> In_channel.with_open_bin path In_channel.input_all
      | None -> die "%s" what
    in
    let one_tau () = match taus with [] -> 100. | t :: _ -> t in
    let request =
      match verb with
      | "health" -> `Envelope Serve_protocol.Health
      | "stats" -> `Envelope Serve_protocol.Stats
      | "metrics" -> `Envelope Serve_protocol.Metrics
      | "shutdown" -> `Envelope Serve_protocol.Shutdown
      | "promote" -> `Envelope (Serve_protocol.Promote { epoch })
      | "demote" -> (
          match epoch with
          | Some e -> `Envelope (Serve_protocol.Demote { epoch = e })
          | None ->
              die "demote needs --epoch E (strictly above the member's epoch: \
                   demotion is fenced)")
      | "drain" -> `Envelope Serve_protocol.Drain
      | "ledger" -> `Envelope Serve_protocol.Ledger
      | "rehome" ->
          check (add_pairs <> [] || remove_pairs <> [])
            "rehome needs --add T:S and/or --remove T:S";
          `Envelope (Serve_protocol.Rehome { add = add_pairs; remove = remove_pairs })
      | "load" ->
          let text = read_file "load needs -w FILE (sent inline, content-addressed)" wfile in
          `Envelope (Serve_protocol.Load (`Inline text))
      | "solve" ->
          let digest = need_digest () in
          `Envelope (Serve_protocol.Solve { digest; params = params (one_tau ()) })
      | "update" ->
          let digest = need_digest () in
          let deltas = read_file "update needs --deltas FILE (mcss-deltas format)" deltas_file in
          `Envelope (Serve_protocol.Update { digest; params = params (one_tau ()); deltas })
      | "whatif" ->
          let digest = need_digest () in
          let taus = if taus = [] then [ 10.; 100.; 1000. ] else taus in
          `Envelope (Serve_protocol.Whatif { digest; params = params 100.; taus })
      | "chaos" ->
          let digest = need_digest () in
          `Envelope
            (Serve_protocol.Chaos
               { digest; params = params (one_tau ()); seed = campaign_seed; epochs; zones; faults })
      | "raw" -> (
          match raw_json with
          | Some line -> `Raw line
          | None -> die "raw needs a JSON argument")
      | other -> die "unknown query verb %S" other
    in
    check (retries >= 1) "--retries must be >= 1";
    let policy =
      {
        Serve_retry.default_policy with
        Serve_retry.max_attempts = retries;
        base_ms = retry_base;
        attempt_timeout_ms = timeout;
      }
    in
    let result =
      match request with
      | `Raw line -> (
          (* Raw lines bypass the protocol codec, so they also bypass
             the retry layer (we cannot tell if they are idempotent). *)
          match Json.parse line with
          | Error m -> Error ("request is not valid JSON: " ^ m)
          | Ok j ->
              Serve_client.with_connection address (fun c ->
                  Serve_client.request c j))
      | `Envelope req ->
          let outcome =
            Serve_client.call ~policy address
              { Serve_protocol.id = None; deadline_ms = deadline; request = req }
          in
          if outcome.Serve_retry.attempts > 1 then
            prerr_endline
              (Printf.sprintf "mcss query: %d attempts, %.0f ms backing off"
                 outcome.Serve_retry.attempts
                 outcome.Serve_retry.total_backoff_ms);
          outcome.Serve_retry.result
    in
    (* Exit status: 0 on a full answer, 2 when the service degraded or
       shed the request (retry later; see the protocol docs), 3 when a
       whole shard was unreachable behind the router (no_quorum — page
       someone), 1 on hard errors — so scripts can tell them apart. *)
    match result with
    | Error m -> die "%s" m
    | Ok reply ->
        if Serve_protocol.response_ok reply then begin
          (match
             (verb, Json.member "body" reply
                    |> Fun.flip Option.bind Json.to_string_opt)
           with
          | "metrics", Some body -> print_string body
          | _ -> print_endline (Json.to_string reply));
          if Serve_protocol.response_degraded reply then begin
            prerr_endline "mcss query: degraded reply (stale plan served)";
            exit 2
          end
        end
        else begin
          let code =
            match Serve_protocol.response_error reply with
            | Some (code, message) ->
                prerr_endline
                  (Printf.sprintf "mcss query: %s: %s"
                     (match code with
                     | Some c -> Serve_protocol.error_code_to_string c
                     | None -> "error")
                     message);
                code
            | None ->
                prerr_endline "mcss query: request failed";
                None
          in
          print_endline (Json.to_string reply);
          match code with
          | Some Serve_protocol.Degraded | Some Serve_protocol.Overloaded -> exit 2
          | Some Serve_protocol.No_quorum -> exit 3
          | _ -> exit 1
        end
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Send one request to a running $(b,mcss serve) and print the reply")
    Term.(
      const run $ setup_logs_term $ connect_arg $ verb_arg $ raw_json_arg $ workload_file
      $ digest_arg $ deltas_opt_arg $ taus_arg $ instance_arg $ bc_events_arg $ config_arg
      $ deadline_arg $ faults_arg $ campaign_seed_arg $ epochs_arg $ zones_arg
      $ retries_arg $ retry_base_arg $ timeout_arg $ add_pair_arg $ remove_pair_arg
      $ epoch_arg)

(* ----- version ----- *)

let version_cmd =
  let run () = print_endline ("mcss " ^ Build_info.to_string ()) in
  Cmd.v
    (Cmd.info "version"
       ~doc:"Print the package version (and git describe when available)")
    Term.(const run $ const ())

let main_cmd =
  let doc = "cost-effective resource allocation for pub/sub on cloud (ICDCS'14)" in
  Cmd.group
    (Cmd.info "mcss" ~version:Mcss_serve.Build_info.version ~doc)
    [
      generate_cmd; solve_cmd; lower_bound_cmd; analyze_cmd; simulate_cmd; update_cmd;
      budget_cmd; convert_cmd; export_lp_cmd; verify_cmd; chaos_cmd; elastic_cmd;
      profile_cmd; serve_cmd; route_cmd; journal_cmd; nemesis_cmd; query_cmd;
      dataplane_cmd;
      pump_cmd; version_cmd;
    ]

(* The one error rule (see the header): the errors a body detects by
   raising are printed here, once, for every subcommand. Any other
   exception is a bug, reported as cmdliner reports one. *)
let () =
  match Cmd.eval ~catch:false main_cmd with
  | code -> exit code
  | exception Problem.Infeasible m -> die "infeasible: %s" m
  | exception (Invalid_argument m | Sys_error m) -> die "%s" m
  | exception e ->
      prerr_endline ("mcss: internal error, uncaught exception:\n" ^ Printexc.to_string e);
      exit Cmd.Exit.internal_error
