(* The experiment harness: regenerates every table and figure of the
   paper's evaluation (§IV and Appendix D) on the synthetic traces, plus
   Bechamel microbenchmarks of the algorithmic kernels.

   Figure index (see DESIGN.md §4 and EXPERIMENTS.md):
     fig1        worked example of §III-B
     fig2a/fig2b Spotify cost ladder, BC = 64 / 128 mbps
     fig3a/fig3b Twitter cost ladder, BC = 64 / 128 mbps
     fig4/fig5   Stage-1 runtimes (GSP vs RSP), Spotify / Twitter
     fig6/fig7   Stage-2 runtimes (CBP vs FFBP), Spotify / Twitter
     fig8..fig12 Twitter trace analysis (CCDFs, celebrity anomaly)
     summary     §IV-F savings summary
     micro       Bechamel kernel benchmarks

   Absolute capacity: the paper's cost figures imply an effective per-VM
   capacity of ~5e7 events per 10-day horizon for c3.large (total
   bandwidth divided by VM count at high tau); we use that
   utilisation-consistent constant, scaled by the trace scale, so VM
   counts land in the paper's regime. See EXPERIMENTS.md. *)

module Workload = Mcss_workload.Workload
module Stats = Mcss_workload.Stats
module Instance = Mcss_pricing.Instance
module Cost_model = Mcss_pricing.Cost_model
module Problem = Mcss_core.Problem
module Selection = Mcss_core.Selection
module Allocation = Mcss_core.Allocation
module Solver = Mcss_core.Solver
module Verifier = Mcss_core.Verifier
module Lower_bound = Mcss_core.Lower_bound
module Simulator = Mcss_sim.Simulator
module Table = Mcss_report.Table
module Series = Mcss_report.Series
module Front = Mcss_front.Front
module Engine = Mcss_engine.Engine
module Clock = Mcss_obs.Clock
module Json = Mcss_json.Json

let taus = [ 10.; 100.; 1000. ]

(* Monotonic wall-clock timing for every harness measurement (the
   sub-second ones care; the seconds-long ones lose nothing). *)
let timed f =
  let t0 = Clock.now_ns () in
  let x = f () in
  (x, Clock.seconds_since t0)

(* Peak RSS and GC major-heap pressure, sampled when a section writes
   its BENCH_*.json — speed without the memory bill is half a result. *)
let runtime_json () = Mcss_obs.Runtime_stats.(to_json (sample ()))

(* Every section's machine-readable summary: one JSON document written
   to [out_dir/name], creating the directory first. *)
let write_json ~out_dir name doc =
  Mcss_report.Fs.mkdir_p out_dir;
  let path = Filename.concat out_dir name in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string doc);
      output_char oc '\n');
  Printf.printf "wrote %s\n" path

(* Every seeded generator in the harness derives from one --trace-seed,
   so a whole bench run (and both BENCH_*.json files) is reproducible
   from a single number. Offsets keep the streams distinct. *)
type seeds = {
  trace_seed : int;
  spotify : int;
  twitter : int;
  scaling : int;
  skew : int;
  micro : int;
  dynamic : int;
  engine : int;
  fleet : int;
  dataplane : int;
  elastic : int;
  partition : int;
}

let default_trace_seed = 20130109

let derive_seeds trace_seed =
  {
    trace_seed;
    spotify = trace_seed;
    twitter = trace_seed + 1;
    scaling = trace_seed + 2;
    skew = trace_seed + 3;
    micro = trace_seed + 4;
    dynamic = trace_seed + 5;
    engine = trace_seed + 6;
    fleet = trace_seed + 7;
    dataplane = trace_seed + 8;
    elastic = trace_seed + 9;
    partition = trace_seed + 10;
  }

let bc_events = Front.bc_events

(* A latency block in milliseconds, e.g. {"p50":..,"p99":..}, read off
   a percentile function over seconds. *)
let latency_ms pct ps =
  Json.Obj (List.map (fun p -> (Printf.sprintf "p%.0f" (p *. 100.), Json.Float (pct p *. 1e3))) ps)

(* The leading fields of every Spotify-trace section's summary. *)
let spotify_header ~scenario ~seeds ~scale =
  Json.
    [
      ("scenario", String scenario); ("runtime", runtime_json ());
      ("version", String (Mcss_serve.Build_info.to_string ()));
      ("trace_seed", Int seeds.trace_seed); ("trace", String "spotify"); ("scale", Float scale);
    ]

type run = {
  config_name : string;
  cost : float;
  vms : int;
  bw_gb : float;
  stage1_s : float;
  stage2_s : float;
}

type tau_results = {
  tau : float;
  runs : run list;  (* ladder order *)
  lb : Lower_bound.t;
  lb_bw_gb : float;
}

let solve_matrix ~w ~scale ~instance =
  let model = Cost_model.ec2_2014 ~instance () in
  let capacity_events = bc_events ~scale instance in
  List.map
    (fun tau ->
      let p = Problem.of_pricing ~capacity_events ~workload:w ~tau model in
      let runs =
        List.map
          (fun (config_name, config) ->
            let r = Solver.solve ~config p in
            let report = Verifier.verify p r.Solver.selection r.Solver.allocation in
            if not (Verifier.is_valid report) then
              failwith
                (Printf.sprintf "%s (tau=%g): allocation failed verification"
                   config_name tau);
            {
              config_name;
              cost = r.Solver.cost;
              vms = r.Solver.num_vms;
              bw_gb = Cost_model.gb_of_events model r.Solver.bandwidth;
              stage1_s = r.Solver.stage1_seconds;
              stage2_s = r.Solver.stage2_seconds;
            })
          Solver.ladder
      in
      let lb = Lower_bound.compute p in
      {
        tau;
        runs;
        lb;
        lb_bw_gb = Cost_model.gb_of_events model lb.Lower_bound.bandwidth;
      })
    taus

let section_header fig title = Printf.printf "\n=== %s: %s ===\n" fig title

(* One cost-ladder figure (Figs. 2a/2b/3a/3b): cost, #VMs and bandwidth
   per ladder configuration and per tau, plus the lower bound. *)
let print_cost_figure ~fig ~title results =
  section_header fig title;
  let headers =
    ("configuration", Table.Left)
    :: List.concat_map
         (fun { tau; _ } ->
           let t = Printf.sprintf "t=%g" tau in
           [
             (t ^ " cost", Table.Right);
             (t ^ " VMs", Table.Right);
             (t ^ " GB", Table.Right);
           ])
         results
  in
  let table = Table.create headers in
  let config_names = List.map (fun r -> r.config_name) (List.hd results).runs in
  List.iter
    (fun name ->
      let cells =
        List.concat_map
          (fun { runs; _ } ->
            let r = List.find (fun r -> r.config_name = name) runs in
            [
              Table.cell_usd r.cost;
              string_of_int r.vms;
              Table.cell_float ~decimals:1 r.bw_gb;
            ])
          results
      in
      Table.add_row table (name :: cells))
    config_names;
  Table.add_separator table;
  Table.add_row table
    ("lower bound"
    :: List.concat_map
         (fun { lb; lb_bw_gb; _ } ->
           [
             Table.cell_usd lb.Lower_bound.cost;
             string_of_int lb.Lower_bound.vms;
             Table.cell_float ~decimals:1 lb_bw_gb;
           ])
         results);
  Table.print table;
  (* The headline comparisons, as the paper reports them. *)
  List.iter
    (fun { tau; runs; lb; _ } ->
      let naive = (List.hd runs).cost in
      let best = (List.nth runs (List.length runs - 1)).cost in
      Printf.printf
        "tau=%-6g saving vs naive: %5.1f%%   gap over lower bound: %+.1f%%\n" tau
        (Table.pct_change ~baseline:naive best)
        (Lower_bound.gap_pct ~cost:best lb))
    results

(* Stage-1 runtime figure (Figs. 4/5): GSP vs RSP seconds per tau. *)
let print_stage1_runtime_figure ~fig ~title results =
  section_header fig title;
  let table =
    Table.create
      [
        ("tau", Table.Right);
        ("GreedySelectPairs s", Table.Right);
        ("RandomSelectPairs s", Table.Right);
      ]
  in
  List.iter
    (fun { tau; runs; _ } ->
      let find name = List.find (fun r -> r.config_name = name) runs in
      let gsp = (find "(a) GSP+FFBP").stage1_s in
      let rsp = (find "RSP+FFBP").stage1_s in
      Table.add_row table
        [
          Printf.sprintf "%g" tau;
          Table.cell_float ~decimals:3 gsp;
          Table.cell_float ~decimals:3 rsp;
        ])
    results;
  Table.print table

(* Stage-2 runtime figure (Figs. 6/7): CBP (all optimisations) vs FFBP. *)
let print_stage2_runtime_figure ~fig ~title results =
  section_header fig title;
  let table =
    Table.create
      [
        ("tau", Table.Right);
        ("CustomBinPacking s", Table.Right);
        ("FFBinPacking s", Table.Right);
        ("speedup", Table.Right);
      ]
  in
  List.iter
    (fun { tau; runs; _ } ->
      let find name = List.find (fun r -> r.config_name = name) runs in
      let cbp = (find "(e) +cost-decision").stage2_s in
      let ffbp = (find "(a) GSP+FFBP").stage2_s in
      Table.add_row table
        [
          Printf.sprintf "%g" tau;
          Table.cell_float ~decimals:3 cbp;
          Table.cell_float ~decimals:3 ffbp;
          (if cbp > 0. then Printf.sprintf "%.0fx" (ffbp /. cbp) else "-");
        ])
    results;
  Table.print table

(* Fig. 1, the worked example of §III-B, re-run through the real code. *)
let fig1 () =
  section_header "fig1" "worked allocation example (Section III-B)";
  let w =
    Workload.create ~event_rates:[| 20.; 10. |]
      ~interests:[| [| 0; 1 |]; [| 0; 1 |]; [| 1 |] |]
  in
  let p = Problem.create ~workload:w ~tau:30. ~capacity:50. Problem.unit_costs in
  let table =
    Table.create
      [ ("strategy", Table.Left); ("VMs", Table.Right); ("KB/min", Table.Right) ]
  in
  List.iter
    (fun (name, config) ->
      let r = Solver.solve ~config p in
      Table.add_row table
        [
          name;
          string_of_int r.Solver.num_vms;
          Table.cell_float ~decimals:0 r.Solver.bandwidth;
        ])
    Solver.ladder;
  Table.print table;
  print_endline
    "(with BC = 50 KB/min the optimum is forced to 3 VMs / 120 KB/min; the\n\
     paper's 80-vs-50 KB/min contrast relies on its pre-occupied VMs, which\n\
     the trace-scale ladders below reproduce in aggregate)"

(* Figs. 8-12: the Twitter trace analysis. Prints compact summaries and
   saves full data series for plotting. *)
let trace_analysis ~out_dir w =
  let followers = Stats.follower_counts w in
  let followings = Stats.interest_counts w in
  let rates = Workload.event_rates w in

  section_header "fig8" "CCDF of #followers and #followings (Twitter)";
  let ccdf_followers = Stats.ccdf_int followers in
  let ccdf_followings = Stats.ccdf_int followings in
  let sample name ccdf =
    let arr = Array.of_list ccdf in
    let n = Array.length arr in
    Printf.printf "%-12s %d distinct values; " name n;
    List.iter
      (fun q ->
        let i = min (n - 1) (int_of_float (float_of_int (n - 1) *. q)) in
        let x, p = arr.(i) in
        Printf.printf "CCDF(%d)=%.2e  " x p)
      [ 0.; 0.5; 0.9; 1.0 ];
    print_newline ()
  in
  sample "#followers" ccdf_followers;
  sample "#followings" ccdf_followings;
  (match (List.assoc_opt 19 ccdf_followings, List.assoc_opt 20 ccdf_followings) with
  | Some p19, Some p20 ->
      Printf.printf "followings glitch at 20: CCDF drops %.3f -> %.3f across it\n" p19 p20
  | _ -> ());
  let float_ccdf ccdf = List.map (fun (x, p) -> (float_of_int x, p)) ccdf in
  (match Mcss_workload.Fit.powerlaw_exponent_of_ccdf (float_ccdf ccdf_followers) with
  | Some alpha -> Printf.printf "fitted follower-tail exponent: %.2f\n" alpha
  | None -> ());
  Series.save_all ~dir:out_dir
    [
      Series.of_int_pairs ~name:"fig8_ccdf_followers" ccdf_followers;
      Series.of_int_pairs ~name:"fig8_ccdf_followings" ccdf_followings;
    ];
  Mcss_report.Plot.save ~dir:out_dir ~name:"fig8"
    {
      Mcss_report.Plot.title = "CCDF of #followers / #followings";
      xlabel = "count";
      ylabel = "CCDF";
      xaxis = Mcss_report.Plot.Log;
      yaxis = Mcss_report.Plot.Log;
      style = Mcss_report.Plot.Lines;
      series =
        [
          ("#followers", "fig8_ccdf_followers.dat");
          ("#followings", "fig8_ccdf_followings.dat");
        ];
    };

  section_header "fig9" "CCDF of event rate (tweets per 10 days)";
  let s = Stats.summarize rates in
  Printf.printf
    "mean %.1f  p50 %.0f  p90 %.0f  p99 %.0f  max %.0f  (over %d active topics)\n"
    s.Stats.mean s.Stats.p50 s.Stats.p90 s.Stats.p99 s.Stats.max s.Stats.count;
  let below10 =
    Array.fold_left (fun acc r -> if r < 10. then acc + 1 else acc) 0 rates
  in
  Printf.printf "topics below 10 events: %.0f%% (paper: ~50%%)\n"
    (100. *. float_of_int below10 /. float_of_int (Array.length rates));
  Series.save ~dir:out_dir
    (Series.of_pairs ~name:"fig9_ccdf_rate" (Stats.ccdf_float rates));

  section_header "fig10" "mean event rate vs #followers (celebrity anomaly)";
  let by_followers = Stats.mean_rate_by_followers w in
  let buckets =
    [ (1, 10); (11, 100); (101, 1000); (1001, 10000); (10001, max_int) ]
  in
  List.iter
    (fun (lo, hi) ->
      let in_bucket = List.filter (fun (k, _) -> k >= lo && k <= hi) by_followers in
      if in_bucket <> [] then begin
        let mean =
          List.fold_left (fun acc (_, m) -> acc +. m) 0. in_bucket
          /. float_of_int (List.length in_bucket)
        in
        Printf.printf "followers %7d..%-7s mean rate %10.1f\n" lo
          (if hi = max_int then "inf" else string_of_int hi)
          mean
      end)
    buckets;
  Series.save ~dir:out_dir
    (Series.of_int_pairs ~name:"fig10_rate_by_followers" by_followers);

  section_header "fig11" "CCDF of subscription cardinality";
  let sc = Stats.subscription_cardinalities w in
  let nonzero = Array.of_list (List.filter (fun x -> x > 0.) (Array.to_list sc)) in
  if Array.length nonzero > 0 then begin
    let s = Stats.summarize nonzero in
    Printf.printf "SC%% over subscribers: mean %.4f  p50 %.4f  p99 %.4f  max %.4f\n"
      s.Stats.mean s.Stats.p50 s.Stats.p99 s.Stats.max
  end;
  Series.save ~dir:out_dir (Series.of_pairs ~name:"fig11_ccdf_sc" (Stats.ccdf_float sc));

  section_header "fig12" "mean subscription cardinality vs #followings";
  let by_followings = Stats.mean_sc_by_interests w in
  List.iter
    (fun k ->
      match List.assoc_opt k by_followings with
      | Some m -> Printf.printf "followings %5d  mean SC %.5f%%\n" k m
      | None -> ())
    [ 1; 10; 20; 100; 2000 ];
  Series.save ~dir:out_dir
    (Series.of_int_pairs ~name:"fig12_sc_by_followings" by_followings);
  List.iter
    (fun (name, title, ylabel, dat) ->
      Mcss_report.Plot.save ~dir:out_dir ~name
        {
          Mcss_report.Plot.title;
          xlabel = "x";
          ylabel;
          xaxis = Mcss_report.Plot.Log;
          yaxis = Mcss_report.Plot.Log;
          style = Mcss_report.Plot.Points;
          series = [ (title, dat) ];
        })
    [
      ("fig9", "CCDF of event rate", "CCDF", "fig9_ccdf_rate.dat");
      ("fig10", "mean event rate vs #followers", "mean rate", "fig10_rate_by_followers.dat");
      ("fig11", "CCDF of subscription cardinality", "CCDF", "fig11_ccdf_sc.dat");
      ("fig12", "mean SC vs #followings", "mean SC %", "fig12_sc_by_followings.dat");
    ]

(* §IV-F: the summary row the paper closes its evaluation with, plus an
   end-to-end replay through the discrete-event simulator as a sanity
   check on the winning allocation. *)
let summary ~spotify ~twitter ~spotify_scale ~twitter_scale =
  section_header "summary" "total savings (Section IV-F) and simulated replay";
  let line name w scale paper_saving =
    let model = Cost_model.ec2_2014 () in
    let capacity_events = bc_events ~scale Instance.c3_large in
    let best_saving = ref 0. and best_gap = ref infinity in
    List.iter
      (fun tau ->
        let p = Problem.of_pricing ~capacity_events ~workload:w ~tau model in
        let naive = Solver.solve ~config:Solver.naive p in
        let best = Solver.solve ~config:Solver.default p in
        let lb = Lower_bound.compute p in
        let saving = Table.pct_change ~baseline:naive.Solver.cost best.Solver.cost in
        let gap = Lower_bound.gap_pct ~cost:best.Solver.cost lb in
        if saving > !best_saving then best_saving := saving;
        if gap < !best_gap then best_gap := gap;
        if tau = 100. then begin
          let res = Simulator.run p best.Solver.allocation Simulator.default_config in
          let ok =
            Simulator.all_ok (Simulator.check p best.Solver.allocation res ~tolerance:0.)
          in
          Printf.printf
            "%s tau=100: simulated %d events through %d VMs; measured = analytical: %b\n"
            name res.Simulator.events_published best.Solver.num_vms ok
        end)
      taus;
    Printf.printf
      "%-8s max saving vs naive %.1f%% (paper: %s); min gap over LB %.1f%% (paper: ~15%%)\n"
      name !best_saving paper_saving !best_gap
  in
  line "spotify" spotify spotify_scale "38%";
  line "twitter" twitter twitter_scale "74%"

(* Bechamel microbenchmarks of the kernels. *)
let micro ~seeds () =
  section_header "micro" "kernel microbenchmarks (Bechamel)";
  let open Bechamel in
  let rng = Mcss_prng.Rng.create (seeds.micro lxor 99) in
  let w =
    Mcss_traces.Spotify.generate
      { (Mcss_traces.Spotify.scaled 0.001) with Mcss_traces.Spotify.seed = seeds.micro }
  in
  let p =
    Problem.create ~workload:w ~tau:100. ~capacity:50_000.
      (Problem.linear_costs ~vm_usd:36. ~per_event_usd:1e-7)
  in
  let selection = Selection.gsp p in
  let zipf = Mcss_prng.Dist.Zipf.create ~n:100_000 ~s:1.0 in
  let tests =
    [
      Test.make ~name:"stage1/gsp" (Staged.stage (fun () -> ignore (Selection.gsp p)));
      Test.make ~name:"stage1/gsp-parallel"
        (Staged.stage (fun () -> ignore (Selection.gsp_parallel p)));
      Test.make ~name:"stage1/rsp" (Staged.stage (fun () -> ignore (Selection.rsp p)));
      Test.make ~name:"stage2/ffbp"
        (Staged.stage (fun () -> ignore (Mcss_core.Ffbp.run p selection)));
      Test.make ~name:"stage2/cbp"
        (Staged.stage (fun () ->
             ignore (Mcss_core.Cbp.run p selection Mcss_core.Cbp.with_cost_decision)));
      Test.make ~name:"lower-bound"
        (Staged.stage (fun () -> ignore (Lower_bound.compute p)));
      Test.make ~name:"zipf-sample"
        (Staged.stage (fun () -> ignore (Mcss_prng.Dist.Zipf.sample zipf rng)));
    ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
    let raw = Benchmark.all cfg [ instance ] test in
    let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
    Analyze.all ols instance raw
  in
  let table = Table.create [ ("kernel", Table.Left); ("time/run", Table.Right) ] in
  List.iter
    (fun test ->
      let results = benchmark test in
      Hashtbl.iter
        (fun name ols ->
          let nanos =
            match Analyze.OLS.estimates ols with Some (t :: _) -> t | _ -> nan
          in
          let cell =
            if Float.is_nan nanos then "n/a"
            else if nanos > 1e9 then Printf.sprintf "%.2f s" (nanos /. 1e9)
            else if nanos > 1e6 then Printf.sprintf "%.2f ms" (nanos /. 1e6)
            else if nanos > 1e3 then Printf.sprintf "%.2f us" (nanos /. 1e3)
            else Printf.sprintf "%.0f ns" nanos
          in
          Table.add_row table [ name; cell ])
        results)
    tests;
  Table.print table

(* ----- Ablations beyond the paper (DESIGN.md section 4) ----- *)

(* Stage-1 ablation: the paper's two selectors, plus the per-subscriber
   optimal DP it mentions but rejects for speed, plus the cross-subscriber
   global greedy extension. Packed with full CBP so the end-to-end cost
   differences are attributable to selection alone. *)
let ablate_stage1 ~title ~w ~scale =
  section_header "ablate-stage1" title;
  let model = Cost_model.ec2_2014 () in
  let capacity_events = bc_events ~scale Instance.c3_large in
  let p = Problem.of_pricing ~capacity_events ~workload:w ~tau:100. model in
  let table =
    Table.create
      [
        ("selector", Table.Left);
        ("pairs", Table.Right);
        ("selected rate", Table.Right);
        ("cost after CBP", Table.Right);
        ("time s", Table.Right);
      ]
  in
  let pack s = Mcss_core.Cbp.run p s Mcss_core.Cbp.with_cost_decision in
  let row name selection seconds =
    let a = pack selection in
    let cost =
      Problem.cost p ~vms:(Allocation.num_vms a) ~bandwidth:(Allocation.total_load a)
    in
    Table.add_row table
      [
        name;
        string_of_int selection.Selection.num_pairs;
        Printf.sprintf "%.3e" selection.Selection.outgoing_rate;
        Table.cell_usd cost;
        Table.cell_float ~decimals:3 seconds;
      ]
  in
  let s, t = timed (fun () -> Selection.rsp p) in
  row "RSP (naive)" s t;
  let s, t = timed (fun () -> Selection.gsp p) in
  row "GSP (paper)" s t;
  let s, t = timed (fun () -> Mcss_core.Global_greedy.select p) in
  row "global greedy (ext)" s t;
  (match timed (fun () -> Selection.optimal_per_subscriber p) with
  | Some s, t -> row "per-subscriber DP" s t
  | None, _ -> Table.add_row table [ "per-subscriber DP"; "-"; "-"; "-"; "-" ]);
  Table.print table

(* Stage-2 ablation: the paper's FFBP and CBP bracketed by the textbook
   next-fit and best-fit-decreasing, all on the same GSP selection. *)
let ablate_stage2 ~title ~w ~scale =
  section_header "ablate-stage2" title;
  let model = Cost_model.ec2_2014 () in
  let capacity_events = bc_events ~scale Instance.c3_large in
  let p = Problem.of_pricing ~capacity_events ~workload:w ~tau:100. model in
  let s = Selection.gsp p in
  let table =
    Table.create
      [
        ("packer", Table.Left);
        ("VMs", Table.Right);
        ("BW GB", Table.Right);
        ("cost", Table.Right);
        ("time s", Table.Right);
      ]
  in
  List.iter
    (fun (name, run) ->
      let a, seconds = timed (fun () -> run p s) in
      let report = Verifier.verify p s a in
      if not (Verifier.is_valid report) then failwith (name ^ ": invalid packing");
      Table.add_row table
        [
          name;
          string_of_int (Allocation.num_vms a);
          Table.cell_float ~decimals:2 (Cost_model.gb_of_events model (Allocation.total_load a));
          Table.cell_usd
            (Problem.cost p ~vms:(Allocation.num_vms a)
               ~bandwidth:(Allocation.total_load a));
          Table.cell_float ~decimals:3 seconds;
        ])
    [
      ("next-fit", Mcss_core.Baselines.next_fit);
      ("first-fit (paper FFBP)", (fun p s -> Mcss_core.Ffbp.run p s));
      ("best-fit decreasing", Mcss_core.Baselines.best_fit_decreasing);
      ("CBP grouping only (b)", fun p s -> Mcss_core.Cbp.run p s Mcss_core.Cbp.grouping_only);
      ("CBP all opts (e)", fun p s -> Mcss_core.Cbp.run p s Mcss_core.Cbp.with_cost_decision);
    ];
  Table.print table

(* Dynamic ablation: a week of churn, incremental planner vs cold
   re-solve — cost gap, pair churn, runtime. *)
let ablate_dynamic ~seeds ~w =
  section_header "ablate-dynamic" "incremental reprovisioning vs cold re-solve";
  let module Churn = Mcss_dynamic.Churn in
  let module Delta = Mcss_engine.Delta in
  let rng = Mcss_prng.Rng.create seeds.dynamic in
  let problem_for w =
    Problem.of_pricing ~capacity_events:250_000. ~workload:w ~tau:100.
      (Cost_model.ec2_2014 ())
  in
  let churn w = Churn.tick rng (Churn.scaled 1.5) w in
  let w = ref w in
  let eng = Engine.create ~drift_threshold:infinity (problem_for !w) in
  let incr_time = ref 0. and cold_time = ref 0. in
  let moved = ref 0 and total = ref 0 in
  let incr_cost = ref 0. and cold_cost = ref 0. in
  for _day = 1 to 5 do
    w := Delta.apply !w (churn !w);
    let p = problem_for !w in
    let stats, s = timed (fun () -> Engine.retarget eng p) in
    incr_time := !incr_time +. s;
    let cold, s = timed (fun () -> Solver.solve p) in
    cold_time := !cold_time +. s;
    moved := !moved + stats.Engine.pairs_added + stats.Engine.pairs_evicted;
    total := !total + stats.Engine.pairs_kept + stats.Engine.pairs_added;
    incr_cost := !incr_cost +. Engine.cost eng;
    cold_cost := !cold_cost +. cold.Solver.cost
  done;
  Printf.printf
    "5 churn ticks: incremental moved %.2f%% of pairs per tick (a cold\n\
     re-solve migrates nearly all of them); cost ratio incremental/cold = %.3f;\n\
     runtime incremental %.3fs vs cold %.3fs\n"
    (100. *. float_of_int !moved /. float_of_int (max 1 !total))
    (!incr_cost /. !cold_cost) !incr_time !cold_time;
  (* Shrink phase: demand drops (tau 100 -> 30, e.g. the product lowers
     its notification budget). The incremental planner removes the now
     unneeded pairs in place, leaving a fragmented half-empty fleet; the
     bounded-migration consolidation pass then reclaims whole VMs. *)
  let p_small =
    Problem.of_pricing ~capacity_events:250_000. ~workload:!w ~tau:30.
      (Cost_model.ec2_2014 ())
  in
  let sstats = Engine.retarget eng p_small in
  let before = Engine.num_vms eng in
  let plan', cstats = Engine.consolidate (Engine.plan eng) in
  Printf.printf
    "demand drop (tau 100 -> 30) strands capacity: %d pairs dropped in place;\n\
     consolidation reclaims %d -> %d VMs by moving %d pairs\n"
    sstats.Engine.pairs_removed before
    (Allocation.num_vms plan'.Engine.allocation)
    cstats.Engine.pairs_evicted

(* Failure ablation: kill a growing share of the fleet mid-horizon and
   measure the satisfaction damage. *)
let ablate_failures ~w ~scale =
  section_header "ablate-failures" "VM outages vs subscriber satisfaction";
  let model = Cost_model.ec2_2014 () in
  let capacity_events = bc_events ~scale Instance.c3_large in
  let p = Problem.of_pricing ~capacity_events ~workload:w ~tau:100. model in
  let r = Solver.solve p in
  let num_vms = r.Solver.num_vms in
  let subscribers = Workload.num_subscribers w in
  let table =
    Table.create
      [
        ("VMs down", Table.Right);
        ("events lost", Table.Right);
        ("unsatisfied subs", Table.Right);
        ("unsatisfied %", Table.Right);
      ]
  in
  List.iter
    (fun fraction ->
      let down = int_of_float (Float.round (fraction *. float_of_int num_vms)) in
      let outages =
        List.init down (fun i ->
            Simulator.outage ~vm:i ~from_time:0.5 ~until_time:infinity ())
      in
      let config = { Simulator.default_config with Simulator.outages } in
      let res = Simulator.run p r.Solver.allocation config in
      let c = Simulator.check p r.Solver.allocation res ~tolerance:0. in
      let unsat = List.length c.Simulator.unsatisfied in
      Table.add_row table
        [
          Printf.sprintf "%d/%d" down num_vms;
          string_of_int (Array.fold_left ( + ) 0 res.Simulator.lost);
          string_of_int unsat;
          Table.cell_pct (100. *. float_of_int unsat /. float_of_int subscribers);
        ])
    [ 0.0; 0.05; 0.1; 0.25; 0.5 ];
  Table.print table

(* Scaling ablation: the paper's §IV-E claim is that the solution "scales
   well for millions of subscribers and runs fast". Sweep the trace scale
   and watch the runtime growth of each stage — GSP+CBP should grow
   near-linearly in the pair count while FFBP grows superlinearly. *)
let ablate_scaling ~seeds () =
  section_header "ablate-scaling" "runtime vs trace size (Spotify-like, tau=100)";
  let model = Cost_model.ec2_2014 () in
  let table =
    Table.create
      [
        ("scale", Table.Right);
        ("pairs", Table.Right);
        ("VMs", Table.Right);
        ("GSP s", Table.Right);
        ("CBP s", Table.Right);
        ("FFBP s", Table.Right);
      ]
  in
  List.iter
    (fun scale ->
      let w =
        Mcss_traces.Spotify.generate
          { (Mcss_traces.Spotify.scaled scale) with Mcss_traces.Spotify.seed = seeds.scaling }
      in
      let capacity_events = bc_events ~scale Instance.c3_large in
      let p = Problem.of_pricing ~capacity_events ~workload:w ~tau:100. model in
      let best = Solver.solve ~config:Solver.default p in
      let ffbp =
        Solver.solve ~config:{ Solver.stage1 = Solver.Gsp; stage2 = Solver.Ffbp } p
      in
      Table.add_row table
        [
          Printf.sprintf "%g" scale;
          string_of_int (Workload.num_pairs w);
          string_of_int best.Solver.num_vms;
          Table.cell_float ~decimals:3 best.Solver.stage1_seconds;
          Table.cell_float ~decimals:3 best.Solver.stage2_seconds;
          Table.cell_float ~decimals:3 ffbp.Solver.stage2_seconds;
        ])
    [ 0.005; 0.01; 0.02; 0.04 ];
  Table.print table;
  print_endline
    "(BC co-scales with the trace, so the VM count stays put while GSP and\n\
     CBP runtimes grow ~linearly in the pair count; FFBP grows\n\
     superlinearly — the paper's complexity argument, measured)"
(* Skew ablation: the paper\'s savings are harvested from heavy tails —
   GSP exploits rate dispersion, CBP exploits popularity skew. Flattening
   either distribution in the generator should shrink the savings; this
   section measures by how much. *)
let ablate_skew ~seeds ~scale =
  section_header "ablate-skew"
    "where the savings come from: popularity / rate skew sweep (Spotify-like, tau=100)";
  let model = Cost_model.ec2_2014 () in
  let capacity_events = bc_events ~scale Instance.c3_large in
  let table =
    Table.create
      [
        ("workload shape", Table.Left);
        ("naive cost", Table.Right);
        ("full ladder", Table.Right);
        ("saving", Table.Right);
      ]
  in
  List.iter
    (fun (label, popularity_exponent, rate_sigma) ->
      let params =
        {
          (Mcss_traces.Spotify.scaled scale) with
          Mcss_traces.Spotify.seed = seeds.skew;
          popularity_exponent;
          rate_sigma;
        }
      in
      let w = Mcss_traces.Spotify.generate params in
      let p = Problem.of_pricing ~capacity_events ~workload:w ~tau:100. model in
      let naive = Solver.solve ~config:Solver.naive p in
      let best = Solver.solve ~config:Solver.default p in
      Table.add_row table
        [
          label;
          Table.cell_usd naive.Solver.cost;
          Table.cell_usd best.Solver.cost;
          Table.cell_pct (Table.pct_change ~baseline:naive.Solver.cost best.Solver.cost);
        ])
    [
      ("heavy tails (paper-like)", 0.85, 1.0);
      ("flat popularity", 0.0, 1.0);
      ("flat rates", 0.85, 0.1);
      ("flat everything", 0.0, 0.1);
    ];
  Table.print table;
  print_endline
    "(uniform rates leave GSP nothing to choose between; the savings that\n\
     remain come from the packing side)"

(* Budget ablation: the dual question of the paper's reference [9] — how
   does subscriber satisfaction grow with a fixed fleet size? *)
let ablate_budget ~w ~scale =
  section_header "ablate-budget" "satisfied subscribers vs fixed VM budget";
  let model = Cost_model.ec2_2014 () in
  let capacity_events = bc_events ~scale Instance.c3_large in
  let p = Problem.of_pricing ~capacity_events ~workload:w ~tau:100. model in
  let full = Solver.solve p in
  let budgets =
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
  Printf.printf "(MCSS needs %d VMs to satisfy all %d subscribers)\n" full.Solver.num_vms
    subscribers

(* Broker-fleet latency: run the message-level engine over the MCSS
   allocation at increasing load and watch queueing delay — an observable
   the counting model cannot produce. *)
let latency ~seeds ~w ~scale =
  section_header "latency" "delivery latency through the broker fleet (message-level)";
  let module Fleet = Mcss_broker.Fleet in
  let fleet_config =
    { Fleet.default_config with Fleet.latency_seed = seeds.fleet }
  in
  let model = Cost_model.ec2_2014 () in
  let table =
    Table.create
      [
        ("headroom", Table.Right);
        ("max util", Table.Right);
        ("p50 latency", Table.Right);
        ("p99 latency", Table.Right);
      ]
  in
  (* The allocation is computed once at nominal capacity — CBP fills the
     busiest VMs to ~100% of BC, since that minimises cost. The fleet is
     then run with progressively faster wires (headroom an operator would
     add on top of the optimiser's plan) to expose the latency/cost
     trade-off. *)
  let nominal = bc_events ~scale Instance.c3_large in
  let p = Problem.of_pricing ~capacity_events:nominal ~workload:w ~tau:100. model in
  let r = Solver.solve p in
  List.iter
    (fun headroom ->
      let p' =
        Problem.of_pricing
          ~capacity_events:(nominal *. headroom)
          ~workload:w ~tau:100. model
      in
      let fleet = Fleet.build p' r.Solver.allocation ~message_bytes:200 in
      let report = Fleet.run fleet fleet_config in
      match report.Fleet.latency with
      | None -> ()
      | Some l ->
          (* Horizon units -> seconds at the model's 240 h horizon. *)
          let seconds x = x *. model.Cost_model.horizon_hours *. 3600. in
          Table.add_row table
            [
              Printf.sprintf "%.2fx" headroom;
              Table.cell_pct (100. *. report.Fleet.max_utilization);
              Printf.sprintf "%.2f s" (seconds l.Fleet.p50);
              Printf.sprintf "%.2f s" (seconds l.Fleet.p99);
            ])
    [ 1.0; 1.25; 1.5; 2.0; 4.0 ];
  Table.print table;
  print_endline
    "(MCSS packs the busiest VM to ~100% of BC because that minimises cost;\n\
     queueing theory then predicts the nonlinear latency relief that each\n\
     increment of bandwidth headroom buys)"

(* Resilience scenario: one seeded fault campaign (crash + transient +
   zone-correlated burst + throttle) pushed through three operating
   modes — nobody watching, the orchestrator repairing, and k=2
   zone-diverse replicas riding it out — with the SLA ledger and the
   redundancy premium written to BENCH_resilience.json. *)
let resilience ~seeds ~w ~scale ~out_dir =
  section_header "resilience" "fault campaign: no recovery vs repair vs k=2 replicas";
  let module Failure_model = Mcss_resilience.Failure_model in
  let module Orchestrator = Mcss_resilience.Orchestrator in
  let module Redundancy = Mcss_resilience.Redundancy in
  let module Sla = Mcss_resilience.Sla in
  let model = Cost_model.ec2_2014 () in
  let capacity_events = bc_events ~scale Instance.c3_large in
  let p = Problem.of_pricing ~capacity_events ~workload:w ~tau:100. model in
  let zones = 3 in
  let campaign =
    {
      Failure_model.seed = 11;
      faults =
        [
          Failure_model.Crash { vm = 0; at = 0.6 };
          Failure_model.Transient { vm = 1; from_time = 1.6; until_time = 1.9 };
          Failure_model.Zone_burst { zone = 1; at = 2.4; duration = 0.3 };
          Failure_model.Throttle
            { vm = 2; from_time = 3.1; until_time = 3.4; severity = 0.5 };
        ];
    }
  in
  Printf.printf "campaign (seed %d, %d zones):\n" campaign.Failure_model.seed zones;
  List.iter
    (fun f -> Printf.printf "  %s\n" (Failure_model.fault_to_string f))
    campaign.Failure_model.faults;
  let policy = Orchestrator.default_policy in
  let baseline =
    Orchestrator.run ~policy:{ policy with Orchestrator.recovery = false } ~zones
      ~campaign p
  in
  let supervised = Orchestrator.run ~policy ~zones ~campaign p in
  let selection = Selection.gsp p in
  let redundant, rstats = Redundancy.place ~zones ~k:2 p selection in
  (match Redundancy.check p selection ~k:2 redundant with
  | Ok () -> ()
  | Error m -> failwith ("resilience: redundant placement failed audit: " ^ m));
  let replicated = Orchestrator.evaluate ~policy ~zones ~campaign p redundant in
  let base_cost = rstats.Redundancy.base_cost in
  let overhead cost =
    if base_cost > 0. then (cost -. base_cost) /. base_cost *. 100. else 0.
  in
  let plan_cost (o : Orchestrator.outcome) =
    let a = o.Orchestrator.plan.Engine.allocation in
    Problem.cost p ~vms:(Allocation.num_vms a) ~bandwidth:(Allocation.total_load a)
  in
  let table =
    Table.create
      [
        ("strategy", Table.Left);
        ("viol-hours", Table.Right);
        ("delivered", Table.Right);
        ("repairs", Table.Right);
        ("VMs", Table.Right);
        ("cost vs k=1", Table.Right);
      ]
  in
  let vms_of (o : Orchestrator.outcome) =
    Allocation.num_vms o.Orchestrator.plan.Engine.allocation
  in
  (* (table label, JSON name, SLA report, repairs, VMs, cost overhead) *)
  let variants =
    [
      ( "no recovery", "no_recovery", baseline.Orchestrator.sla, 0, vms_of baseline,
        overhead (plan_cost baseline) );
      ( "supervised repair", "supervised", supervised.Orchestrator.sla,
        supervised.Orchestrator.repairs, vms_of supervised, overhead (plan_cost supervised) );
      ( "k=2 replicas", "k2_replicas", replicated, 0, rstats.Redundancy.vms,
        rstats.Redundancy.overhead_vs_base_pct );
    ]
  in
  List.iter
    (fun (label, _, (r : Sla.report), repairs, vms, overhead_pct) ->
      Table.add_row table
        [
          label;
          Table.cell_float ~decimals:1 r.Sla.violation_hours;
          Table.cell_pct (100. *. r.Sla.delivered_fraction);
          string_of_int repairs;
          string_of_int vms;
          Printf.sprintf "%+.1f%%" overhead_pct;
        ])
    variants;
  Table.print table;
  Printf.printf
    "supervised plan verified: %b (%d replacement VM(s)); k=2: %d/%d pairs\n\
     zone-diverse, +%.1f%% over the lower bound\n"
    (supervised.Orchestrator.verified = Ok ())
    supervised.Orchestrator.vms_added rstats.Redundancy.zone_diverse_pairs
    selection.Selection.num_pairs rstats.Redundancy.overhead_vs_lb_pct;
  (* Machine-readable summary next to the .dat series. *)
  let variant (_, name, (r : Sla.report), repairs, vms, overhead_pct) =
    Json.(
      Obj
        [
          ("name", String name);
          ("violation_hours", Float r.Sla.violation_hours);
          ("violation_epochs", Int r.Sla.violation_epochs);
          ("delivered_fraction", Float r.Sla.delivered_fraction);
          ("lost_events", Int r.Sla.lost_events);
          ("repairs", Int repairs);
          ("mean_epochs_to_recover", Float r.Sla.mean_epochs_to_recover);
          ("downtime_cost_usd", Float r.Sla.downtime_cost);
          ("vms", Int vms);
          ("cost_overhead_vs_base_pct", Float overhead_pct);
        ])
  in
  let faults = List.map Failure_model.fault_to_string campaign.Failure_model.faults in
  let module R = Redundancy in
  write_json ~out_dir "BENCH_resilience.json"
    Json.(
      Obj
        [
          ("scenario", String "resilience"); ("runtime", runtime_json ());
          ("trace_scale", Float scale); ("trace_seed", Int seeds.trace_seed);
          ("tau", Int 100); ("zones", Int zones);
          ("campaign_seed", Int campaign.Failure_model.seed);
          ("faults", List (List.map (fun f -> String f) faults));
          ("variants", List (List.map variant variants));
          ( "redundancy",
            Obj
              [
                ("k", Int rstats.R.k); ("replicas_placed", Int rstats.R.replicas_placed);
                ("zone_diverse_pairs", Int rstats.R.zone_diverse_pairs);
                ("selected_pairs", Int selection.Selection.num_pairs);
                ("base_vms", Int rstats.R.base_vms); ("vms", Int rstats.R.vms);
                ("base_cost_usd", Float rstats.R.base_cost); ("cost_usd", Float rstats.R.cost);
                ("lb_cost_usd", Float rstats.R.lb_cost);
                ("overhead_vs_base_pct", Float rstats.R.overhead_vs_base_pct);
                ("overhead_vs_lb_pct", Float rstats.R.overhead_vs_lb_pct);
              ] );
        ])

(* Observability overhead: the acceptance gate for lib/obs. Runs the
   end-to-end pipeline (solve + deterministic simulate) on both traces
   with instrumentation off (Registry.noop) and on (a live registry),
   takes the median of several repetitions, and writes the enabled vs
   disabled comparison to BENCH_obs.json. The no-op path must stay
   within a few percent — instrumentation is compiled in permanently,
   so its disabled cost is the number that matters. *)
let obs_overhead ~seeds ~spotify ~twitter ~spotify_scale ~twitter_scale ~out_dir =
  section_header "obs" "observability overhead: enabled vs disabled (lib/obs)";
  let module Registry = Mcss_obs.Registry in
  let model = Cost_model.ec2_2014 () in
  let reps = 7 in
  let median xs =
    let xs = Array.of_list xs in
    Array.sort compare xs;
    xs.(Array.length xs / 2)
  in
  let pipeline obs p =
    let r = Solver.solve ~obs p in
    ignore (Simulator.run ~obs p r.Solver.allocation Simulator.default_config)
  in
  let time_pipeline obs p = snd (timed (fun () -> pipeline obs p)) in
  let measure name w scale =
    let capacity_events = bc_events ~scale Instance.c3_large in
    let p = Problem.of_pricing ~capacity_events ~workload:w ~tau:100. model in
    (* Warm up allocators and caches once per variant before timing. *)
    pipeline Registry.noop p;
    let disabled = List.init reps (fun _ -> time_pipeline Registry.noop p) in
    let enabled =
      List.init reps (fun _ -> time_pipeline (Registry.create ()) p)
    in
    let reg = Registry.create () in
    pipeline reg p;
    let metrics = List.length (Registry.samples reg) in
    let spans =
      List.length (Mcss_obs.Span.flatten (Mcss_obs.Span.roots reg))
    in
    let d = median disabled and e = median enabled in
    let overhead_pct = if d > 0. then (e -. d) /. d *. 100. else 0. in
    (name, scale, d, e, overhead_pct, metrics, spans)
  in
  let rows =
    [
      measure "spotify" spotify spotify_scale;
      measure "twitter" twitter twitter_scale;
    ]
  in
  let table =
    Table.create
      [
        ("trace", Table.Left);
        ("disabled s", Table.Right);
        ("enabled s", Table.Right);
        ("overhead", Table.Right);
        ("metrics", Table.Right);
        ("spans", Table.Right);
      ]
  in
  List.iter
    (fun (name, _scale, d, e, pct, metrics, spans) ->
      Table.add_row table
        [
          name;
          Table.cell_float ~decimals:3 d;
          Table.cell_float ~decimals:3 e;
          Printf.sprintf "%+.2f%%" pct;
          string_of_int metrics;
          string_of_int spans;
        ])
    rows;
  Table.print table;
  print_endline
    "(median of 7 solve+simulate pipelines per variant; counters accumulate\n\
     in locals on the hot paths and flush once, so both columns should\n\
     agree to within noise)";
  write_json ~out_dir "BENCH_obs.json"
    Json.(
      Obj
        [
          ("scenario", String "obs_overhead"); ("runtime", runtime_json ());
          ("trace_seed", Int seeds.trace_seed); ("tau", Int 100); ("reps", Int reps);
          ("pipeline", String "solve+simulate");
          ( "traces",
            List
              (List.map
                 (fun (name, scale, d, e, pct, metrics, spans) ->
                   Obj
                     [
                       ("name", String name); ("scale", Float scale); ("disabled_s", Float d);
                       ("enabled_s", Float e); ("overhead_pct", Float pct);
                       ("metrics", Int metrics); ("spans", Int spans);
                     ])
                 rows) );
        ])

(* Planning-service throughput: an in-process [mcss serve] on a Unix
   socket, N concurrent client domains driving a solve+whatif mix over a
   small set of parameter points. After warm-up most requests hit the
   plan cache, so the numbers characterise the service path (protocol,
   cache, admission, socket) rather than the solver. Writes
   BENCH_serve.json: requests/s, p50/p95/p99 latency, steady-state
   cache hit ratio. *)
let serve_bench ~seeds ~spotify ~spotify_scale ~out_dir =
  section_header "serve"
    "planning service: concurrent solve/whatif over a Unix socket";
  let module Service = Mcss_serve.Service in
  let module Server = Mcss_serve.Server in
  let module Client = Mcss_serve.Client in
  let module Protocol = Mcss_serve.Protocol in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mcss-bench-serve-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let svc = Service.create () in
  let digest = Service.load_workload svc spotify in
  let address = Server.Unix_socket path in
  let sconfig =
    { Server.default_config with Server.workers = 8; accept_tick_s = 0.05 }
  in
  let server = Domain.spawn (fun () -> Server.run ~config:sconfig svc address) in
  let rec await tries =
    if tries = 0 then failwith "serve bench: server never came up";
    match Client.connect address with
    | Ok c -> Client.close c
    | Error _ ->
        Unix.sleepf 0.02;
        await (tries - 1)
  in
  await 200;
  (* Eight parameter points; after one cold solve each, everything is a
     cache hit, which is the steady state a plan server lives in. *)
  let taus = [| 25.; 50.; 75.; 100.; 150.; 200.; 400.; 800. |] in
  let capacity = bc_events ~scale:spotify_scale Instance.c3_large in
  let num_clients = 6 and requests_per_client = 50 in
  let solve_request tau =
    Json.Obj
      [
        ("req", Json.String "solve");
        ("digest", Json.String digest);
        ("tau", Json.Float tau);
        ("bc_events", Json.Float capacity);
      ]
  in
  let whatif_request () =
    Json.Obj
      [
        ("req", Json.String "whatif");
        ("digest", Json.String digest);
        ("bc_events", Json.Float capacity);
        ("taus", Json.List (List.map (fun t -> Json.Float t) [ 50.; 100.; 200. ]));
      ]
  in
  (* Warm the cache once so the measured phase is steady-state. *)
  (match
     Client.with_connection address (fun c ->
         Array.iter (fun tau -> ignore (Client.request c (solve_request tau))) taus;
         ignore (Client.request c (whatif_request ()));
         Ok ())
   with
  | Ok () -> ()
  | Error m -> failwith ("serve bench warm-up: " ^ m));
  let warm_stats = Service.cache_stats svc in
  let run_client idx =
    Domain.spawn (fun () ->
        match
          Client.with_connection address (fun c ->
              let latencies = Array.make requests_per_client 0. in
              let errors = ref 0 in
              for k = 0 to requests_per_client - 1 do
                let request =
                  if (idx + k) mod 8 = 7 then whatif_request ()
                  else solve_request taus.((idx + k) mod Array.length taus)
                in
                let t0 = Clock.now_ns () in
                (match Client.request c request with
                | Ok reply ->
                    if not (Protocol.response_ok reply) then incr errors
                | Error _ -> incr errors);
                latencies.(k) <- Clock.seconds_since t0
              done;
              Ok (latencies, !errors))
        with
        | Ok r -> r
        | Error m -> failwith ("serve bench client: " ^ m))
  in
  let t_start = Clock.now_ns () in
  let domains = List.init num_clients run_client in
  let per_client = List.map Domain.join domains in
  let wall_s = Clock.seconds_since t_start in
  (* Drain the server before reading its counters. *)
  (match
     Client.with_connection address (fun c ->
         Client.request c (Json.Obj [ ("req", Json.String "shutdown") ]))
   with
  | Ok _ | Error _ -> ());
  Domain.join server;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let latencies =
    Array.concat (List.map (fun (ls, _) -> ls) per_client)
  in
  let errors = List.fold_left (fun acc (_, e) -> acc + e) 0 per_client in
  let pct = Stats.nearest_rank latencies in
  let total_requests = num_clients * requests_per_client in
  let requests_per_s = float_of_int total_requests /. wall_s in
  let final_stats = Service.cache_stats svc in
  (* Steady state: only lookups made during the measured phase. *)
  let steady_hits = final_stats.Mcss_serve.Plan_cache.hits - warm_stats.Mcss_serve.Plan_cache.hits in
  let steady_misses =
    final_stats.Mcss_serve.Plan_cache.misses - warm_stats.Mcss_serve.Plan_cache.misses
  in
  let steady_hit_ratio =
    if steady_hits + steady_misses = 0 then 0.
    else float_of_int steady_hits /. float_of_int (steady_hits + steady_misses)
  in
  let table =
    Table.create
      [
        ("clients", Table.Right);
        ("requests", Table.Right);
        ("errors", Table.Right);
        ("req/s", Table.Right);
        ("p50 ms", Table.Right);
        ("p95 ms", Table.Right);
        ("p99 ms", Table.Right);
        ("hit ratio", Table.Right);
      ]
  in
  Table.add_row table
    [
      string_of_int num_clients;
      string_of_int total_requests;
      string_of_int errors;
      Table.cell_float ~decimals:0 requests_per_s;
      Table.cell_float ~decimals:3 (pct 0.50 *. 1e3);
      Table.cell_float ~decimals:3 (pct 0.95 *. 1e3);
      Table.cell_float ~decimals:3 (pct 0.99 *. 1e3);
      Table.cell_float ~decimals:3 steady_hit_ratio;
    ];
  Table.print table;
  Printf.printf
    "(steady state after a warm-up pass over all %d parameter points;\n\
    \ solver ran %d times in total — everything else came from the cache)\n"
    (Array.length taus + 3)
    (Service.solver_runs svc);
  write_json ~out_dir "BENCH_serve.json"
    Json.(
      Obj
        (spotify_header ~scenario:"serve_throughput" ~seeds ~scale:spotify_scale
        @ [
            ("clients", Int num_clients); ("requests", Int total_requests);
            ("errors", Int errors); ("wall_s", Float wall_s);
            ("requests_per_s", Float requests_per_s);
            ("latency_ms", latency_ms pct [ 0.50; 0.95; 0.99 ]);
            ( "cache",
              Obj
                [
                  ("steady_state_hit_ratio", Float steady_hit_ratio);
                  ("hits", Int steady_hits); ("misses", Int steady_misses);
                  ("entries", Int final_stats.Mcss_serve.Plan_cache.entries);
                ] );
            ("solver_runs", Int (Service.solver_runs svc));
          ]))

(* The resilience of the serving stack itself: (1) crash recovery — how
   fast a kill -9'd journaled daemon is back to answering its solves as
   cache hits; (2) client-visible latency when 10% of connections are
   aborted with real RSTs by a fault-injecting proxy and the retry layer
   has to reconnect-and-replay; (3) a full circuit-breaker open → shed →
   half-open → close cycle with degraded replies counted. Writes
   BENCH_serve_faults.json. *)
let serve_faults_bench ~seeds ~spotify ~spotify_scale ~out_dir =
  section_header "serve-faults"
    "planning service under crash, wire resets, and an open circuit";
  let module Service = Mcss_serve.Service in
  let module Server = Mcss_serve.Server in
  let module Client = Mcss_serve.Client in
  let module Journal = Mcss_serve.Journal in
  let module Breaker = Mcss_serve.Breaker in
  let module Retry = Mcss_serve.Retry in
  let module Faulty = Mcss_serve.Faulty in
  let module Protocol = Mcss_serve.Protocol in
  let capacity = bc_events ~scale:spotify_scale Instance.c3_large in
  let taus = [ 25.; 50.; 100.; 200. ] in
  let solve_line digest tau =
    Json.to_string
      (Json.Obj
         [
           ("req", Json.String "solve");
           ("digest", Json.String digest);
           ("tau", Json.Float tau);
           ("bc_events", Json.Float capacity);
         ])
  in
  let is_cached reply =
    match Option.bind (Json.member "cached" reply) Json.to_bool_opt with
    | Some b -> b
    | None -> false
  in
  (* ----- 1. crash recovery ----- *)
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mcss-bench-faults-%d" (Unix.getpid ()))
  in
  let rec rm_rf path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        (try Unix.rmdir path with Unix.Unix_error _ -> ())
    | _ -> ( try Sys.remove path with Sys_error _ -> ())
    | exception Unix.Unix_error _ -> ()
  in
  rm_rf dir;
  let journaled =
    { Service.default_config with Service.journal = Some (Journal.default_config ~dir) }
  in
  let svc = Service.create ~config:journaled () in
  let digest = Service.load_workload svc spotify in
  let (), cold_solve_s =
    timed (fun () ->
        List.iter
          (fun tau ->
            let reply = Service.handle_line svc (solve_line digest tau) in
            if not (Protocol.response_ok reply) then
              failwith ("serve-faults: cold solve failed: " ^ Json.to_string reply))
          taus)
  in
  (* kill -9 equivalence: abandon the instance without close — every
     append was fsynced, so this is exactly what a crash leaves behind. *)
  let svc2, replay_s = timed (fun () -> Service.create ~config:journaled ()) in
  let recovered_hits, reanswer_s =
    timed (fun () ->
        List.fold_left
          (fun acc tau ->
            let reply = Service.handle_line svc2 (solve_line digest tau) in
            if Protocol.response_ok reply && is_cached reply then acc + 1 else acc)
          0 taus)
  in
  let plans_recovered =
    match Service.replay_stats svc2 with
    | Some r -> r.Service.plans_recovered
    | None -> 0
  in
  let recovery_table =
    Table.create
      [
        ("cold solve s", Table.Right);
        ("replay ms", Table.Right);
        ("re-answer ms", Table.Right);
        ("plans recovered", Table.Right);
        ("served as hits", Table.Right);
        ("solver re-runs", Table.Right);
      ]
  in
  Table.add_row recovery_table
    [
      Table.cell_float ~decimals:3 cold_solve_s;
      Table.cell_float ~decimals:2 (replay_s *. 1e3);
      Table.cell_float ~decimals:2 (reanswer_s *. 1e3);
      string_of_int plans_recovered;
      Printf.sprintf "%d/%d" recovered_hits (List.length taus);
      string_of_int (Service.solver_runs svc2);
    ];
  Table.print recovery_table;
  (* ----- 2. p99 under 10% injected connection resets ----- *)
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mcss-bench-faults-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let upstream = Server.Unix_socket sock in
  let sconfig =
    { Server.default_config with Server.workers = 4; accept_tick_s = 0.05 }
  in
  let server = Domain.spawn (fun () -> Server.run ~config:sconfig svc2 upstream) in
  let rec await tries =
    if tries = 0 then failwith "serve-faults: server never came up";
    match Client.connect upstream with
    | Ok c -> Client.close c
    | Error _ ->
        Unix.sleepf 0.02;
        await (tries - 1)
  in
  await 200;
  let reset_every = 10 in
  let proxy =
    Faulty.start
      ~plan:(fun ~conn ->
        if conn mod reset_every = 0 then
          { Faulty.clean with Faulty.to_client = [ Faulty.Reset_after 0 ] }
        else Faulty.clean)
      ~upstream ()
  in
  let address = Faulty.address proxy in
  let policy =
    {
      Retry.max_attempts = 4;
      base_ms = 2.;
      cap_ms = 50.;
      attempt_timeout_ms = Some 5000.;
    }
  in
  let num_clients = 3 and requests_per_client = 40 in
  let tau_array = Array.of_list taus in
  let run_client idx =
    Domain.spawn (fun () ->
        let rng = Mcss_prng.Rng.create (seeds.trace_seed + 100 + idx) in
        let latencies = Array.make requests_per_client 0. in
        let attempts = ref 0 and errors = ref 0 in
        for k = 0 to requests_per_client - 1 do
          let tau = tau_array.((idx + k) mod Array.length tau_array) in
          let env =
            {
              Protocol.id = None;
              deadline_ms = None;
              request =
                Protocol.Solve
                  {
                    digest;
                    params =
                      {
                        Protocol.default_params with
                        Protocol.tau;
                        bc_events = Some capacity;
                      };
                  };
            }
          in
          let t0 = Clock.now_ns () in
          let o = Client.call ~rng ~policy address env in
          latencies.(k) <- Clock.seconds_since t0;
          attempts := !attempts + o.Retry.attempts;
          match o.Retry.result with
          | Ok reply when Protocol.response_ok reply -> ()
          | Ok _ | Error _ -> incr errors
        done;
        (latencies, !attempts, !errors))
  in
  let per_client = List.map Domain.join (List.init num_clients run_client) in
  let reset_conns = (Faulty.connections proxy + reset_every - 1) / reset_every in
  Faulty.stop proxy;
  (match
     Client.with_connection upstream (fun c ->
         Client.request c (Json.Obj [ ("req", Json.String "shutdown") ]))
   with
  | Ok _ | Error _ -> ());
  Domain.join server;
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  Service.close svc2;
  let latencies = Array.concat (List.map (fun (ls, _, _) -> ls) per_client) in
  let attempts = List.fold_left (fun a (_, n, _) -> a + n) 0 per_client in
  let errors = List.fold_left (fun a (_, _, e) -> a + e) 0 per_client in
  let pct = Stats.nearest_rank latencies in
  let total_requests = num_clients * requests_per_client in
  let reset_table =
    Table.create
      [
        ("requests", Table.Right);
        ("resets", Table.Right);
        ("attempts", Table.Right);
        ("errors", Table.Right);
        ("p50 ms", Table.Right);
        ("p95 ms", Table.Right);
        ("p99 ms", Table.Right);
      ]
  in
  Table.add_row reset_table
    [
      string_of_int total_requests;
      string_of_int reset_conns;
      string_of_int attempts;
      string_of_int errors;
      Table.cell_float ~decimals:3 (pct 0.50 *. 1e3);
      Table.cell_float ~decimals:3 (pct 0.95 *. 1e3);
      Table.cell_float ~decimals:3 (pct 0.99 *. 1e3);
    ];
  Table.print reset_table;
  Printf.printf
    "(every %dth connection is aborted with a real RST; the client's \n\
    \ reconnect-and-replay absorbs them — %d requests, 0 expected errors)\n"
    reset_every total_requests;
  (* ----- 3. breaker open → shed degraded → half-open → close ----- *)
  let breaker_cfg = { Breaker.failure_threshold = 1; cooldown_ms = 100. } in
  let svc3 =
    Service.create ~config:{ Service.default_config with Service.breaker = breaker_cfg } ()
  in
  let digest3 = Service.load_workload svc3 spotify in
  (match Service.handle_line svc3 (solve_line digest3 50.) with
  | reply when Protocol.response_ok reply -> ()
  | reply -> failwith ("serve-faults: baseline solve failed: " ^ Json.to_string reply));
  Breaker.failure (Service.breaker svc3);
  let shed_requests = 20 in
  let degraded_replies = ref 0 in
  for _ = 1 to shed_requests do
    let reply = Service.handle_line svc3 (solve_line digest3 60.) in
    if Protocol.response_degraded reply then incr degraded_replies
  done;
  Unix.sleepf ((breaker_cfg.Breaker.cooldown_ms +. 50.) /. 1000.);
  (* The half-open probe runs the solver for real and closes the circuit. *)
  (match Service.handle_line svc3 (solve_line digest3 60.) with
  | reply when Protocol.response_ok reply && not (Protocol.response_degraded reply) -> ()
  | reply -> failwith ("serve-faults: probe solve failed: " ^ Json.to_string reply));
  let b = Service.breaker svc3 in
  let breaker_table =
    Table.create
      [
        ("shed requests", Table.Right);
        ("degraded replies", Table.Right);
        ("opens", Table.Right);
        ("closes", Table.Right);
        ("rejections", Table.Right);
        ("final state", Table.Right);
      ]
  in
  Table.add_row breaker_table
    [
      string_of_int shed_requests;
      string_of_int !degraded_replies;
      string_of_int (Breaker.opens b);
      string_of_int (Breaker.closes b);
      string_of_int (Breaker.rejections b);
      Breaker.state_to_string (Breaker.state b);
    ];
  Table.print breaker_table;
  write_json ~out_dir "BENCH_serve_faults.json"
    Json.(
      Obj
        (spotify_header ~scenario:"serve_faults" ~seeds ~scale:spotify_scale
        @ [
            ( "recovery",
              Obj
                [
                  ("cold_solve_s", Float cold_solve_s); ("replay_ms", Float (replay_s *. 1e3));
                  ("reanswer_ms", Float (reanswer_s *. 1e3));
                  ("plans_recovered", Int plans_recovered);
                  ("served_as_hits", Int recovered_hits);
                  ("solver_reruns", Int (Service.solver_runs svc2));
                ] );
            ( "resets",
              Obj
                [
                  ("requests", Int total_requests); ("injected_resets", Int reset_conns);
                  ("reset_every", Int reset_every); ("attempts", Int attempts);
                  ("errors", Int errors); ("latency_ms", latency_ms pct [ 0.50; 0.95; 0.99 ]);
                ] );
            ( "breaker",
              Obj
                [
                  ("shed_requests", Int shed_requests);
                  ("degraded_replies", Int !degraded_replies);
                  ("opens", Int (Breaker.opens b)); ("closes", Int (Breaker.closes b));
                  ("rejections", Int (Breaker.rejections b));
                  ("final_state", String (Breaker.state_to_string (Breaker.state b)));
                ] );
          ]));
  rm_rf dir

(* One shard of the bench cluster: a journaled leader with its
   replication hub, and a journaled follower fed over [bs_dial] (the
   shard-0 link runs through a fault-injecting proxy). *)
type bench_shard = {
  bs_name : string;
  bs_leader : Mcss_serve.Service.t;
  bs_follower : Mcss_serve.Service.t;
  bs_hub : Mcss_serve.Replication.leader;
  bs_proxy : Mcss_serve.Faulty.t option;
  bs_dial : Mcss_serve.Server.address;
  bs_stop : bool Atomic.t;
  bs_follow : unit Domain.t;
  bs_leader_addr : Mcss_serve.Server.address;
  bs_follower_addr : Mcss_serve.Server.address;
  bs_leader_dom : unit Domain.t;
  bs_follower_dom : unit Domain.t;
}

(* The full replicated deployment of DESIGN.md §serve: three shards,
   each a journaled leader streaming its WAL to a journaled follower,
   fronted by the consistent-hash router. Shard 0's replication link
   runs through the fault-injecting proxy with every 10th connection
   reset mid-stream, so the numbers include resync-on-fault overhead.
   Client domains drive solves for digests spread across the ring
   through [Router.handle]; reports aggregate req/s and p50/p99, the
   per-shard request split, and the time a cold follower needs to pull
   the shard-0 journal through the faulty link.
   BENCH_serve_cluster.json: throughput, latency, split, resync. *)
let serve_cluster_bench ~seeds ~spotify ~spotify_scale ~out_dir =
  section_header "serve-cluster"
    "3 shards x 2 replicas behind the router, faulty replication link";
  let module Service = Mcss_serve.Service in
  let module Server = Mcss_serve.Server in
  let module Client = Mcss_serve.Client in
  let module Journal = Mcss_serve.Journal in
  let module Retry = Mcss_serve.Retry in
  let module Faulty = Mcss_serve.Faulty in
  let module Protocol = Mcss_serve.Protocol in
  let module Replication = Mcss_serve.Replication in
  let module Ring = Mcss_serve.Ring in
  let module Router = Mcss_serve.Router in
  let capacity = bc_events ~scale:spotify_scale Instance.c3_large in
  let base =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mcss-bench-cluster-%d" (Unix.getpid ()))
  in
  let rec rm_rf path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        (try Unix.rmdir path with Unix.Unix_error _ -> ())
    | _ -> ( try Sys.remove path with Sys_error _ -> ())
    | exception Unix.Unix_error _ -> ()
  in
  rm_rf base;
  Mcss_report.Fs.mkdir_p base;
  let shard_names = [ "s0"; "s1"; "s2" ] in
  let ring = Ring.create shard_names in
  (* The ring hashes content digests, so shard coverage is found, not
     assumed: keep generating seeded Spotify variants until every shard
     owns at least one digest and there are six or more in play. *)
  let variants = ref [ (Service.digest_of_workload spotify, spotify) ] in
  let covered name =
    List.exists (fun (d, _) -> Ring.owner ring d = name) !variants
  in
  let next = ref 0 in
  while
    (List.length !variants < 6 || not (List.for_all covered shard_names))
    && !next < 24
  do
    let w =
      Front.generate
        ~seed:(seeds.trace_seed + 7100 + !next)
        `Spotify
        ~scale:(spotify_scale /. 2.)
    in
    incr next;
    let d = Service.digest_of_workload w in
    if not (List.mem_assoc d !variants) then variants := (d, w) :: !variants
  done;
  let digests = List.rev !variants in
  let journaled dir =
    {
      Service.default_config with
      Service.journal =
        Some { (Journal.default_config ~dir) with Journal.fsync = false };
    }
  in
  let sconfig =
    { Server.default_config with Server.workers = 4; accept_tick_s = 0.05 }
  in
  let fault_every = 10 in
  let boot i name =
    let dir sub = Filename.concat base (Filename.concat name sub) in
    let leader = Service.create ~config:(journaled (dir "leader")) () in
    let rep = Server.Unix_socket (Filename.concat base (name ^ "-rep.sock")) in
    let hub = Replication.start_leader ~service:leader rep in
    let proxy =
      if i = 0 then
        Some
          (Faulty.start
             ~plan:(fun ~conn ->
               if conn mod fault_every = 0 then
                 {
                   Faulty.clean with
                   Faulty.to_client = [ Faulty.Reset_after 256 ];
                 }
               else Faulty.clean)
             ~upstream:rep ())
      else None
    in
    let dial = match proxy with Some p -> Faulty.address p | None -> rep in
    let follower =
      Service.create
        ~config:(journaled (dir "follower"))
        ~role:Service.Follower ()
    in
    let stop = Atomic.make false in
    let fdom =
      Domain.spawn (fun () ->
          Replication.follow ~reconnect_ms:20. ~service:follower
            ~stop:(fun () -> Atomic.get stop)
            dial)
    in
    let laddr =
      Server.Unix_socket (Filename.concat base (name ^ "-leader.sock"))
    in
    let faddr =
      Server.Unix_socket (Filename.concat base (name ^ "-follower.sock"))
    in
    let ldom = Domain.spawn (fun () -> Server.run ~config:sconfig leader laddr) in
    let sdom =
      Domain.spawn (fun () -> Server.run ~config:sconfig follower faddr)
    in
    {
      bs_name = name;
      bs_leader = leader;
      bs_follower = follower;
      bs_hub = hub;
      bs_proxy = proxy;
      bs_dial = dial;
      bs_stop = stop;
      bs_follow = fdom;
      bs_leader_addr = laddr;
      bs_follower_addr = faddr;
      bs_leader_dom = ldom;
      bs_follower_dom = sdom;
    }
  in
  let shards = Array.of_list (List.mapi boot shard_names) in
  let await addr =
    let rec go tries =
      if tries = 0 then failwith "serve-cluster: server never came up";
      match Client.connect addr with
      | Ok c -> Client.close c
      | Error _ ->
          Unix.sleepf 0.02;
          go (tries - 1)
    in
    go 200
  in
  Array.iter
    (fun s ->
      await s.bs_leader_addr;
      await s.bs_follower_addr)
    shards;
  let policy =
    {
      Retry.max_attempts = 3;
      base_ms = 2.;
      cap_ms = 50.;
      attempt_timeout_ms = Some 5000.;
    }
  in
  let router =
    Router.create
      ~config:
        {
          Router.default_config with
          Router.policy;
          Router.health_period_s = 0.5;
          Router.log = (fun _ -> ());
        }
      ~seed:(seeds.trace_seed + 7500)
      (List.map
         (fun s ->
           {
             Router.shard_name = s.bs_name;
             Router.members =
               [
                 { Router.name = "leader"; address = s.bs_leader_addr };
                 { Router.name = "follower"; address = s.bs_follower_addr };
               ];
           })
         (Array.to_list shards))
  in
  Router.probe_all router;
  let cluster_taus = [ 50.; 100. ] in
  let env request = { Protocol.id = None; deadline_ms = None; request } in
  let solve_env digest tau =
    env
      (Protocol.Solve
         {
           digest;
           params =
             {
               Protocol.default_params with
               Protocol.tau;
               bc_events = Some capacity;
             };
         })
  in
  let expect_ok what reply =
    if not (Protocol.response_ok reply) then
      failwith
        (Printf.sprintf "serve-cluster: %s failed: %s" what
           (Json.to_string reply))
  in
  (* Load every workload and warm each (digest, tau) pair through the
     router, so the measured run is the steady cache-serving state. *)
  List.iter
    (fun (d, w) ->
      expect_ok ("load " ^ d)
        (Router.handle router
           (env (Protocol.Load (`Inline (Mcss_workload.Wio.to_string w)))));
      List.iter
        (fun tau -> expect_ok ("warm solve " ^ d) (Router.handle router (solve_env d tau)))
        cluster_taus)
    digests;
  (* Steady state includes the followers: wait for journal parity so the
     measured window is not paying first-sync costs (shard 0 pays them
     through the faulty link). *)
  let wait_until ~what ?(timeout_s = 60.) pred =
    let t0 = Clock.now_ns () in
    let rec go () =
      if pred () then ()
      else if Clock.seconds_since t0 > timeout_s then
        failwith ("serve-cluster: timeout waiting for " ^ what)
      else begin
        Unix.sleepf 0.01;
        go ()
      end
    in
    go ()
  in
  let in_sync s =
    Service.journal_last_index s.bs_follower
    = Service.journal_last_index s.bs_leader
  in
  Array.iter
    (fun s -> wait_until ~what:(s.bs_name ^ " follower parity") (fun () -> in_sync s))
    shards;
  let pairs =
    Array.of_list
      (List.concat_map
         (fun (d, _) -> List.map (fun tau -> (d, tau)) cluster_taus)
         digests)
  in
  let shard_index name =
    let rec go i = function
      | [] -> 0
      | n :: rest -> if n = name then i else go (i + 1) rest
    in
    go 0 shard_names
  in
  let num_clients = 6 and requests_per_client = 50 in
  let run_client idx =
    Domain.spawn (fun () ->
        let latencies = Array.make requests_per_client 0. in
        let hits = ref 0 and errors = ref 0 in
        let per_shard = Array.make (List.length shard_names) 0 in
        for k = 0 to requests_per_client - 1 do
          let digest, tau =
            pairs.(((idx * requests_per_client) + k) mod Array.length pairs)
          in
          let owner = shard_index (Ring.owner ring digest) in
          per_shard.(owner) <- per_shard.(owner) + 1;
          let t0 = Clock.now_ns () in
          let reply = Router.handle router (solve_env digest tau) in
          latencies.(k) <- Clock.seconds_since t0;
          if Protocol.response_ok reply then begin
            match Option.bind (Json.member "cached" reply) Json.to_bool_opt with
            | Some true -> incr hits
            | Some false | None -> ()
          end
          else incr errors
        done;
        (latencies, !hits, !errors, per_shard))
  in
  let t_run = Clock.now_ns () in
  let per_client = List.map Domain.join (List.init num_clients run_client) in
  let wall_s = Clock.seconds_since t_run in
  let latencies =
    Array.concat (List.map (fun (ls, _, _, _) -> ls) per_client)
  in
  let hits = List.fold_left (fun a (_, h, _, _) -> a + h) 0 per_client in
  let errors = List.fold_left (fun a (_, _, e, _) -> a + e) 0 per_client in
  let per_shard = Array.make (List.length shard_names) 0 in
  List.iter
    (fun (_, _, _, ps) ->
      Array.iteri (fun i n -> per_shard.(i) <- per_shard.(i) + n) ps)
    per_client;
  let pct = Stats.nearest_rank latencies in
  let total_requests = num_clients * requests_per_client in
  let requests_per_s = float_of_int total_requests /. wall_s in
  (* Resync: a cold follower pulls shard 0's whole journal through the
     faulty link (its very first connection is reset mid-stream). *)
  let s0 = shards.(0) in
  let target = Service.journal_last_index s0.bs_leader in
  let resync_records = Option.value target ~default:0 in
  let cold =
    Service.create
      ~config:(journaled (Filename.concat base "resync"))
      ~role:Service.Follower ()
  in
  let rstop = Atomic.make false in
  let t_resync = Clock.now_ns () in
  let rdom =
    Domain.spawn (fun () ->
        Replication.follow ~reconnect_ms:20. ~service:cold
          ~stop:(fun () -> Atomic.get rstop)
          s0.bs_dial)
  in
  wait_until ~what:"cold follower resync" (fun () ->
      Service.journal_last_index cold = target);
  let resync_s = Clock.seconds_since t_resync in
  Atomic.set rstop true;
  Domain.join rdom;
  Service.close cold;
  let faulty_conns =
    match s0.bs_proxy with Some p -> Faulty.connections p | None -> 0
  in
  let injected = (faulty_conns + fault_every - 1) / fault_every in
  (* Tear the cluster down: drain the six servers, stop the follow
     loops, then the hubs and the proxy. *)
  let shutdown addr =
    match
      Client.with_connection addr (fun c ->
          Client.request c (Json.Obj [ ("req", Json.String "shutdown") ]))
    with
    | Ok _ | Error _ -> ()
  in
  Array.iter
    (fun s ->
      shutdown s.bs_leader_addr;
      shutdown s.bs_follower_addr)
    shards;
  Array.iter
    (fun s ->
      Domain.join s.bs_leader_dom;
      Domain.join s.bs_follower_dom;
      Atomic.set s.bs_stop true;
      Domain.join s.bs_follow;
      Replication.stop_leader s.bs_hub;
      Option.iter Faulty.stop s.bs_proxy;
      Service.close s.bs_leader;
      Service.close s.bs_follower)
    shards;
  let cluster_table =
    Table.create
      [
        ("digests", Table.Right);
        ("requests", Table.Right);
        ("errors", Table.Right);
        ("cache hits", Table.Right);
        ("req/s", Table.Right);
        ("p50 ms", Table.Right);
        ("p99 ms", Table.Right);
      ]
  in
  Table.add_row cluster_table
    [
      string_of_int (List.length digests);
      string_of_int total_requests;
      string_of_int errors;
      Printf.sprintf "%d/%d" hits total_requests;
      Table.cell_float ~decimals:1 requests_per_s;
      Table.cell_float ~decimals:3 (pct 0.50 *. 1e3);
      Table.cell_float ~decimals:3 (pct 0.99 *. 1e3);
    ];
  Table.print cluster_table;
  let shard_table =
    Table.create
      [
        ("shard", Table.Left);
        ("digests", Table.Right);
        ("requests", Table.Right);
        ("journal records", Table.Right);
        ("replication link", Table.Left);
      ]
  in
  Array.iteri
    (fun i s ->
      Table.add_row shard_table
        [
          s.bs_name;
          string_of_int
            (List.length
               (List.filter (fun (d, _) -> Ring.owner ring d = s.bs_name) digests));
          string_of_int per_shard.(i);
          string_of_int
            (Option.value (Service.journal_last_index s.bs_leader) ~default:0);
          (if s.bs_proxy = None then "clean"
           else Printf.sprintf "1-in-%d reset" fault_every);
        ])
    shards;
  Table.print shard_table;
  Printf.printf
    "cold follower resync through the faulty link: %d records in %.1f ms \
     (%d replication connections, %d reset)\n"
    resync_records (resync_s *. 1e3) faulty_conns injected;
  write_json ~out_dir "BENCH_serve_cluster.json"
    Json.(
      Obj
        (spotify_header ~scenario:"serve_cluster" ~seeds ~scale:spotify_scale
        @ [
            ( "topology",
              Obj
                [
                  ("shards", Int (List.length shard_names)); ("replicas_per_shard", Int 2);
                  ("digests", Int (List.length digests));
                  ("vnodes", Int Router.default_config.Router.vnodes);
                ] );
            ("clients", Int num_clients); ("requests", Int total_requests);
            ("errors", Int errors); ("cache_hits", Int hits); ("wall_s", Float wall_s);
            ("requests_per_s", Float requests_per_s);
            ("latency_ms", latency_ms pct [ 0.50; 0.99 ]);
            ( "per_shard_requests",
              Obj (List.mapi (fun i name -> (name, Int per_shard.(i))) shard_names) );
            ( "replication",
              Obj
                [
                  ("fault_every", Int fault_every);
                  ("faulty_link_connections", Int faulty_conns);
                  ("injected_resets", Int injected); ("resync_records", Int resync_records);
                  ("resync_ms", Float (resync_s *. 1e3));
                ] );
          ]));
  rm_rf base

(* The incremental engine against cold re-solves: a 1k-delta churn
   stream folded one small batch at a time into a live engine on the
   large Spotify trace, with a cold Solver.solve sampled periodically on
   the same evolved workload. Reports apply-vs-cold p50/p95 latency, the
   pair-churn totals, and the cost gap of the surgically maintained plan
   against the cold answer and the Lower_bound — the numbers behind the
   claim that per-delta planning beats periodic-from-scratch.
   BENCH_engine.json: apply/cold latency, churn, cost gaps. *)
let engine_bench ~seeds ~spotify ~spotify_scale ~out_dir =
  section_header "engine"
    "incremental engine vs cold re-solve (Spotify, tau=100, 1k-delta stream)";
  let module Churn = Mcss_dynamic.Churn in
  let instance = Instance.c3_large in
  let model = Cost_model.ec2_2014 ~instance () in
  let capacity_events = bc_events ~scale:spotify_scale instance in
  let problem_for w = Problem.of_pricing ~capacity_events ~workload:w ~tau:100. model in
  let rng = Mcss_prng.Rng.create seeds.engine in
  let eng, create_s = timed (fun () -> Engine.create (problem_for spotify)) in
  let target_deltas = 1000 and cold_every = 10 in
  (* ~10 deltas per batch: a plausible between-runs accumulation, and
     ~100 latency samples for stable percentiles. *)
  let params = Churn.scaled 0.05 in
  let apply_lat = ref [] and cold_lat = ref [] and gaps = ref [] in
  let deltas_total = ref 0 and batches = ref 0 and resolves = ref 0 in
  let kept = ref 0 and added = ref 0 and removed = ref 0 and evicted = ref 0 in
  let vms_added = ref 0 and vms_removed = ref 0 in
  while !deltas_total < target_deltas do
    let w = (Engine.problem eng).Problem.workload in
    let ds = Churn.tick rng params w in
    let stats, s = timed (fun () -> Engine.apply eng ds) in
    apply_lat := s :: !apply_lat;
    deltas_total := !deltas_total + List.length ds;
    incr batches;
    if stats.Engine.resolved then incr resolves;
    kept := !kept + stats.Engine.pairs_kept;
    added := !added + stats.Engine.pairs_added;
    removed := !removed + stats.Engine.pairs_removed;
    evicted := !evicted + stats.Engine.pairs_evicted;
    vms_added := !vms_added + stats.Engine.vms_added;
    vms_removed := !vms_removed + stats.Engine.vms_removed;
    if !batches mod cold_every = 0 then begin
      let cold, cs = timed (fun () -> Solver.solve (Engine.problem eng)) in
      cold_lat := cs :: !cold_lat;
      gaps :=
        ((Engine.cost eng -. cold.Solver.cost) /. cold.Solver.cost *. 100.)
        :: !gaps
    end
  done;
  (* Final word on the evolved workload: verify the engine's plan, then
     price it against a cold solve and the Theorem-A.1 bound. *)
  let { Engine.problem = p_final; selection; allocation } = Engine.plan eng in
  let report = Verifier.verify p_final selection allocation in
  if not (Verifier.is_valid report) then
    failwith "engine bench: evolved allocation failed verification";
  let cold_final, cold_final_s = timed (fun () -> Solver.solve p_final) in
  cold_lat := cold_final_s :: !cold_lat;
  let lb = Lower_bound.compute p_final in
  let pct latencies = Stats.nearest_rank (Array.of_list latencies) in
  let apply_p50 = pct !apply_lat 0.50 and apply_p95 = pct !apply_lat 0.95 in
  let cold_p50 = pct !cold_lat 0.50 and cold_p95 = pct !cold_lat 0.95 in
  let speedup = cold_p50 /. apply_p50 in
  let gap_final =
    (Engine.cost eng -. cold_final.Solver.cost) /. cold_final.Solver.cost *. 100.
  in
  let gap_max = List.fold_left Float.max gap_final !gaps in
  let gap_lb = Lower_bound.gap_pct ~cost:(Engine.cost eng) lb in
  let table =
    Table.create
      [
        ("path", Table.Left);
        ("p50 ms", Table.Right);
        ("p95 ms", Table.Right);
        ("runs", Table.Right);
      ]
  in
  Table.add_row table
    [
      "engine apply (incremental)";
      Table.cell_float ~decimals:3 (apply_p50 *. 1e3);
      Table.cell_float ~decimals:3 (apply_p95 *. 1e3);
      string_of_int !batches;
    ];
  Table.add_row table
    [
      "cold Solver.solve";
      Table.cell_float ~decimals:3 (cold_p50 *. 1e3);
      Table.cell_float ~decimals:3 (cold_p95 *. 1e3);
      string_of_int (List.length !cold_lat);
    ];
  Table.print table;
  Printf.printf
    "%d deltas in %d batches: apply median %.1fx faster than cold; %d drift \
     re-solve(s)\n"
    !deltas_total !batches speedup !resolves;
  Printf.printf
    "churn: %d kept, +%d added, -%d removed, %d evicted, +%d/-%d VMs\n" !kept
    !added !removed !evicted !vms_added !vms_removed;
  Printf.printf
    "final cost: engine %s vs cold %s (gap %+.2f%%, worst sampled %+.2f%%); \
     lower bound %s (gap %+.1f%%)\n"
    (Table.cell_usd (Engine.cost eng))
    (Table.cell_usd cold_final.Solver.cost)
    gap_final gap_max
    (Table.cell_usd lb.Lower_bound.cost)
    gap_lb;
  write_json ~out_dir "BENCH_engine.json"
    Json.(
      Obj
        (spotify_header ~scenario:"engine_incremental" ~seeds ~scale:spotify_scale
        @ [
            ("tau", Int 100); ("deltas", Int !deltas_total); ("batches", Int !batches);
            ("create_s", Float create_s);
            ("apply_latency_ms", latency_ms (pct !apply_lat) [ 0.50; 0.95 ]);
            ("cold_solve_latency_ms", latency_ms (pct !cold_lat) [ 0.50; 0.95 ]);
            ("speedup_median", Float speedup);
            ( "churn",
              Obj
                [
                  ("pairs_kept", Int !kept); ("pairs_added", Int !added);
                  ("pairs_removed", Int !removed); ("pairs_evicted", Int !evicted);
                  ("vms_added", Int !vms_added); ("vms_removed", Int !vms_removed);
                  ("drift_resolves", Int !resolves);
                ] );
            ( "cost",
              Obj
                [
                  ("engine_usd", Float (Engine.cost eng));
                  ("cold_usd", Float cold_final.Solver.cost);
                  ("gap_vs_cold_pct", Float gap_final);
                  ("worst_sampled_gap_pct", Float gap_max);
                  ("lower_bound_usd", Float lb.Lower_bound.cost);
                  ("gap_vs_lower_bound_pct", Float gap_lb);
                ] );
          ]))

(* Live dataplane: boot the plan as a real broker fleet on Unix sockets,
   pump the deterministic schedule through it, and reconcile the
   measured ledgers against the Simulator — then a churn run with a
   mid-flight re-home, a chaos kill, and a recovery replan.
   BENCH_dataplane.json: delivered-events/s, e2e latency percentiles,
   drop window, reconciliation deviation. *)
let dataplane_bench ~seeds ~spotify_scale ~out_dir =
  section_header "dataplane"
    "live broker fleet behind the plan, reconciled against the simulator";
  let module Cluster = Mcss_dataplane.Cluster in
  let module Pump = Mcss_dataplane.Pump in
  let module Subscriber = Mcss_dataplane.Subscriber in
  let module Reconcile = Mcss_dataplane.Reconcile in
  let module Allocation = Mcss_core.Allocation in
  (* A live fleet pushes every delivery copy through a socket, so the
     trace is cut well below the solver benchmarks' scale. *)
  let dp_scale = spotify_scale /. 100. in
  let w = Front.generate ~seed:seeds.dataplane `Spotify ~scale:dp_scale in
  let instance = Instance.c3_large in
  let model = Cost_model.ec2_2014 ~instance () in
  (* Trace cutting does not shrink the hottest topic linearly, so floor
     the capacity at a few copies of it to keep the instance feasible. *)
  let capacity_events =
    let hottest = Array.fold_left Float.max 0. (Workload.event_rates w) in
    Float.max (bc_events ~scale:dp_scale instance) (4. *. hottest)
  in
  let p = Problem.of_pricing ~capacity_events ~workload:w ~tau:100. model in
  let r = Solver.solve p in
  let a0 = r.Solver.allocation in
  let message_bytes = 200 in
  let dir =
    let base = Filename.get_temp_dir_name () in
    let rec go i =
      let d = Filename.concat base (Printf.sprintf "mcss-bench-dp-%d" i) in
      match Unix.mkdir d 0o700 with
      | () -> d
      | exception Unix.Unix_error (Unix.EEXIST, _, _) -> go (i + 1)
    in
    go 0
  in
  let rm_dir d =
    Array.iter (fun f -> try Sys.remove (Filename.concat d f) with _ -> ())
      (try Sys.readdir d with _ -> [||]);
    try Unix.rmdir d with _ -> ()
  in
  let cluster = Cluster.boot ~dir ~message_bytes p a0 in
  Fun.protect
    ~finally:(fun () ->
      Cluster.shutdown cluster;
      rm_dir dir)
    (fun () ->
      let duration = 0.2 in
      Printf.printf
        "fleet: %d brokers, %d pairs, message %d B (spotify @ %g, tau=100)\n"
        (List.length (Cluster.live cluster))
        (Workload.num_pairs w) message_bytes dp_scale;
      (* Steady run: full speed, exact reconciliation. *)
      let steady_config =
        {
          Pump.default_config with
          Pump.duration;
          latency_seed = seeds.dataplane;
          tolerance = Some 0.;
        }
      in
      let steady = Pump.run ~config:steady_config cluster p a0 in
      let steady_rc =
        match steady.Pump.reconcile with
        | Some rc -> rc
        | None -> failwith "dataplane bench: reconciliation did not run"
      in
      let delivered = steady.Pump.totals.Mcss_report.Delivery.delivered in
      let per_s = float_of_int delivered /. steady.Pump.wall_s in
      let lat k =
        match steady.Pump.latency with
        | Some l -> k l *. 1e3
        | None -> 0.
      in
      let module Fleet = Mcss_broker.Fleet in
      let p50 = lat (fun l -> l.Fleet.p50)
      and p95 = lat (fun l -> l.Fleet.p95)
      and p99 = lat (fun l -> l.Fleet.p99) in
      Printf.printf
        "steady: %d events -> %d copies in %.2fs (%.0f deliveries/s); e2e \
         p50 %.2f ms p95 %.2f ms p99 %.2f ms; reconcile %s (max deviation \
         %.4f)\n"
        steady.Pump.publisher.Mcss_dataplane.Publisher.events delivered
        steady.Pump.wall_s per_s p50 p95 p99
        (if steady_rc.Reconcile.pass then "PASS" else "FAIL")
        steady_rc.Reconcile.max_deviation;
      let reconcile_json (rc : Reconcile.t) =
        Json.(
          Obj [ ("max_deviation", Float rc.Reconcile.max_deviation); ("pass", Bool rc.Reconcile.pass) ])
      in
      let write fleet churn =
        write_json ~out_dir "BENCH_dataplane.json"
          Json.(
            Obj
              (spotify_header ~scenario:"dataplane_live" ~seeds ~scale:dp_scale
              @ (("message_bytes", Int message_bytes) :: fleet)
              @ [
                  ( "steady",
                    Obj
                      [
                        ("duration_horizons", Float duration);
                        ("events", Int steady.Pump.publisher.Mcss_dataplane.Publisher.events);
                        ("copies_delivered", Int delivered); ("delivered_per_s", Float per_s);
                        ("latency_ms", Obj [ ("p50", Float p50); ("p95", Float p95); ("p99", Float p99) ]);
                        ("dropped", Int steady.Pump.totals.Mcss_report.Delivery.dropped);
                        ("reconcile", reconcile_json steady_rc);
                      ] );
                  ("churn", churn);
                ]))
      in
      (* Churn run: paced traffic with a live re-home and a chaos kill in
         the middle, then a recovery replan and a post-recovery check. *)
      let vms = Allocation.vms a0 in
      if Array.length vms < 2 then begin
        Printf.printf
          "(single-VM plan: churn run needs two brokers, skipping)\n";
        write [] Json.Null
      end
      else begin
        (* The re-home delta: every pair of VM 0's first topic moves to
           VM 1 — same pair set, different homes. *)
        let topic = List.hd (Allocation.topics_on vms.(0)) in
        let a1 =
          let b = Allocation.create ~capacity:(Allocation.capacity a0) in
          let fresh = Array.map (fun _ -> Allocation.deploy b) vms in
          Array.iteri
            (fun i vm ->
              Allocation.iter_vm_pairs vm (fun t s ->
                  let dest = if t = topic then fresh.(1) else fresh.(i) in
                  Allocation.place b dest ~topic:t
                    ~ev:(Workload.event_rate w t) ~subscribers:[| s |] ~from:0
                    ~count:1))
            vms;
          b
        in
        let churn_config =
          {
            Pump.default_config with
            Pump.duration;
            pace = 8.;
            latency_seed = seeds.dataplane + 1;
          }
        in
        let sim_predicted =
          (Mcss_sim.Simulator.run p a0
             { Mcss_sim.Simulator.default_config with duration })
            .Mcss_sim.Simulator.totals
            .Mcss_report.Delivery.delivered
        in
        let pump =
          Domain.spawn (fun () -> Pump.run ~config:churn_config cluster p a0)
        in
        Unix.sleepf 0.3;
        let rehome_stats = Cluster.apply_plan cluster a1 in
        Unix.sleepf 0.5;
        let victim =
          match
            List.find_opt
              (fun (id, _) -> Cluster.pairs_on cluster id > 0)
              (Cluster.live cluster)
          with
          | Some (id, _) -> id
          | None -> failwith "dataplane bench: no broker with pairs"
        in
        ignore (Cluster.kill cluster victim);
        let churn = Domain.join pump in
        let unique_total = Array.fold_left ( + ) 0 churn.Pump.unique in
        let undelivered = max 0 (sim_predicted - unique_total) in
        let dropped = churn.Pump.totals.Mcss_report.Delivery.dropped in
        Printf.printf
          "churn: re-home moved +%d/-%d pairs mid-run; killed broker %d; \
           drop window %d undelivered + %d dropped of %d predicted copies\n"
          rehome_stats.Cluster.pairs_added rehome_stats.Cluster.pairs_removed
          victim undelivered dropped sim_predicted;
        (* Replan around the corpse and converge the fleet onto it. *)
        let victim_plan_vm =
          match
            List.find_opt (fun (_, b) -> b = victim) (Cluster.assignment cluster)
          with
          | Some (pv, _) -> pv
          | None -> victim
        in
        let eng =
          Engine.of_plan ~drift_threshold:infinity
            { Engine.problem = p; selection = r.Solver.selection; allocation = a1 }
        in
        let rstats = Engine.fail eng ~failed:[ victim_plan_vm ] in
        let a2 = (Engine.plan eng).Engine.allocation in
        let recover_stats = Cluster.apply_plan cluster a2 in
        let post_config =
          {
            Pump.default_config with
            Pump.duration;
            latency_seed = seeds.dataplane + 2;
            tolerance = Some 0.;
          }
        in
        let post = Pump.run ~config:post_config cluster p a2 in
        let post_rc =
          match post.Pump.reconcile with
          | Some rc -> rc
          | None -> failwith "dataplane bench: reconciliation did not run"
        in
        Printf.printf
          "recovery: %d pairs re-homed by replan, %d broker(s) spawned; \
           post-recovery reconcile %s (max deviation %.4f)\n"
          rstats.Engine.pairs_rehomed recover_stats.Cluster.spawned
          (if post_rc.Reconcile.pass then "PASS" else "FAIL")
          post_rc.Reconcile.max_deviation;
        write
          [ ("fleet", Json.(Obj [ ("brokers", Int (Array.length vms)); ("pairs", Int (Workload.num_pairs w)) ])) ]
          Json.(
            Obj
              [
                ("duration_horizons", Float duration);
                ("pace_s_per_horizon", Float churn_config.Pump.pace);
                ( "rehome",
                  Obj
                    [
                      ("pairs_added", Int rehome_stats.Cluster.pairs_added);
                      ("pairs_removed", Int rehome_stats.Cluster.pairs_removed);
                    ] );
                ("killed_broker", Int victim);
                ( "drop_window",
                  Obj
                    [
                      ("undelivered_copies", Int undelivered); ("dropped_copies", Int dropped);
                      ("predicted_copies", Int sim_predicted);
                    ] );
                ( "recovery",
                  Obj
                    [
                      ("pairs_rehomed", Int rstats.Engine.pairs_rehomed);
                      ("brokers_spawned", Int recover_stats.Cluster.spawned);
                    ] );
                ("post_recovery_reconcile", reconcile_json post_rc);
              ])
      end)

(* Elastic capacity planning: a seeded diurnal day over the Spotify
   trace, replayed through the week simulator under the static
   (peak-envelope) baseline, reactive hysteresis, and finite-horizon
   lookahead — every intermediate plan verifier-clean, costs under
   reservation pricing. BENCH_elastic.json: per-policy week cost,
   savings vs static, oracle gap, scaling actions, replans, p95 slice
   apply latency. *)
let elastic_bench ~seeds ~spotify ~spotify_scale ~out_dir =
  section_header "elastic"
    "autoscaling policies vs the static peak plan (Spotify, diurnal day)";
  let module Rate_curve = Mcss_elastic.Rate_curve in
  let module Scenario = Mcss_elastic.Scenario in
  let module Week_sim = Mcss_elastic.Week_sim in
  let instance = Instance.c3_large in
  let model = Cost_model.ec2_2014 ~instance () in
  let capacity_events = bc_events ~scale:spotify_scale instance in
  let scenario =
    {
      Scenario.slices = 24;
      slice_hours = 1.;
      seed = seeds.elastic;
      coverage = 1.;
      curve =
        [
          Rate_curve.Diurnal
            { amplitude = 0.4; period_hours = 24.; phase_hours = 0. };
        ];
    }
  in
  let result, elapsed =
    timed (fun () ->
        Week_sim.run ~capacity_events ~workload:spotify ~tau:100. ~model
          scenario)
  in
  let runs = result.Week_sim.static :: result.Week_sim.policies in
  let static_usd = result.Week_sim.static.Week_sim.total_usd in
  let table =
    Table.create
      [
        ("policy", Table.Left);
        ("week cost", Table.Right);
        ("vs static", Table.Right);
        ("actions", Table.Right);
        ("replans", Table.Right);
        ("apply p95 ms", Table.Right);
        ("verifier", Table.Left);
      ]
  in
  List.iter
    (fun (r : Week_sim.policy_run) ->
      Table.add_row table
        [
          r.Week_sim.policy;
          Table.cell_usd r.Week_sim.total_usd;
          (if r.Week_sim.policy = "static" then "-"
           else
             Table.cell_pct
               (Table.pct_change ~baseline:static_usd r.Week_sim.total_usd));
          string_of_int r.Week_sim.scaling_actions;
          string_of_int r.Week_sim.reprovisions;
          Table.cell_float ~decimals:3 (r.Week_sim.apply_p95_seconds *. 1e3);
          (if r.Week_sim.clean then "CLEAN" else "VIOLATIONS");
        ])
    runs;
  Table.print table;
  let find name =
    List.find (fun (r : Week_sim.policy_run) -> r.Week_sim.policy = name) runs
  in
  let hysteresis = find "hysteresis" and lookahead = find "lookahead" in
  let all_clean = List.for_all (fun (r : Week_sim.policy_run) -> r.Week_sim.clean) runs in
  let beats (r : Week_sim.policy_run) = r.Week_sim.total_usd < static_usd in
  Printf.printf
    "oracle (knows the whole curve): %s, %s vs static; %d slices in %.1f s\n"
    (Table.cell_usd result.Week_sim.oracle_usd)
    (Table.cell_pct
       (Table.pct_change ~baseline:static_usd result.Week_sim.oracle_usd))
    scenario.Scenario.slices elapsed;
  if not (beats hysteresis && beats lookahead) then
    Printf.printf
      "WARNING: an adaptive policy failed to beat the static plan\n";
  if not all_clean then
    Printf.printf "WARNING: an intermediate plan failed verification\n";
  let savings usd = Json.Float (Table.pct_change ~baseline:static_usd usd) in
  let policy_json (r : Week_sim.policy_run) =
    Json.(
      Obj
        [
          ("week_usd", Float r.Week_sim.total_usd); ("vm_usd", Float r.Week_sim.vm_usd);
          ("bandwidth_usd", Float r.Week_sim.bandwidth_usd);
          ("scaling_usd", Float r.Week_sim.scaling_usd);
          ("savings_vs_static_pct", savings r.Week_sim.total_usd);
          ("scaling_actions", Int r.Week_sim.scaling_actions);
          ("reprovisions", Int r.Week_sim.reprovisions);
          ("apply_p95_s", Float r.Week_sim.apply_p95_seconds); ("clean", Bool r.Week_sim.clean);
        ])
  in
  write_json ~out_dir "BENCH_elastic.json"
    Json.(
      Obj
        (spotify_header ~scenario:"elastic" ~seeds ~scale:spotify_scale
        @ [
            ("tau", Int 100); ("curve", String "diurnal amplitude 0.4 period 24h");
            ("slices", Int scenario.Scenario.slices);
            ("slice_hours", Float scenario.Scenario.slice_hours);
            ("scenario_seed", Int scenario.Scenario.seed);
            ("static_fleet", Int result.Week_sim.static_fleet);
            ("static", policy_json result.Week_sim.static);
            ("hysteresis", policy_json hysteresis); ("lookahead", policy_json lookahead);
            ( "oracle",
              Obj
                [
                  ("week_usd", Float result.Week_sim.oracle_usd);
                  ("savings_vs_static_pct", savings result.Week_sim.oracle_usd);
                ] );
            ("adaptive_beats_static", Bool (beats hysteresis && beats lookahead));
            ("all_plans_clean", Bool all_clean); ("run_s", Float elapsed);
          ]));
  Week_sim.write_ledger (Filename.concat out_dir "elastic_ledger.json") result

(* Partition nemesis against the live replicated cluster: epochs,
   quorum acks, and automatic fenced failover under a seeded schedule
   of partitions and a stale-leader revival. The invariant booleans in
   BENCH_partition.json are hard gates: the section exits 1 when any of
   them is false, so a CI run cannot silently ship a failover
   regression. *)
let partition_bench ~seeds ~out_dir =
  let module Nemesis = Mcss_serve.Nemesis in
  Printf.printf "\n=== Partition nemesis: fenced failover under partitions ===\n%!";
  let t0 = Clock.now_ns () in
  let r =
    Nemesis.run
      {
        Nemesis.default_config with
        Nemesis.seed = seeds.partition;
        log = (fun s -> Printf.printf "  %s\n%!" s);
      }
  in
  let elapsed = Clock.seconds_since t0 in
  Printf.printf
    "updates: %d sent, %d acked, %d refused; %d auto promotions, %d fenced \
     demotions, %d divergent tails cut\n"
    r.Nemesis.r_updates_sent r.Nemesis.r_updates_acked r.Nemesis.r_updates_unacked
    r.Nemesis.r_auto_promotions r.Nemesis.r_fenced_demotions
    r.Nemesis.r_divergent_tails;
  Printf.printf "recovery after leader loss: p50 %.0f ms, p95 %.0f ms\n"
    r.Nemesis.r_recovery_p50_ms r.Nemesis.r_recovery_p95_ms;
  Printf.printf
    "invariants: single_writer=%b no_acked_lost=%b journals_converged=%b \
     plans_converged=%b verify_clean=%b\n"
    r.Nemesis.r_single_writer_per_epoch r.Nemesis.r_no_acked_update_lost
    r.Nemesis.r_journals_converged r.Nemesis.r_plan_digests_converged
    r.Nemesis.r_journals_verify_clean;
  write_json ~out_dir "BENCH_partition.json"
    Json.(
      Obj
        [
          ("scenario", String "partition"); ("runtime", runtime_json ());
          ("version", String (Mcss_serve.Build_info.to_string ()));
          ("run_s", Float elapsed); ("report", Nemesis.report_to_json r);
        ]);
  if not (Nemesis.passed r) then begin
    Printf.printf "FAILED: a failover invariant did not hold\n";
    exit 1
  end

(* Full-scale solves: the flat-array core and domain-parallel Stage-1
   across trace scales and domain counts, up to the published Spotify
   dimensions (scale 1.0: ~1.1 M topics, ~4.9 M subscribers). Traces
   arrive through the streaming generator, solves run at each domain
   count, and the per-scale digest equality is a hard gate: any domain
   count producing a different plan than --domains 1 exits 1.
   BENCH_scale.json: per-(scale, domains) wall time, pairs/sec, plan
   digest, per-phase GC words, and the process-wide peak RSS. *)
let scale_bench ~seeds ~domains:domain_counts ~max_scale ~out_dir =
  section_header "scale"
    "full-scale solves (flat core, domain-parallel Stage-1, Spotify, tau=100)";
  let scales =
    List.filter (fun s -> s <= max_scale +. 1e-12) [ 0.02; 0.1; 0.5; 1.0 ]
  in
  let domain_counts = if domain_counts = [] then [ 1; 2; 4 ] else domain_counts in
  let instance = Instance.c3_large in
  let tau = 100. in
  let table =
    Table.create
      [
        ("scale", Table.Right); ("domains", Table.Right); ("pairs", Table.Right);
        ("gen s", Table.Right); ("solve s", Table.Right);
        ("pairs/s", Table.Right); ("VMs", Table.Right); ("cost", Table.Right);
        ("digest", Table.Left);
      ]
  in
  let mismatches = ref 0 in
  let rows =
    List.concat_map
      (fun scale ->
        let w, gen_s =
          timed (fun () -> Front.generate ~seed:seeds.spotify `Spotify ~scale)
        in
        let _model, p = Front.problem_of ~w ~tau ~instance ~scale ~bc_events:None in
        let pairs = Workload.num_pairs w in
        let reference = ref "" in
        List.map
          (fun domains ->
            Mcss_obs.Gc_phase.reset ();
            let r, solve_s = timed (fun () -> Solver.solve ~domains p) in
            let digest =
              Digest.to_hex
                (Digest.string (Mcss_core.Plan_io.to_string r.Solver.allocation))
            in
            if !reference = "" then reference := digest;
            let equal = String.equal digest !reference in
            if not equal then incr mismatches;
            let pairs_per_s = float_of_int pairs /. solve_s in
            Table.add_row table
              [
                Printf.sprintf "%g" scale;
                string_of_int domains;
                string_of_int pairs;
                Table.cell_float ~decimals:2 gen_s;
                Table.cell_float ~decimals:2 solve_s;
                Printf.sprintf "%.3e" pairs_per_s;
                string_of_int r.Solver.num_vms;
                Table.cell_usd r.Solver.cost;
                (if equal then String.sub digest 0 12
                 else String.sub digest 0 12 ^ " MISMATCH");
              ];
            Json.(
              Obj
                [
                  ("scale", Float scale); ("domains", Int domains); ("pairs", Int pairs);
                  ("gen_s", Float gen_s); ("solve_s", Float solve_s);
                  ("pairs_per_s", Float pairs_per_s); ("vms", Int r.Solver.num_vms);
                  ("cost_usd", Float r.Solver.cost); ("plan_digest", String digest);
                  ("digest_matches_domains1", Bool equal);
                  ("gc_phases", Mcss_obs.Gc_phase.to_json ());
                ]))
          domain_counts)
      scales
  in
  Table.print table;
  write_json ~out_dir "BENCH_scale.json"
    Json.(
      Obj
        [
          ("scenario", String "scale"); ("trace", String "spotify"); ("tau", Float tau);
          ("instance", String instance.Instance.name); ("trace_seed", Int seeds.trace_seed);
          ("runtime", runtime_json ()); ("digests_converged", Bool (!mismatches = 0));
          ("runs", List rows);
        ]);
  if !mismatches > 0 then begin
    Printf.printf
      "FAILED: %d run(s) diverged from the --domains 1 plan digest\n" !mismatches;
    exit 1
  end

let all_sections =
  [
    "fig1"; "fig2a"; "fig2b"; "fig3a"; "fig3b"; "fig4"; "fig5"; "fig6"; "fig7";
    "fig8-12"; "summary"; "ablate-stage1"; "ablate-stage2"; "ablate-dynamic";
    "ablate-failures"; "ablate-scaling"; "ablate-skew"; "ablate-budget"; "latency";
    "resilience"; "obs"; "serve"; "serve-faults"; "serve-cluster"; "engine";
    "dataplane"; "elastic"; "partition"; "scale"; "micro";
  ]

let run_bench sections spotify_scale twitter_scale trace_seed domains max_scale
    out_dir =
  let enabled s = sections = [] || List.mem s sections in
  let seeds = derive_seeds trace_seed in
  Printf.printf
    "MCSS experiment harness — Spotify scale %g, Twitter scale %g, trace seed %d\n"
    spotify_scale twitter_scale seeds.trace_seed;
  (* [shared_workload] memoises on (trace, scale, seed) through lib/front,
     so every section — and the scale sweep below when its grid touches
     the same tuple — reuses one materialisation instead of regenerating
     the trace per section. *)
  let spotify =
    lazy (Front.shared_workload ~seed:seeds.spotify `Spotify ~scale:spotify_scale)
  in
  let twitter =
    lazy (Front.shared_workload ~seed:seeds.twitter `Twitter ~scale:twitter_scale)
  in
  let matrices = Hashtbl.create 4 in
  let matrix_for trace_name w scale instance =
    let key = (trace_name, instance.Instance.name) in
    match Hashtbl.find_opt matrices key with
    | Some m -> m
    | None ->
        let m = solve_matrix ~w:(Lazy.force w) ~scale ~instance in
        Hashtbl.add matrices key m;
        m
  in
  if enabled "fig1" then fig1 ();
  if enabled "fig2a" then
    print_cost_figure ~fig:"fig2a" ~title:"Spotify, BC=64 mbps (c3.large)"
      (matrix_for "spotify" spotify spotify_scale Instance.c3_large);
  if enabled "fig2b" then
    print_cost_figure ~fig:"fig2b" ~title:"Spotify, BC=128 mbps (c3.xlarge)"
      (matrix_for "spotify" spotify spotify_scale Instance.c3_xlarge);
  if enabled "fig3a" then
    print_cost_figure ~fig:"fig3a" ~title:"Twitter, BC=64 mbps (c3.large)"
      (matrix_for "twitter" twitter twitter_scale Instance.c3_large);
  if enabled "fig3b" then
    print_cost_figure ~fig:"fig3b" ~title:"Twitter, BC=128 mbps (c3.xlarge)"
      (matrix_for "twitter" twitter twitter_scale Instance.c3_xlarge);
  if enabled "fig4" then
    print_stage1_runtime_figure ~fig:"fig4" ~title:"Stage-1 runtime, Spotify"
      (matrix_for "spotify" spotify spotify_scale Instance.c3_large);
  if enabled "fig5" then
    print_stage1_runtime_figure ~fig:"fig5" ~title:"Stage-1 runtime, Twitter"
      (matrix_for "twitter" twitter twitter_scale Instance.c3_large);
  if enabled "fig6" then
    print_stage2_runtime_figure ~fig:"fig6" ~title:"Stage-2 runtime, Spotify (c3.large)"
      (matrix_for "spotify" spotify spotify_scale Instance.c3_large);
  if enabled "fig7" then
    print_stage2_runtime_figure ~fig:"fig7" ~title:"Stage-2 runtime, Twitter (c3.large)"
      (matrix_for "twitter" twitter twitter_scale Instance.c3_large);
  if enabled "fig8-12" then trace_analysis ~out_dir (Lazy.force twitter);
  if enabled "summary" then
    summary ~spotify:(Lazy.force spotify) ~twitter:(Lazy.force twitter) ~spotify_scale
      ~twitter_scale;
  if enabled "ablate-stage1" then begin
    ablate_stage1 ~title:"Stage-1 selector ablation (Spotify, tau=100)"
      ~w:(Lazy.force spotify) ~scale:spotify_scale;
    ablate_stage1 ~title:"Stage-1 selector ablation (Twitter, tau=100)"
      ~w:(Lazy.force twitter) ~scale:twitter_scale
  end;
  if enabled "ablate-stage2" then begin
    ablate_stage2 ~title:"Stage-2 packer ablation (Spotify, tau=100)"
      ~w:(Lazy.force spotify) ~scale:spotify_scale;
    ablate_stage2 ~title:"Stage-2 packer ablation (Twitter, tau=100)"
      ~w:(Lazy.force twitter) ~scale:twitter_scale
  end;
  if enabled "ablate-dynamic" then
    ablate_dynamic ~seeds ~w:(Lazy.force spotify);
  if enabled "ablate-failures" then ablate_failures ~w:(Lazy.force twitter) ~scale:twitter_scale;
  if enabled "ablate-scaling" then ablate_scaling ~seeds ();
  if enabled "ablate-skew" then ablate_skew ~seeds ~scale:spotify_scale;
  if enabled "ablate-budget" then ablate_budget ~w:(Lazy.force spotify) ~scale:spotify_scale;
  if enabled "latency" then latency ~seeds ~w:(Lazy.force spotify) ~scale:spotify_scale;
  if enabled "resilience" then
    resilience ~seeds ~w:(Lazy.force spotify) ~scale:spotify_scale ~out_dir;
  if enabled "obs" then
    obs_overhead ~seeds ~spotify:(Lazy.force spotify) ~twitter:(Lazy.force twitter)
      ~spotify_scale ~twitter_scale ~out_dir;
  if enabled "serve" then
    serve_bench ~seeds ~spotify:(Lazy.force spotify) ~spotify_scale ~out_dir;
  if enabled "serve-faults" then
    serve_faults_bench ~seeds ~spotify:(Lazy.force spotify) ~spotify_scale ~out_dir;
  if enabled "serve-cluster" then
    serve_cluster_bench ~seeds ~spotify:(Lazy.force spotify) ~spotify_scale ~out_dir;
  if enabled "engine" then
    engine_bench ~seeds ~spotify:(Lazy.force spotify) ~spotify_scale ~out_dir;
  if enabled "dataplane" then dataplane_bench ~seeds ~spotify_scale ~out_dir;
  if enabled "elastic" then
    elastic_bench ~seeds ~spotify:(Lazy.force spotify) ~spotify_scale ~out_dir;
  if enabled "partition" then partition_bench ~seeds ~out_dir;
  if enabled "scale" then scale_bench ~seeds ~domains ~max_scale ~out_dir;
  if enabled "micro" then micro ~seeds ();
  Printf.printf "\ndone. figure data series in %s/\n" out_dir

open Cmdliner

let sections_arg =
  let doc =
    Printf.sprintf "Sections to run (repeatable). Available: %s. Default: all."
      (String.concat ", " all_sections)
  in
  Arg.(value & opt_all string [] & info [ "s"; "section" ] ~docv:"SECTION" ~doc)

let spotify_scale_arg =
  let doc = "Spotify trace scale relative to the published 1.1M-topic trace." in
  Arg.(value & opt float 0.02 & info [ "spotify-scale" ] ~docv:"F" ~doc)

let twitter_scale_arg =
  let doc = "Twitter trace scale relative to the published 8M-topic trace." in
  Arg.(value & opt float 0.002 & info [ "twitter-scale" ] ~docv:"F" ~doc)

let trace_seed_arg =
  let doc =
    "Master seed for every synthetic trace and seeded RNG in the harness; \
     per-section seeds derive from it by fixed offsets, so one number \
     reproduces the whole run (including BENCH_*.json)."
  in
  Arg.(value & opt int default_trace_seed & info [ "trace-seed" ] ~docv:"N" ~doc)

let domains_arg =
  let doc =
    "Domain count for the $(b,scale) section (repeatable). Default: 1, 2, 4. \
     Every count must reproduce the --domains 1 plan digest bit-for-bit."
  in
  Arg.(value & opt_all int [] & info [ "domains" ] ~docv:"N" ~doc)

let max_scale_arg =
  let doc =
    "Largest Spotify scale the $(b,scale) section sweeps; 1.0 runs the \
     published trace dimensions (~1.1M topics, ~4.9M subscribers)."
  in
  Arg.(value & opt float 0.1 & info [ "max-scale" ] ~docv:"F" ~doc)

let out_dir_arg =
  let doc = "Directory for the figure data series (.dat files)." in
  Arg.(value & opt string "bench_out" & info [ "o"; "out-dir" ] ~docv:"DIR" ~doc)

let cmd =
  let doc = "Regenerate the paper's tables and figures" in
  Cmd.v
    (Cmd.info "mcss-bench" ~doc)
    Term.(
      const run_bench $ sections_arg $ spotify_scale_arg $ twitter_scale_arg
      $ trace_seed_arg $ domains_arg $ max_scale_arg $ out_dir_arg)

let () = exit (Cmd.eval cmd)
