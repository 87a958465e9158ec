module Registry = Mcss_obs.Registry
module Span = Mcss_obs.Span
module Counter = Mcss_obs.Metric.Counter
module Gauge = Mcss_obs.Metric.Gauge

type stage1 = Gsp | Gsp_reference | Rsp | Global_greedy
type stage2 = Ffbp | Cbp of Cbp.options

type config = { stage1 : stage1; stage2 : stage2 }

type result = {
  selection : Selection.t;
  allocation : Allocation.t;
  num_vms : int;
  bandwidth : float;
  cost : float;
  stage1_seconds : float;
  stage2_seconds : float;
}

let default = { stage1 = Gsp; stage2 = Cbp Cbp.with_cost_decision }
let naive = { stage1 = Rsp; stage2 = Ffbp }

let ladder =
  [
    ("RSP+FFBP", naive);
    ("(a) GSP+FFBP", { stage1 = Gsp; stage2 = Ffbp });
    ("(b) +grouping", { stage1 = Gsp; stage2 = Cbp Cbp.grouping_only });
    ("(c) +expensive-first", { stage1 = Gsp; stage2 = Cbp Cbp.with_expensive_first });
    ("(d) +most-free-VM", { stage1 = Gsp; stage2 = Cbp Cbp.with_most_free });
    ("(e) +cost-decision", { stage1 = Gsp; stage2 = Cbp Cbp.with_cost_decision });
  ]

let config_of_name name = List.assoc_opt name ladder

(* Monotonic, so the reported stage timings cannot go negative or jump
   when the wall clock is adjusted mid-solve. *)
let timed f =
  let start = Mcss_obs.Clock.now_ns () in
  let x = f () in
  (x, Mcss_obs.Clock.seconds_since start)

let solve ?(obs = Registry.noop) ?(config = default) ?(domains = 1) (p : Problem.t) =
  Span.with_ obs ~name:"solve" @@ fun () ->
  let selection, stage1_seconds =
    timed (fun () ->
        Span.with_ obs ~name:"stage1" (fun () ->
            Mcss_obs.Gc_phase.measure ~obs "stage1" (fun () ->
                match config.stage1 with
                | Gsp -> Selection.gsp ~obs ~domains p
                | Gsp_reference -> Selection.gsp_reference ~obs p
                | Rsp -> Selection.rsp ~obs p
                | Global_greedy -> Global_greedy.select p)))
  in
  let allocation, stage2_seconds =
    timed (fun () ->
        Span.with_ obs ~name:"stage2" (fun () ->
            Mcss_obs.Gc_phase.measure ~obs "stage2" (fun () ->
                match config.stage2 with
                | Ffbp -> Ffbp.run ~obs p selection
                | Cbp opts -> Cbp.run ~obs ~domains p selection opts)))
  in
  let num_vms = Allocation.num_vms allocation in
  let bandwidth = Allocation.total_load allocation in
  let cost = Problem.cost p ~vms:num_vms ~bandwidth in
  Counter.inc (Registry.counter obs ~help:"Solver.solve invocations" "solve.runs");
  Gauge.set (Registry.gauge obs ~help:"VMs in the final allocation" "solve.num_vms")
    (float_of_int num_vms);
  Gauge.set
    (Registry.gauge obs ~help:"Total bandwidth of the final allocation (event units)"
       "solve.bandwidth_events")
    bandwidth;
  Gauge.set (Registry.gauge obs ~help:"Deployment cost of the final allocation (USD)"
       "solve.cost_usd")
    cost;
  {
    selection;
    allocation;
    num_vms;
    bandwidth;
    cost;
    stage1_seconds;
    stage2_seconds;
  }

let pp_result ppf r =
  Format.fprintf ppf
    "%d pairs selected, %d VMs, bandwidth %.1f, cost $%.2f (stage1 %.3fs, stage2 %.3fs)"
    r.selection.Selection.num_pairs r.num_vms r.bandwidth r.cost r.stage1_seconds
    r.stage2_seconds
