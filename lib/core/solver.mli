(** The end-to-end two-stage MCSS heuristic (§III): pick a Stage-1
    selector and a Stage-2 packer, run them, and account the result.

    The paper's evaluation compares six configurations — the naive
    baseline plus the optimisation ladder (a)–(e) — which {!ladder}
    provides by name so benchmarks and the CLI share one source of
    truth. *)

type stage1 =
  | Gsp  (** {!Selection.gsp}, on the [domains] given to {!solve}. *)
  | Gsp_reference
  | Rsp
  | Global_greedy  (** The cross-subscriber extension, {!Global_greedy}. *)

type stage2 = Ffbp | Cbp of Cbp.options

type config = { stage1 : stage1; stage2 : stage2 }

type result = {
  selection : Selection.t;
  allocation : Allocation.t;
  num_vms : int;
  bandwidth : float;  (** [Σ_b bw_b], event units. *)
  cost : float;  (** [C1(num_vms) + C2(bandwidth)]. *)
  stage1_seconds : float;
  stage2_seconds : float;
}

val solve :
  ?obs:Mcss_obs.Registry.t -> ?config:config -> ?domains:int -> Problem.t -> result
(** Run both stages ([config] defaults to {!default}: GSP + full CBP).
    Raises {!Problem.Infeasible} when the workload cannot fit the VM
    capacity. [domains] (default 1) fans GSP's Stage 1 and CBP's
    transpose out over that many OCaml 5 domains; the result is
    {e bit-identical} to the sequential solve at any domain count
    (property-tested), so [--domains] is purely a wall-clock knob.
    [obs] (default {!Mcss_obs.Registry.noop}) records a
    [solve] span with [stage1]/[stage2] children, the Stage-1/Stage-2
    work counters of the chosen selector and packer, per-stage GC
    allocation phases ({!Mcss_obs.Gc_phase}), and the
    [solve.num_vms] / [solve.bandwidth_events] / [solve.cost_usd]
    result gauges. *)

val default : config
(** GSP + CBP with all optimisations (b)–(e). *)

val naive : config
(** RSP + FFBP, the paper's baseline. *)

val ladder : (string * config) list
(** The evaluation ladder, in the paper's order: ["RSP+FFBP"],
    ["(a) GSP+FFBP"], ["(b) +grouping"], ["(c) +expensive-first"],
    ["(d) +most-free-VM"], ["(e) +cost-decision"]. *)

val config_of_name : string -> config option
(** Look up a ladder entry by its name. *)

val pp_result : Format.formatter -> result -> unit
