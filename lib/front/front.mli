(** Shared front-end plumbing for the [mcss] CLI and the experiment
    harness: the implied per-VM capacity constant, synthetic-trace
    generation with seed overrides, workload/plan loading with uniform
    error strings, instance lookup, problem construction, and
    ladder-configuration selection. Both front-ends answer "which
    problem does this command line describe?" through this module, so
    they cannot drift apart. *)

val implied_bc_full_scale : float
(** The paper's cost figures imply an effective per-VM capacity of ~5e7
    events per 10-day horizon for c3.large (total bandwidth divided by
    VM count at high tau); see EXPERIMENTS.md. *)

val bc_events : scale:float -> Mcss_pricing.Instance.t -> float
(** The utilisation-consistent default capacity:
    {!implied_bc_full_scale} scaled by the trace scale and the
    instance's bandwidth relative to c3.large's 64 mbps. *)

type trace = [ `Spotify | `Twitter ]

val validate_scale : float -> (float, string) result
(** Accept scales in (0, 1]; [Error] is a one-line reason suitable for
    stderr. *)

val validate_domains : int -> (int, string) result
(** Accept domain counts >= 1; [Error] is a one-line reason suitable
    for stderr. *)

val validate_tau : float -> (float, string) result
(** Accept positive thresholds (infinity included); [Error] for zero,
    negative or NaN, as a one-line reason suitable for stderr. *)

val validate_bc_events : float -> (float, string) result
(** Accept positive per-VM capacities (infinity included); [Error] for
    zero, negative or NaN, as a one-line reason suitable for stderr. *)

val catch_infeasible : (unit -> 'a) -> ('a, string) result
(** [f ()], or [Error "infeasible: <reason>"] when it raises
    {!Mcss_core.Problem.Infeasible}: the one rendering of a problem that
    no plan can satisfy, suitable for stderr. *)

val source : ?seed:int -> trace -> scale:float -> Mcss_traces.Stream.source
(** The streaming-generator source for a synthetic trace at [scale]
    relative to the published full-size trace, overriding the family's
    default seed when [seed] is given. *)

val generate : ?seed:int -> trace -> scale:float -> Mcss_workload.Workload.t
(** Generate a synthetic trace at [scale] via {!Mcss_traces.Stream}
    (bit-identical to the materialised generators, without a second
    copy of the edge list). *)

val shared_workload :
  ?seed:int -> trace -> scale:float -> Mcss_workload.Workload.t
(** {!generate}, memoised on [(trace, scale, seed)] for the lifetime of
    the process, so bench sections that share a trace build it once. *)

val load_workload :
  file:string option ->
  trace:trace option ->
  scale:float ->
  seed:int option ->
  (Mcss_workload.Workload.t, string) result
(** A workload from [file] when given (Wio format), else a synthetic
    [trace]; [Error] is a one-line reason (missing file, parse error,
    or neither source named). *)

val load_plan :
  workload:Mcss_workload.Workload.t ->
  string ->
  (Mcss_core.Allocation.t * Mcss_core.Selection.t, string) result
(** A saved plan via {!Mcss_core.Plan_io.load}, with file and parse
    errors as one-line reasons. *)

val resolve_instance : string -> (Mcss_pricing.Instance.t, string) result
(** Catalogue lookup by EC2 instance-type name. *)

val problem_of :
  w:Mcss_workload.Workload.t ->
  tau:float ->
  instance:Mcss_pricing.Instance.t ->
  scale:float ->
  bc_events:float option ->
  Mcss_pricing.Cost_model.t * Mcss_core.Problem.t
(** The 2014 EC2 cost model for [instance] and the MCSS problem it
    prices, with per-VM capacity [bc_events] or the {!bc_events}
    default. *)

val config_or_default : string -> Mcss_core.Solver.config
(** The ladder configuration with that name, or
    {!Mcss_core.Solver.default} when the name is unknown. *)

val configs : ladder:bool -> string -> (string * Mcss_core.Solver.config) list
(** What a solve-style command runs: the whole optimisation ladder when
    [ladder], else the single named configuration (defaulted as in
    {!config_or_default}, keeping the requested name as the label). *)
