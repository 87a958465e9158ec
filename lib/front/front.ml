module Wio = Mcss_workload.Wio
module Instance = Mcss_pricing.Instance
module Cost_model = Mcss_pricing.Cost_model
module Problem = Mcss_core.Problem
module Solver = Mcss_core.Solver

let implied_bc_full_scale = 5e7

let bc_events ~scale (instance : Instance.t) =
  implied_bc_full_scale *. scale *. (instance.Instance.bandwidth_mbps /. 64.)

type trace = [ `Spotify | `Twitter ]

let validate_scale scale =
  if Float.is_nan scale || scale <= 0. || scale > 1. then
    Error (Printf.sprintf "--scale must be in (0, 1], got %g" scale)
  else Ok scale

let validate_domains domains =
  if domains < 1 then
    Error (Printf.sprintf "--domains must be >= 1, got %d" domains)
  else Ok domains

let validate_tau tau =
  if Float.is_nan tau || tau <= 0. then
    Error (Printf.sprintf "--tau must be positive, got %g" tau)
  else Ok tau

let validate_bc_events bc =
  if Float.is_nan bc || bc <= 0. then
    Error (Printf.sprintf "--bc-events must be positive, got %g" bc)
  else Ok bc

let catch_infeasible f =
  match f () with x -> Ok x | exception Problem.Infeasible m -> Error ("infeasible: " ^ m)

let source ?seed trace ~scale =
  match trace with
  | `Spotify ->
      let p = Mcss_traces.Spotify.scaled scale in
      let p =
        match seed with Some s -> { p with Mcss_traces.Spotify.seed = s } | None -> p
      in
      Mcss_traces.Stream.Spotify p
  | `Twitter ->
      let p = Mcss_traces.Twitter.scaled scale in
      let p =
        match seed with Some s -> { p with Mcss_traces.Twitter.seed = s } | None -> p
      in
      Mcss_traces.Stream.Twitter p

let generate ?seed trace ~scale =
  Mcss_traces.Stream.workload (source ?seed trace ~scale)

(* Bench sections previously regenerated the same trace once per
   section; memoising on the full parameter tuple makes the trace a
   shared input instead. *)
let shared_cache :
    (trace * float * int option, Mcss_workload.Workload.t) Hashtbl.t =
  Hashtbl.create 4

let shared_workload ?seed trace ~scale =
  let key = (trace, scale, seed) in
  match Hashtbl.find_opt shared_cache key with
  | Some w -> w
  | None ->
      let w = generate ?seed trace ~scale in
      Hashtbl.replace shared_cache key w;
      w

let load_workload ~file ~trace ~scale ~seed =
  match (file, trace) with
  | Some path, _ -> (
      try Ok (Wio.load path) with
      | Sys_error msg -> Error msg
      | Wio.Parse_error msg | Failure msg -> Error (Printf.sprintf "%s: %s" path msg))
  | None, Some trace -> Ok (generate ?seed trace ~scale)
  | None, None -> Error "pass either --workload FILE or --trace NAME"

let load_plan ~workload path =
  match Mcss_core.Plan_io.load ~workload path with
  | plan -> Ok plan
  | exception Sys_error msg -> Error msg
  | exception Mcss_core.Plan_io.Parse_error msg ->
      Error (Printf.sprintf "%s: %s" path msg)

let resolve_instance name =
  match Instance.find name with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "unknown instance type %S" name)

let problem_of ~w ~tau ~instance ~scale ~bc_events:bc =
  let model = Cost_model.ec2_2014 ~instance () in
  let capacity_events =
    match bc with Some c -> c | None -> bc_events ~scale instance
  in
  (model, Problem.of_pricing ~capacity_events ~workload:w ~tau model)

let config_or_default name =
  match Solver.config_of_name name with Some c -> c | None -> Solver.default

let configs ~ladder name =
  if ladder then Solver.ladder else [ (name, config_or_default name) ]
