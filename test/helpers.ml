(* Shared builders for the test suites: hand-written and random MCSS
   instances with integral event rates (as in the real traces), so float
   sums are exact and cross-implementation comparisons are meaningful. *)

module Workload = Mcss_workload.Workload
module Problem = Mcss_core.Problem

let workload ~rates ~interests =
  Workload.create ~event_rates:(Array.of_list rates)
    ~interests:(Array.of_list (List.map Array.of_list interests))

(* The Fig. 1 workload: t0 at 20 events/min, t1 at 10, five pairs. *)
let fig1_workload () =
  workload ~rates:[ 20.; 10. ] ~interests:[ [ 0; 1 ]; [ 0; 1 ]; [ 1 ] ]

let fig1_problem ?(capacity = 80.) ?(tau = 30.) () =
  Problem.create ~workload:(fig1_workload ()) ~tau ~capacity Problem.unit_costs

(* A deterministic random instance. Rates are integers in [1, max_rate];
   every subscriber has between 1 and [max_interests] distinct topics. *)
let random_workload rng ~num_topics ~num_subscribers ~max_rate ~max_interests =
  let open Mcss_prng in
  let event_rates =
    Array.init num_topics (fun _ -> float_of_int (1 + Rng.int rng max_rate))
  in
  let interests =
    Array.init num_subscribers (fun _ ->
        let k = 1 + Rng.int rng (min max_interests num_topics) in
        Rng.sample_without_replacement rng k num_topics)
  in
  Workload.create ~event_rates ~interests

let random_problem rng ~num_topics ~num_subscribers ~max_rate ~max_interests ~tau
    ~capacity =
  let workload =
    random_workload rng ~num_topics ~num_subscribers ~max_rate ~max_interests
  in
  Problem.create ~workload ~tau ~capacity
    (Problem.linear_costs ~vm_usd:36. ~per_event_usd:0.001)

(* QCheck generator of a full problem, sized to stay fast. *)
let problem_gen =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    let* num_topics = int_range 2 40 in
    let* num_subscribers = int_range 1 60 in
    let* max_rate = int_range 1 50 in
    let* max_interests = int_range 1 8 in
    let* tau = int_range 1 120 in
    let* cap_factor = int_range 3 30 in
    let rng = Mcss_prng.Rng.create seed in
    let capacity = float_of_int (cap_factor * max_rate) in
    return
      (random_problem rng ~num_topics ~num_subscribers ~max_rate ~max_interests
         ~tau:(float_of_int tau) ~capacity))

let problem_arbitrary =
  QCheck.make problem_gen ~print:(fun p ->
      Format.asprintf "%a, tau=%g, BC=%g" Workload.pp_summary p.Problem.workload
        p.Problem.tau p.Problem.capacity)

(* A tiny-instance generator for exact-solver comparisons. *)
let tiny_problem_gen =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    let* num_topics = int_range 2 5 in
    let* num_subscribers = int_range 1 3 in
    let* max_rate = int_range 1 9 in
    let* tau = int_range 1 15 in
    let rng = Mcss_prng.Rng.create seed in
    return
      (random_problem rng ~num_topics ~num_subscribers ~max_rate ~max_interests:3
         ~tau:(float_of_int tau) ~capacity:(float_of_int (4 * max_rate))))

let tiny_problem_arbitrary =
  QCheck.make tiny_problem_gen ~print:(fun p ->
      Format.asprintf "%a, tau=%g, BC=%g" Workload.pp_summary p.Problem.workload
        p.Problem.tau p.Problem.capacity)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let qtest ?(count = 100) name arbitrary prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arbitrary prop)

(* ----- scratch directories ----- *)

let dir_counter = ref 0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* Run [f] on a fresh path under the temp dir (not yet created), and
   remove whatever it left there. *)
let with_dir ?(prefix = "mcss-test") f =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !dir_counter)
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* A selection's flat slices as one array per subscriber. *)
let selection_rows s =
  Array.init (Mcss_core.Selection.num_subscribers s) (Mcss_core.Selection.row s)

(* [Arena.Transpose.of_slices] over the rows [row 0 .. row (rows - 1)]
   (such as a workload's interest rows), laid out as one flat array. *)
let transpose_rows ?domains ~width ~rows row =
  let rows = Array.init rows row in
  let offs = Array.make (Array.length rows + 1) 0 in
  Array.iteri (fun r a -> offs.(r + 1) <- offs.(r) + Array.length a) rows;
  Mcss_core.Arena.Transpose.of_slices ?domains ~width ~offs (Array.concat (Array.to_list rows))
