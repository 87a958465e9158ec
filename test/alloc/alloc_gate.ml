(* The allocation gate of the plan path. Wall time on a shared runner is
   too noisy to gate on, but the words a layer allocates are not: this
   solves Spotify at scale 0.01 (seed 5, tau 100, c3.large, one domain)
   and reads [Gc.counters] (minor + major - promoted, so direct major
   allocations count) around one call of each layer of the plan path,
   after one warm-up call of it.

   With no argument it prints the figures in the baseline's format:

     dune exec test/alloc/alloc_gate.exe > test/alloc/alloc_gate.expected

   With a baseline file it compares: the structural fields (pairs
   selected, VMs, plan bytes and plan MD5) must match exactly, and each
   layer's words must lie within [tolerance] of the baseline, above or
   below, so a saving refreshes the baseline rather than leaving room
   for a later regression. A change that moves a figure on purpose
   rewrites the baseline with the command above. The counts depend on
   the compiler (OCaml 5.1). *)

open Mcss_core
module Front = Mcss_front.Front

let tolerance = 0.10

let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* [f ()] and the words its second call allocates. Each reading
   follows an emptied minor heap: OCaml 5 counts the words of the
   current minor heap only up to its last collection, so a reading in
   mid-heap would vary with where the previous collection fell. *)
let measure f =
  ignore (f ());
  Gc.minor ();
  let before = words () in
  let r = f () in
  Gc.minor ();
  (r, Float.to_int (words () -. before))

let figures () =
  let scale = 0.01 in
  let w = Front.generate ~seed:5 `Spotify ~scale in
  let instance = Result.get_ok (Front.resolve_instance "c3.large") in
  let _, p = Front.problem_of ~w ~tau:100. ~instance ~scale ~bc_events:None in
  let r, solve = measure (fun () -> Solver.solve ~domains:1 p) in
  let a = r.Solver.allocation in
  let _, verify = measure (fun () -> Verifier.verify p r.Solver.selection a) in
  let _, bound = measure (fun () -> Lower_bound.compute p) in
  let text, encode = measure (fun () -> Plan_io.to_string a) in
  let _, decode = measure (fun () -> Plan_io.of_string ~workload:w text) in
  [
    ("pairs_selected", `Exact (string_of_int r.Solver.selection.Selection.num_pairs));
    ("vms", `Exact (string_of_int r.Solver.num_vms));
    ("plan_bytes", `Exact (string_of_int (String.length text)));
    ("plan_md5", `Exact (Digest.to_hex (Digest.string text)));
    ("words.solver_solve", `Words solve);
    ("words.verifier_verify", `Words verify);
    ("words.lower_bound_compute", `Words bound);
    ("words.plan_io_to_string", `Words encode);
    ("words.plan_io_of_string", `Words decode);
  ]

let show = function `Exact s -> s | `Words n -> string_of_int n

let read_baseline path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ name; value ] when not (String.starts_with ~prefix:"#" name) -> Some (name, value)
         | _ -> None)

let () =
  let figures = figures () in
  match Sys.argv with
  | [| _ |] ->
      print_endline
        "# Plan-path allocation baseline: Spotify 0.01 seed 5, tau 100, c3.large, one domain.";
      List.iter (fun (name, v) -> Printf.printf "%s %s\n" name (show v)) figures
  | [| _; path |] ->
      let baseline = read_baseline path in
      let failures =
        List.filter_map
          (fun (name, v) ->
            match (List.assoc_opt name baseline, v) with
            | None, _ -> Some (Printf.sprintf "%s: %s, not in the baseline" name (show v))
            | Some want, `Exact got ->
                if got = want then None
                else Some (Printf.sprintf "%s: %s, baseline %s" name got want)
            | Some want, `Words got -> (
                match int_of_string_opt want with
                | Some want
                  when Float.abs (float_of_int (got - want))
                       <= tolerance *. float_of_int (max want 1) ->
                    None
                | _ ->
                    Some
                      (Printf.sprintf "%s: %d words, baseline %s (tolerance %.0f%%)" name got want
                         (100. *. tolerance))))
          figures
      in
      if failures <> [] then begin
        List.iter (fun f -> prerr_endline ("alloc_gate: " ^ f)) failures;
        prerr_endline
          "alloc_gate: rewrite the baseline on purpose with\n\
          \  dune exec test/alloc/alloc_gate.exe > test/alloc/alloc_gate.expected";
        exit 1
      end
  | _ ->
      prerr_endline "usage: alloc_gate.exe [BASELINE]";
      exit 2
