(* Tests that the verifier actually catches each class of violation —
   built by hand-placing pairs outside the algorithms. *)

module Problem = Mcss_core.Problem
module Selection = Mcss_core.Selection
module Allocation = Mcss_core.Allocation
module Verifier = Mcss_core.Verifier
module Solver = Mcss_core.Solver
module Workload = Mcss_workload.Workload

(* The verifier as it stood before the flat-array rewrite, copied
   verbatim: the oracle for the differential property below. *)
module Oracle = struct
  type violation = Verifier.violation =
    | Over_capacity of { vm : int; load : float }
    | Load_mismatch of { vm : int; tracked : float; recomputed : float }
    | Unsatisfied of { subscriber : int; delivered : float; required : float }
    | Pair_not_selected of { topic : int; subscriber : int }
    | Pair_duplicated of { topic : int; subscriber : int }
    | Pair_missing of { topic : int; subscriber : int }

  type report = Verifier.report = {
    violations : violation list;
    num_vms : int;
    total_bandwidth : float;
    cost : float;
  }

  let verify (p : Problem.t) (s : Selection.t) a =
    let w = p.Problem.workload in
    let eps = Problem.epsilon p in
    let violations = ref [] in
    let add v = violations := v :: !violations in
    (* Pair bookkeeping: which selected pairs have we seen placed? *)
    let placed : (int * int, int) Hashtbl.t = Hashtbl.create (2 * s.Selection.num_pairs) in
    let delivered = Array.make (Workload.num_subscribers w) 0. in
    let selected : (int * int, unit) Hashtbl.t = Hashtbl.create (2 * s.Selection.num_pairs) in
    Selection.iter_pairs s (fun t v -> Hashtbl.replace selected (t, v) ());
    let total_bandwidth = ref 0. in
    Array.iter
      (fun vm ->
        let outgoing = ref 0. in
        let incoming = ref 0. in
        let topics_seen = Hashtbl.create 16 in
        Allocation.iter_vm_pairs vm (fun t v ->
            let ev = Workload.event_rate w t in
            outgoing := !outgoing +. ev;
            if not (Hashtbl.mem topics_seen t) then begin
              Hashtbl.add topics_seen t ();
              incoming := !incoming +. ev
            end;
            (match Hashtbl.find_opt placed (t, v) with
            | None ->
                Hashtbl.add placed (t, v) 1;
                delivered.(v) <- delivered.(v) +. ev
            | Some n ->
                if n = 1 then add (Pair_duplicated { topic = t; subscriber = v });
                Hashtbl.replace placed (t, v) (n + 1));
            if not (Hashtbl.mem selected (t, v)) then
              add (Pair_not_selected { topic = t; subscriber = v }));
        let recomputed = !outgoing +. !incoming in
        total_bandwidth := !total_bandwidth +. recomputed;
        if recomputed > p.Problem.capacity +. eps then
          add (Over_capacity { vm = Allocation.vm_id vm; load = recomputed });
        if Float.abs (recomputed -. Allocation.load vm) > eps then
          add
            (Load_mismatch
               {
                 vm = Allocation.vm_id vm;
                 tracked = Allocation.load vm;
                 recomputed;
               }))
      (Allocation.vms a);
    Hashtbl.iter
      (fun (t, v) () ->
        if not (Hashtbl.mem placed (t, v)) then
          add (Pair_missing { topic = t; subscriber = v }))
      selected;
    for v = 0 to Workload.num_subscribers w - 1 do
      let required = Problem.tau_v p v in
      if delivered.(v) +. eps < required then
        add (Unsatisfied { subscriber = v; delivered = delivered.(v); required })
    done;
    {
      violations = List.rev !violations;
      num_vms = Allocation.num_vms a;
      total_bandwidth = !total_bandwidth;
      cost = Problem.cost p ~vms:(Allocation.num_vms a) ~bandwidth:!total_bandwidth;
    }
end

let has pred report = List.exists pred report.Verifier.violations

let test_clean_solution_is_valid () =
  let p = Helpers.fig1_problem () in
  let r = Solver.solve p in
  let report = Verifier.verify p r.Solver.selection r.Solver.allocation in
  Helpers.check_bool "valid" true (Verifier.is_valid report);
  Helpers.check_int "vms agree" r.Solver.num_vms report.Verifier.num_vms;
  Helpers.check_float "bandwidth agrees" r.Solver.bandwidth report.Verifier.total_bandwidth

let test_detects_missing_pair () =
  let p = Helpers.fig1_problem () in
  let s = Selection.gsp p in
  let a = Allocation.create ~capacity:80. in
  let b = Allocation.deploy a in
  (* Place only one of the five selected pairs. *)
  Allocation.place a b ~topic:0 ~ev:20. ~subscribers:[| 0 |] ~from:0 ~count:1;
  let report = Verifier.verify p s a in
  Helpers.check_bool "missing pair flagged" true
    (has (function Verifier.Pair_missing _ -> true | _ -> false) report);
  Helpers.check_bool "unsatisfied flagged" true
    (has (function Verifier.Unsatisfied _ -> true | _ -> false) report)

let test_detects_over_capacity () =
  let p = Helpers.fig1_problem ~capacity:35. ~tau:10. () in
  let selection =
    (* A hand-built selection of all five pairs; packing them all on one
       35-capacity VM must trip the capacity check. *)
    let chosen = [| [| 0; 1 |]; [| 0; 1 |]; [| 1 |] |] in
    {
      Selection.chosen;
      selected_rate = [| 30.; 30.; 10. |];
      num_pairs = 5;
      outgoing_rate = 70.;
    }
  in
  let a = Allocation.create ~capacity:35. in
  let b = Allocation.deploy a in
  Allocation.place a b ~topic:0 ~ev:20. ~subscribers:[| 0; 1 |] ~from:0 ~count:2;
  Allocation.place a b ~topic:1 ~ev:10. ~subscribers:[| 0; 1; 2 |] ~from:0 ~count:3;
  let report = Verifier.verify p selection a in
  Helpers.check_bool "over capacity flagged" true
    (has (function Verifier.Over_capacity _ -> true | _ -> false) report)

let test_detects_foreign_pair () =
  let p = Helpers.fig1_problem () in
  let s = Selection.gsp p in
  let a = Allocation.create ~capacity:80. in
  let b = Allocation.deploy a in
  Allocation.place a b ~topic:0 ~ev:20. ~subscribers:[| 0; 1 |] ~from:0 ~count:2;
  Allocation.place a b ~topic:1 ~ev:10. ~subscribers:[| 0; 1; 2 |] ~from:0 ~count:3;
  (* Subscriber 2 never selected topic 0 — smuggle the pair in. *)
  let b2 = Allocation.deploy a in
  Allocation.place a b2 ~topic:0 ~ev:20. ~subscribers:[| 2 |] ~from:0 ~count:1;
  let report = Verifier.verify p s a in
  Helpers.check_bool "foreign pair flagged" true
    (has (function Verifier.Pair_not_selected { topic = 0; subscriber = 2 } -> true | _ -> false)
       report)

let test_detects_duplicate_pair () =
  let p = Helpers.fig1_problem () in
  let s = Selection.gsp p in
  let a = Allocation.create ~capacity:80. in
  let b0 = Allocation.deploy a in
  Allocation.place a b0 ~topic:0 ~ev:20. ~subscribers:[| 0; 1 |] ~from:0 ~count:2;
  Allocation.place a b0 ~topic:1 ~ev:10. ~subscribers:[| 0; 1; 2 |] ~from:0 ~count:3;
  let b1 = Allocation.deploy a in
  (* (t1, v2) again, on another VM. *)
  Allocation.place a b1 ~topic:1 ~ev:10. ~subscribers:[| 2 |] ~from:0 ~count:1;
  let report = Verifier.verify p s a in
  Helpers.check_bool "duplicate flagged" true
    (has (function Verifier.Pair_duplicated { topic = 1; subscriber = 2 } -> true | _ -> false)
       report)

let test_pp_violation_renders () =
  let s =
    Format.asprintf "%a" Verifier.pp_violation
      (Verifier.Unsatisfied { subscriber = 3; delivered = 1.; required = 2. })
  in
  Helpers.check_bool "mentions subscriber" true (Helpers.contains ~needle:"subscriber 3" s)

let test_check_exn () =
  let p = Helpers.fig1_problem () in
  let s = Selection.gsp p in
  let a = Allocation.create ~capacity:80. in
  (match Verifier.check_exn p s a with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
      Helpers.check_bool "message mentions violations" true
        (Helpers.contains ~needle:"violation" msg));
  let r = Solver.solve p in
  ignore (Verifier.check_exn p r.Solver.selection r.Solver.allocation)

let prop_solver_output_always_verifies =
  Helpers.qtest ~count:150 "Solver output is always verifier-clean (all configs)"
    Helpers.problem_arbitrary (fun p ->
      List.for_all
        (fun (_, config) ->
          let r = Solver.solve ~config p in
          Verifier.is_valid (Verifier.verify p r.Solver.selection r.Solver.allocation))
        Solver.ladder)


(* ----- differential property against the pre-rewrite verifier ----- *)

let placed_pairs a =
  let out = ref [] in
  Allocation.iter_vms a (fun vm ->
      Allocation.iter_vm_pairs vm (fun t v -> out := (vm, t, v) :: !out));
  Array.of_list (List.rev !out)

let some_other_vm rng a vm =
  if Allocation.num_vms a < 2 then Allocation.deploy a
  else
    let k = Mcss_prng.Rng.int rng (Allocation.num_vms a - 1) in
    Allocation.vm_at a (if k >= Allocation.vm_id vm then k + 1 else k)

(* One injected fault; each is a way a buggy Stage 2 or a hand-edited
   plan can break the MCSS constraints. *)
let inject rng (p : Problem.t) (s : Selection.t) a =
  let module Rng = Mcss_prng.Rng in
  let w = p.Problem.workload in
  let pairs = placed_pairs a in
  let put vm t v =
    Allocation.place a vm ~topic:t ~ev:(Workload.event_rate w t) ~subscribers:[| v |] ~from:0
      ~count:1
  in
  let pick () = pairs.(Rng.int rng (Array.length pairs)) in
  if Array.length pairs > 0 then
    match Rng.int rng 5 with
    | 0 ->
        (* a dropped pair *)
        let vm, t, v = pick () in
        ignore (Allocation.remove a vm ~topic:t ~ev:(Workload.event_rate w t) ~subscriber:v)
    | 1 ->
        (* a pair placed on two VMs *)
        let vm, t, v = pick () in
        put (some_other_vm rng a vm) t v
    | 2 ->
        (* an unselected pair, placed twice *)
        let v = Rng.int rng (Workload.num_subscribers w) in
        let t = Rng.int rng (Workload.num_topics w) in
        if not (Array.mem t s.Selection.chosen.(v)) then begin
          let vm = Allocation.vm_at a (Rng.int rng (Allocation.num_vms a)) in
          put vm t v;
          put (some_other_vm rng a vm) t v
        end
    | 3 ->
        (* a tracked load that drifted from the placements *)
        let vm, t, v = pick () in
        let ev = Workload.event_rate w t in
        ignore (Allocation.remove a vm ~topic:t ~ev:(ev +. 0.5 +. Rng.float rng 4.) ~subscriber:v);
        put vm t v
    | _ ->
        (* an over-capacity VM: another VM's pairs moved onto it *)
        let vm, _, _ = pick () in
        let donor = some_other_vm rng a vm in
        Array.iter
          (fun (from, t, v) ->
            if Allocation.vm_id from = Allocation.vm_id donor then begin
              ignore
                (Allocation.remove a donor ~topic:t ~ev:(Workload.event_rate w t) ~subscriber:v);
              put vm t v
            end)
          pairs

let faulty_plan_gen =
  QCheck.Gen.(
    let* p = Helpers.problem_gen in
    let* seed = int_bound 1_000_000 in
    let* faults = int_range 0 3 in
    let rng = Mcss_prng.Rng.create seed in
    let r = Solver.solve p in
    let s = r.Solver.selection and a = r.Solver.allocation in
    for _ = 1 to faults do
      inject rng p s a
    done;
    return (p, s, a))

let missing_key = function
  | Verifier.Pair_missing { topic; subscriber } -> Some (subscriber, topic)
  | _ -> None

let prop_verifier_matches_oracle =
  Helpers.qtest ~count:300 "verify = pre-rewrite verifier on faulty plans"
    (QCheck.make faulty_plan_gen ~print:(fun (p, _, a) ->
         Format.asprintf "%a, BC=%g, %d VMs" Workload.pp_summary p.Problem.workload
           p.Problem.capacity (Allocation.num_vms a)))
    (fun (p, s, a) ->
      let r = Verifier.verify p s a and o = Oracle.verify p s a in
      let bits = Int64.bits_of_float in
      let not_missing = List.filter (fun v -> missing_key v = None) in
      let missing = List.filter_map missing_key r.Verifier.violations in
      List.sort compare r.Verifier.violations = List.sort compare o.Verifier.violations
      && not_missing r.Verifier.violations = not_missing o.Verifier.violations
      && missing = List.sort compare missing
      && r.Verifier.num_vms = o.Verifier.num_vms
      && bits r.Verifier.total_bandwidth = bits o.Verifier.total_bandwidth
      && bits r.Verifier.cost = bits o.Verifier.cost)

let suite =
  [
    Alcotest.test_case "clean solution valid" `Quick test_clean_solution_is_valid;
    Alcotest.test_case "detects missing pair" `Quick test_detects_missing_pair;
    Alcotest.test_case "detects over capacity" `Quick test_detects_over_capacity;
    Alcotest.test_case "detects foreign pair" `Quick test_detects_foreign_pair;
    Alcotest.test_case "detects duplicate pair" `Quick test_detects_duplicate_pair;
    Alcotest.test_case "pp_violation renders" `Quick test_pp_violation_renders;
    Alcotest.test_case "check_exn" `Quick test_check_exn;
    prop_solver_output_always_verifies;
    prop_verifier_matches_oracle;
  ]
