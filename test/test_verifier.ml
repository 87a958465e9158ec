(* Tests that the verifier actually catches each class of violation —
   built by hand-placing pairs outside the algorithms. *)

module Problem = Mcss_core.Problem
module Selection = Mcss_core.Selection
module Allocation = Mcss_core.Allocation
module Verifier = Mcss_core.Verifier
module Solver = Mcss_core.Solver
module Workload = Mcss_workload.Workload
module Engine = Mcss_engine.Engine
module Churn = Mcss_dynamic.Churn

(* The verifier as it stood before the flat-array rewrite, copied
   verbatim: the oracle for the differential property below. Extended
   only by the check for pairs outside the workload, which it reports
   and skips as the verifier does. *)
module Oracle = struct
  type violation = Verifier.violation =
    | Over_capacity of { vm : int; load : float }
    | Load_mismatch of { vm : int; tracked : float; recomputed : float }
    | Unsatisfied of { subscriber : int; delivered : float; required : float }
    | Pair_not_selected of { topic : int; subscriber : int }
    | Pair_duplicated of { topic : int; subscriber : int }
    | Pair_missing of { topic : int; subscriber : int }
    | Pair_outside_workload of { topic : int; subscriber : int }

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
            if t < 0 || t >= Workload.num_topics w || v < 0
               || v >= Workload.num_subscribers w
            then add (Pair_outside_workload { topic = t; subscriber = v })
            else begin
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
                add (Pair_not_selected { topic = t; subscriber = v })
            end);
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
    Selection.of_rows
      [| [| 0; 1 |]; [| 0; 1 |]; [| 1 |] |]
      ~selected_rate:[| 30.; 30.; 10. |]
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

(* [Allocation.place] accepts any ids, so a hand-made plan can name a
   subscriber or topic the workload lacks: reported, not raised. *)
let outside_report ~topic ~subscribers =
  let w = Helpers.workload ~rates:[ 5.; 3. ] ~interests:[ [ 0 ]; [ 0; 1 ] ] in
  let p = Problem.create ~workload:w ~tau:1. ~capacity:100. Problem.unit_costs in
  let s = Selection.gsp p in
  let a = Allocation.create ~capacity:100. in
  let b = Allocation.deploy a in
  Allocation.place a b ~topic ~ev:5. ~subscribers ~from:0
    ~count:(Array.length subscribers);
  Verifier.verify p s a

let test_detects_subscriber_outside_workload () =
  let r = outside_report ~topic:0 ~subscribers:[| 0; 1; 5 |] in
  Alcotest.(check (list (pair int int)))
    "outside pairs"
    [ (0, 5) ]
    (List.filter_map
       (function
         | Verifier.Pair_outside_workload { topic; subscriber } -> Some (topic, subscriber)
         | _ -> None)
       r.Verifier.violations);
  (* The two real pairs still count: 2·5 out + 5 in. *)
  Helpers.check_float "bandwidth" 15. r.Verifier.total_bandwidth;
  Helpers.check_bool "tracked load disagrees" true
    (has (function Verifier.Load_mismatch _ -> true | _ -> false) r)

let test_detects_topic_outside_workload () =
  let r = outside_report ~topic:7 ~subscribers:[| 0 |] in
  Helpers.check_bool "outside pair flagged" true
    (has
       (function
         | Verifier.Pair_outside_workload { topic = 7; subscriber = 0 } -> true | _ -> false)
       r);
  Helpers.check_float "no bandwidth counted" 0. r.Verifier.total_bandwidth;
  Helpers.check_bool "rendered" true
    (Helpers.contains ~needle:"outside the workload"
       (Format.asprintf "%a" Verifier.pp_violation (List.hd r.Verifier.violations)))

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
  (* Earlier faults may have placed pairs outside the workload; later
     ones work on the pairs inside it. *)
  let pairs =
    Array.of_seq
      (Seq.filter
         (fun (_, t, v) -> t < Workload.num_topics w && v < Workload.num_subscribers w)
         (Array.to_seq (placed_pairs a)))
  in
  let put vm t v =
    Allocation.place a vm ~topic:t ~ev:(Workload.event_rate w t) ~subscribers:[| v |] ~from:0
      ~count:1
  in
  let pick () = pairs.(Rng.int rng (Array.length pairs)) in
  if Array.length pairs > 0 then
    match Rng.int rng 6 with
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
        if not (Array.mem t (Selection.row s v)) then begin
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
    | 5 ->
        (* a pair whose topic or subscriber the workload lacks *)
        let vm, t, v = pick () in
        if Rng.bool rng then
          Allocation.place a vm ~topic:(Workload.num_topics w + Rng.int rng 3)
            ~ev:(Rng.float rng 4.) ~subscribers:[| v |] ~from:0 ~count:1
        else put vm t (Workload.num_subscribers w + Rng.int rng 3)
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

let matches_oracle (p, s, a) =
  let r = Verifier.verify p s a and o = Oracle.verify p s a in
  let bits = Int64.bits_of_float in
  let not_missing = List.filter (fun v -> missing_key v = None) in
  let missing = List.filter_map missing_key r.Verifier.violations in
  List.sort compare r.Verifier.violations = List.sort compare o.Verifier.violations
  && not_missing r.Verifier.violations = not_missing o.Verifier.violations
  && missing = List.sort compare missing
  && r.Verifier.num_vms = o.Verifier.num_vms
  && bits r.Verifier.total_bandwidth = bits o.Verifier.total_bandwidth
  && bits r.Verifier.cost = bits o.Verifier.cost

let print_plan (p, _, a) =
  Format.asprintf "%a, BC=%g, %d VMs" Workload.pp_summary p.Problem.workload
    p.Problem.capacity (Allocation.num_vms a)

let prop_verifier_matches_oracle =
  Helpers.qtest ~count:300 "verify = pre-rewrite verifier on faulty plans"
    (QCheck.make faulty_plan_gen ~print:print_plan)
    matches_oracle

(* ----- rows and runs out of order ----- *)

(* One subscriber interested in topics 3 and 5 of six, both placed on
   one VM, against a hand-built [chosen] row. *)
let hand_selection_report chosen_row =
  let w = Helpers.workload ~rates:[ 1.; 1.; 1.; 1.; 1.; 1. ] ~interests:[ [ 3; 5 ] ] in
  let p = Problem.create ~workload:w ~tau:1. ~capacity:100. Problem.unit_costs in
  let s = Selection.of_rows [| chosen_row |] ~selected_rate:[| 2. |] in
  let a = Allocation.create ~capacity:100. in
  let b = Allocation.deploy a in
  Allocation.place a b ~topic:3 ~ev:1. ~subscribers:[| 0 |] ~from:0 ~count:1;
  Allocation.place a b ~topic:5 ~ev:1. ~subscribers:[| 0 |] ~from:0 ~count:1;
  Verifier.verify p s a

let render r = List.map (Format.asprintf "%a" Verifier.pp_violation) r.Verifier.violations

let test_out_of_order_topic_unselected () =
  (* 3 follows 5 in the row, so only 5 counts as selected. *)
  Alcotest.(check (list string))
    "violations"
    [ "pair (3, 0) placed but never selected" ]
    (render (hand_selection_report [| 5; 3 |]));
  Alcotest.(check (list string)) "ascending row is clean" []
    (render (hand_selection_report [| 3; 5 |]))

let test_chosen_topic_outside_workload_missing () =
  Alcotest.(check (list string))
    "violations"
    [
      "pair (-1, 0) selected but never placed"; "pair (9, 0) selected but never placed";
    ]
    (render (hand_selection_report [| -1; 3; 5; 9 |]))

(* Whether some VM holds a run that is not ascending. *)
let has_descending_run a =
  let found = ref false in
  Allocation.iter_vms a (fun vm ->
      Allocation.iter_groups vm (fun _ run n ->
          for i = 1 to n - 1 do
            if run.(i) < run.(i - 1) then found := true
          done));
  !found

(* A solved plan churned in place by the engine (whose removals move a
   run's last pair into the hole), then faulted like [faulty_plan_gen]. *)
let churned_plan ~seed ~ticks ~faults p =
  let rng = Mcss_prng.Rng.create seed in
  let eng = Engine.create ~drift_threshold:infinity p in
  (try
     for _ = 1 to ticks do
       let w = (Engine.problem eng).Problem.workload in
       ignore (Engine.apply eng (Churn.tick rng (Churn.scaled 0.2) w))
     done
   with Problem.Infeasible _ -> ());
  let { Engine.problem = p; selection = s; allocation = a } = Engine.plan eng in
  for _ = 1 to faults do
    inject rng p s a
  done;
  (p, s, a)

let churned_plan_gen =
  QCheck.Gen.(
    let* p = Helpers.problem_gen in
    let* seed = int_bound 1_000_000 in
    let* ticks = int_range 1 4 in
    let* faults = int_range 0 3 in
    return (churned_plan ~seed ~ticks ~faults p))

let test_churn_leaves_descending_runs () =
  let rng = Mcss_prng.Rng.create 5 in
  let p =
    Helpers.random_problem rng ~num_topics:10 ~num_subscribers:60 ~max_rate:10
      ~max_interests:5 ~tau:40. ~capacity:150.
  in
  let p, s, a = churned_plan ~seed:5 ~ticks:4 ~faults:0 p in
  Helpers.check_bool "a run steps down" true (has_descending_run a);
  Helpers.check_bool "still clean" true (Verifier.is_valid (Verifier.verify p s a))

let prop_verifier_matches_oracle_on_churn =
  Helpers.qtest ~count:150 "verify = pre-rewrite verifier on churned faulty plans"
    (QCheck.make churned_plan_gen ~print:print_plan)
    matches_oracle

let suite =
  [
    Alcotest.test_case "clean solution valid" `Quick test_clean_solution_is_valid;
    Alcotest.test_case "detects missing pair" `Quick test_detects_missing_pair;
    Alcotest.test_case "detects over capacity" `Quick test_detects_over_capacity;
    Alcotest.test_case "detects foreign pair" `Quick test_detects_foreign_pair;
    Alcotest.test_case "detects duplicate pair" `Quick test_detects_duplicate_pair;
    Alcotest.test_case "detects subscriber outside workload" `Quick
      test_detects_subscriber_outside_workload;
    Alcotest.test_case "detects topic outside workload" `Quick
      test_detects_topic_outside_workload;
    Alcotest.test_case "pp_violation renders" `Quick test_pp_violation_renders;
    Alcotest.test_case "check_exn" `Quick test_check_exn;
    prop_solver_output_always_verifies;
    prop_verifier_matches_oracle;
    Alcotest.test_case "out-of-order chosen topic is unselected" `Quick
      test_out_of_order_topic_unselected;
    Alcotest.test_case "chosen topic outside the workload is missing" `Quick
      test_chosen_topic_outside_workload_missing;
    Alcotest.test_case "churn leaves descending runs" `Quick test_churn_leaves_descending_runs;
    prop_verifier_matches_oracle_on_churn;
  ]
