module Workload = Mcss_workload.Workload

type violation =
  | Over_capacity of { vm : int; load : float }
  | Load_mismatch of { vm : int; tracked : float; recomputed : float }
  | Unsatisfied of { subscriber : int; delivered : float; required : float }
  | Pair_not_selected of { topic : int; subscriber : int }
  | Pair_duplicated of { topic : int; subscriber : int }
  | Pair_missing of { topic : int; subscriber : int }
  | Pair_outside_workload of { topic : int; subscriber : int }

type report = {
  violations : violation list;
  num_vms : int;
  total_bandwidth : float;
  cost : float;
}

let pp_violation ppf = function
  | Over_capacity { vm; load } ->
      Format.fprintf ppf "VM %d over capacity: load %g" vm load
  | Load_mismatch { vm; tracked; recomputed } ->
      Format.fprintf ppf "VM %d load mismatch: tracked %g, recomputed %g" vm tracked
        recomputed
  | Unsatisfied { subscriber; delivered; required } ->
      Format.fprintf ppf "subscriber %d unsatisfied: delivered %g < required %g"
        subscriber delivered required
  | Pair_not_selected { topic; subscriber } ->
      Format.fprintf ppf "pair (%d, %d) placed but never selected" topic subscriber
  | Pair_duplicated { topic; subscriber } ->
      Format.fprintf ppf "pair (%d, %d) placed on more than one VM" topic subscriber
  | Pair_missing { topic; subscriber } ->
      Format.fprintf ppf "pair (%d, %d) selected but never placed" topic subscriber
  | Pair_outside_workload { topic; subscriber } ->
      Format.fprintf ppf "pair (%d, %d) placed but outside the workload" topic subscriber

let verify (p : Problem.t) (s : Selection.t) a =
  let w = p.Problem.workload in
  let eps = Problem.epsilon p in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let num_topics = Workload.num_topics w and num_subscribers = Workload.num_subscribers w in
  (* Pair bookkeeping on topic-major slots: selected pair (t, v) owns
     the slot of v in column row t of the transposed selection, and
     [placed] counts how often each slot's pair was seen (saturating at
     2: only 0, 1 and more matter). Placed-but-unselected pairs (only in
     invalid plans) are counted in [stray], keyed by the packed pair. *)
  let selected =
    Arena.Transpose.of_slices ~width:num_topics ~offs:s.Selection.offs s.Selection.topics
  in
  let placed = Bytes.make (Arena.Transpose.length selected) '\000' in
  let stray = Arena.Int_table.create () in
  let delivered = Array.make num_subscribers 0. in
  let total_bandwidth = ref 0. in
  (* The count of (t, v) before this sighting, after recording it. *)
  let sighting ~slot t v =
    if slot >= 0 then begin
      let n = Char.code (Bytes.unsafe_get placed slot) in
      if n < 2 then Bytes.unsafe_set placed slot (Char.unsafe_chr (n + 1));
      n
    end
    else begin
      let key = Arena.encode_pair ~topic:t ~subscriber:v in
      let n = Arena.Int_table.find stray key in
      let n = if n = Arena.Int_table.absent then 0 else n in
      Arena.Int_table.set stray key (n + 1);
      n
    end
  in
  (* A VM's recomputed outgoing (slot 0) and incoming (slot 1) rate,
     summed in a float array: a float [ref] shared with the merge's
     callback would box a fresh float on every pair. *)
  let bw = Array.make 2 0. in
  Allocation.iter_vms a (fun vm ->
      bw.(0) <- 0.;
      bw.(1) <- 0.;
      Allocation.iter_groups vm (fun t run k ->
          if t < 0 || t >= num_topics then
            for i = 0 to k - 1 do
              add (Pair_outside_workload { topic = t; subscriber = run.(i) })
            done
          else begin
            let ev = Workload.event_rate w t in
            let inside = ref false in
            Arena.Transpose.iter_run selected t run k (fun v slot ->
                if v < 0 || v >= num_subscribers then
                  add (Pair_outside_workload { topic = t; subscriber = v })
                else begin
                  bw.(0) <- bw.(0) +. ev;
                  (* One live group per topic per VM: its first pair
                     inside the workload charges the incoming copy. *)
                  if not !inside then begin
                    inside := true;
                    bw.(1) <- bw.(1) +. ev
                  end;
                  let n = sighting ~slot t v in
                  if n = 0 then delivered.(v) <- delivered.(v) +. ev
                  else if n = 1 then add (Pair_duplicated { topic = t; subscriber = v });
                  if slot < 0 then add (Pair_not_selected { topic = t; subscriber = v })
                end)
          end);
      let recomputed = bw.(0) +. bw.(1) in
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
             }));
  (* Missing pairs (the cold path): kept slots never seen, and chosen
     topics outside the workload, which the transpose drops. *)
  let missing = ref [] in
  if Bytes.contains placed '\000' then
    for t = 0 to num_topics - 1 do
      for slot = Arena.Transpose.start selected t to Arena.Transpose.stop selected t - 1 do
        if Bytes.get placed slot = '\000' then
          missing := (Arena.Transpose.get selected slot, t) :: !missing
      done
    done;
  let offs = s.Selection.offs and topics = s.Selection.topics in
  let rows = Selection.num_subscribers s in
  if offs.(rows) - offs.(0) > Arena.Transpose.length selected then
    for v = 0 to rows - 1 do
      for i = offs.(v) to offs.(v + 1) - 1 do
        let t = topics.(i) in
        if t < 0 || t >= num_topics then missing := (v, t) :: !missing
      done
    done;
  List.iter
    (fun (v, t) -> add (Pair_missing { topic = t; subscriber = v }))
    (List.sort compare !missing);
  for v = 0 to num_subscribers - 1 do
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

let is_valid r = r.violations = []

let check_exn p s a =
  let r = verify p s a in
  if not (is_valid r) then begin
    let buf = Buffer.create 256 in
    let ppf = Format.formatter_of_buffer buf in
    List.iter (fun v -> Format.fprintf ppf "%a@." pp_violation v) r.violations;
    Format.pp_print_flush ppf ();
    failwith (Printf.sprintf "Verifier: %d violation(s):\n%s" (List.length r.violations)
                (Buffer.contents buf))
  end;
  r
