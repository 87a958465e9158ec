module Workload = Mcss_workload.Workload

type violation =
  | Over_capacity of { vm : int; load : float }
  | Load_mismatch of { vm : int; tracked : float; recomputed : float }
  | Unsatisfied of { subscriber : int; delivered : float; required : float }
  | Pair_not_selected of { topic : int; subscriber : int }
  | Pair_duplicated of { topic : int; subscriber : int }
  | Pair_missing of { topic : int; subscriber : int }

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

(* Rank of [t] in the id-sorted row [row], or [-1]. *)
let rank row t =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let x = Array.unsafe_get row mid in
      if x = t then mid else if x < t then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length row)

let verify (p : Problem.t) (s : Selection.t) a =
  let w = p.Problem.workload in
  let eps = Problem.epsilon p in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  (* Pair bookkeeping on flat slots: selected pair (t, v) owns slot
     [offs.(v) + rank of t in chosen.(v)], and [placed] counts how often
     each slot's pair was seen. Placed-but-unselected pairs (only in
     invalid plans) are counted in [stray], keyed by the packed pair. *)
  let chosen = s.Selection.chosen in
  let rows = Array.length chosen in
  let offs = Arena.Csr.offsets_of_counts (Array.map Array.length chosen) in
  let placed = Array.make offs.(rows) 0 in
  let stray = Arena.Int_table.create () in
  let delivered = Array.make (Workload.num_subscribers w) 0. in
  let topics_seen = Arena.Stamp_set.create (Workload.num_topics w) in
  let total_bandwidth = ref 0. in
  Allocation.iter_vms a (fun vm ->
      let outgoing = ref 0. in
      let incoming = ref 0. in
      Arena.Stamp_set.clear topics_seen;
      Allocation.iter_vm_pairs vm (fun t v ->
          let ev = Workload.event_rate w t in
          outgoing := !outgoing +. ev;
          if not (Arena.Stamp_set.mem topics_seen t) then begin
            Arena.Stamp_set.add topics_seen t;
            incoming := !incoming +. ev
          end;
          let i = if v >= 0 && v < rows then rank chosen.(v) t else -1 in
          let n =
            if i >= 0 then begin
              let slot = offs.(v) + i in
              let n = placed.(slot) in
              placed.(slot) <- n + 1;
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
          if n = 0 then delivered.(v) <- delivered.(v) +. ev
          else if n = 1 then add (Pair_duplicated { topic = t; subscriber = v });
          if i < 0 then add (Pair_not_selected { topic = t; subscriber = v }));
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
             }));
  Array.iteri
    (fun v row ->
      Array.iteri
        (fun i t ->
          if placed.(offs.(v) + i) = 0 then add (Pair_missing { topic = t; subscriber = v }))
        row)
    chosen;
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
