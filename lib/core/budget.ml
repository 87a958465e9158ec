module Workload = Mcss_workload.Workload

type result = {
  satisfied : bool array;
  num_satisfied : int;
  allocation : Allocation.t;
  selection : Selection.t;
}

(* Try to place [count] pairs of one topic into the fleet without
   exceeding [budget] VMs; returns the placements made (vm, from, count)
   so the caller can roll back, or None after rolling back locally. *)
let try_place_group (p : Problem.t) a ~budget ~topic ~ev ~subs =
  let eps = Problem.epsilon p in
  let n = Array.length subs in
  let placed = ref [] in
  let from = ref 0 in
  let ok = ref true in
  while !from < n && !ok do
    let best = ref None in
    Array.iter
      (fun vm ->
        if Allocation.max_pairs_that_fit a vm ~topic ~ev ~eps > 0 then
          match !best with
          | Some b when Allocation.free a b >= Allocation.free a vm -> ()
          | _ -> best := Some vm)
      (Allocation.vms a);
    let vm =
      match !best with
      | Some vm -> Some vm
      | None ->
          (* Deploy only when the budget allows it and a fresh VM would
             actually hold a pair (otherwise an empty VM would linger and
             eat the budget). *)
          if Allocation.num_vms a >= budget || 2. *. ev > p.Problem.capacity +. eps
          then None
          else Some (Allocation.deploy a)
    in
    match vm with
    | None -> ok := false
    | Some vm ->
        let k = min (Allocation.max_pairs_that_fit a vm ~topic ~ev ~eps) (n - !from) in
        Allocation.place a vm ~topic ~ev ~subscribers:subs ~from:!from ~count:k;
        placed := (vm, !from, k) :: !placed;
        from := !from + k
  done;
  if !ok then Some !placed
  else begin
    (* Roll back this group's placements. *)
    List.iter
      (fun (vm, from, k) ->
        for i = from to from + k - 1 do
          ignore (Allocation.remove a vm ~topic ~ev ~subscriber:subs.(i))
        done)
      !placed;
    None
  end

let solve (p : Problem.t) ~budget =
  if budget < 0 then invalid_arg "Budget.solve: negative budget";
  let w = p.Problem.workload in
  let n = Workload.num_subscribers w in
  (* Cheapest satisfying set per subscriber, via the full GSP pass. *)
  let gsp = Selection.gsp p in
  let order = Array.init n (fun v -> v) in
  Array.sort
    (fun a b -> compare (gsp.Selection.selected_rate.(a), a) (gsp.Selection.selected_rate.(b), b))
    order;
  let a = Allocation.create ~capacity:p.Problem.capacity in
  let satisfied = Array.make n false in
  let admitted_pairs = Array.make n [||] in
  let num_satisfied = ref 0 in
  Array.iter
    (fun v ->
      let topics = Selection.row gsp v in
      if Array.length topics = 0 then begin
        (* tau_v = 0: satisfied for free. *)
        satisfied.(v) <- true;
        incr num_satisfied
      end
      else begin
        (* Admit the subscriber's whole pair group atomically. *)
        let placements = ref [] in
        let ok = ref true in
        Array.iter
          (fun t ->
            if !ok then begin
              let ev = Workload.event_rate w t in
              match try_place_group p a ~budget ~topic:t ~ev ~subs:[| v |] with
              | Some placed -> placements := (t, ev, placed) :: !placements
              | None -> ok := false
            end)
          topics;
        if !ok then begin
          satisfied.(v) <- true;
          admitted_pairs.(v) <- topics;
          incr num_satisfied
        end
        else
          (* Roll back the topics that did land. *)
          List.iter
            (fun (t, ev, placed) ->
              List.iter
                (fun (vm, _, _) -> ignore (Allocation.remove a vm ~topic:t ~ev ~subscriber:v))
                placed)
            !placements
      end)
    order;
  let allocation, _ = Allocation.compact a in
  let selected_rate =
    Array.mapi
      (fun v topics ->
        ignore v;
        Array.fold_left (fun acc t -> acc +. Workload.event_rate w t) 0. topics)
      admitted_pairs
  in
  {
    satisfied;
    num_satisfied = !num_satisfied;
    allocation;
    selection = Selection.of_rows admitted_pairs ~selected_rate;
  }

let satisfaction_curve p ~budgets =
  List.map (fun budget -> (budget, (solve p ~budget).num_satisfied)) budgets
