module Workload = Mcss_workload.Workload
module Problem = Mcss_core.Problem
module Selection = Mcss_core.Selection
module Allocation = Mcss_core.Allocation

type result = {
  cost : float;
  num_vms : int;
  bandwidth : float;
  selection : Mcss_core.Selection.t;
  allocation : Mcss_core.Allocation.t;
}

type limits = { max_interests : int; max_combinations : int; max_pairs : int }

let default_limits = { max_interests = 16; max_combinations = 20_000; max_pairs = 14 }

(* All minimal subsets of [tv] whose total rate reaches [tau_v]: satisfying,
   and dropping any single member breaks satisfaction. *)
let minimal_subsets w ~eps ~tau_v tv =
  let k = Array.length tv in
  let rate i = Workload.event_rate w tv.(i) in
  let out = ref [] in
  for mask = 0 to (1 lsl k) - 1 do
    let sum = ref 0. in
    for i = 0 to k - 1 do
      if mask land (1 lsl i) <> 0 then sum := !sum +. rate i
    done;
    if !sum +. eps >= tau_v then begin
      let minimal = ref true in
      for i = 0 to k - 1 do
        if mask land (1 lsl i) <> 0 && !sum -. rate i +. eps >= tau_v then
          minimal := false
      done;
      if !minimal then begin
        let subset = ref [] in
        for i = k - 1 downto 0 do
          if mask land (1 lsl i) <> 0 then subset := tv.(i) :: !subset
        done;
        out := Array.of_list !subset :: !out
      end
    end
  done;
  !out

(* Optimal packing of a fixed pair multiset by branch-and-bound: pairs are
   assigned one by one (largest rate first) to an existing VM or to one new
   VM; partial costs are bounded below by the bandwidth already committed
   plus one outgoing unit per remaining pair. *)
let pack_optimal (p : Problem.t) pairs =
  let capacity = p.Problem.capacity in
  let eps = Problem.epsilon p in
  let n = Array.length pairs in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare (snd pairs.(b)) (snd pairs.(a))) order;
  let suffix_out = Array.make (n + 1) 0. in
  for i = n - 1 downto 0 do
    suffix_out.(i) <- suffix_out.(i + 1) +. snd pairs.(order.(i))
  done;
  let best_cost = ref infinity in
  let best_assign = ref [||] in
  let loads = Array.make n 0. in
  let topic_counts = Array.init n (fun _ -> Hashtbl.create 4) in
  let assign = Array.make n (-1) in
  let rec go i used bw =
    let bound = Problem.cost p ~vms:used ~bandwidth:(bw +. suffix_out.(i)) in
    if bound < !best_cost then begin
      if i = n then begin
        best_cost := bound;
        best_assign := Array.copy assign
      end
      else begin
        let t, ev = pairs.(order.(i)) in
        (* Existing VMs 0..used-1 plus at most one fresh VM at index
           [used]; VM count can never exceed the pair count. *)
        for b = 0 to used do
          if b < n then begin
            let new_vm = b = used in
            let counts = topic_counts.(b) in
            let incoming = if Hashtbl.mem counts t then 0. else ev in
            let delta = ev +. incoming in
            if loads.(b) +. delta <= capacity +. eps then begin
              loads.(b) <- loads.(b) +. delta;
              let c = try Hashtbl.find counts t with Not_found -> 0 in
              Hashtbl.replace counts t (c + 1);
              assign.(order.(i)) <- b;
              go (i + 1) (if new_vm then used + 1 else used) (bw +. delta);
              assign.(order.(i)) <- -1;
              if c = 0 then Hashtbl.remove counts t else Hashtbl.replace counts t c;
              loads.(b) <- loads.(b) -. delta
            end
          end
        done
      end
    end
  in
  go 0 0 0.;
  if !best_assign = [||] && n > 0 then
    raise (Problem.Infeasible "Brute.pack_optimal: some pair fits no VM")
  else (!best_cost, !best_assign)

let selection_of_choice w choice =
  let n = Workload.num_subscribers w in
  let chosen = Array.init n (fun v -> Array.copy choice.(v)) in
  Array.iter Workload.sort_ids chosen;
  let selected_rate =
    Array.map
      (Array.fold_left (fun acc t -> acc +. Workload.event_rate w t) 0.)
      chosen
  in
  Selection.of_rows chosen ~selected_rate

let allocation_of_assignment (p : Problem.t) pairs assign =
  let a = Allocation.create ~capacity:p.Problem.capacity in
  let num_vms = Array.fold_left (fun acc b -> max acc (b + 1)) 0 assign in
  let vms = Array.init num_vms (fun _ -> Allocation.deploy a) in
  Array.iteri
    (fun i (t, v) ->
      let ev = Workload.event_rate p.Problem.workload t in
      Allocation.place a vms.(assign.(i)) ~topic:t ~ev ~subscribers:[| v |] ~from:0
        ~count:1)
    pairs;
  a

let solve ?(limits = default_limits) (p : Problem.t) =
  let w = p.Problem.workload in
  let eps = Problem.epsilon p in
  let n = Workload.num_subscribers w in
  let per_subscriber = Array.make n [] in
  let feasible = ref true in
  for v = 0 to n - 1 do
    let tv = Workload.interests w v in
    if Array.length tv > limits.max_interests then feasible := false
    else
      per_subscriber.(v) <-
        minimal_subsets w ~eps ~tau_v:(Problem.tau_v p v) tv
  done;
  let combinations =
    Array.fold_left
      (fun acc subsets -> acc * max 1 (List.length subsets))
      1 per_subscriber
  in
  if (not !feasible) || combinations > limits.max_combinations then None
  else begin
    let best : result option ref = ref None in
    let choice = Array.make n [||] in
    let rec enumerate v =
      if v = n then begin
        let pairs = ref [] in
        Array.iteri
          (fun v' subset ->
            Array.iter (fun t -> pairs := (t, v') :: !pairs) subset)
          choice;
        let pair_ids = Array.of_list (List.rev !pairs) in
        let pair_rates =
          Array.map (fun (t, _) -> (t, Workload.event_rate w t)) pair_ids
        in
        if Array.length pair_rates <= limits.max_pairs then begin
          let cost, assign = pack_optimal p pair_rates in
          let better =
            match !best with None -> true | Some b -> cost < b.cost
          in
          if better then begin
            let allocation = allocation_of_assignment p pair_ids assign in
            let selection = selection_of_choice w choice in
            let bandwidth = Allocation.total_load allocation in
            best :=
              Some
                {
                  cost;
                  num_vms = Allocation.num_vms allocation;
                  bandwidth;
                  selection;
                  allocation;
                }
          end
        end
        else feasible := false
      end
      else
        match per_subscriber.(v) with
        | [] ->
            (* No interests: the empty subset is the only choice. *)
            choice.(v) <- [||];
            enumerate (v + 1)
        | subsets ->
            List.iter
              (fun subset ->
                choice.(v) <- subset;
                enumerate (v + 1))
              subsets
    in
    enumerate 0;
    if not !feasible then None else !best
  end

let dcss ?limits p ~threshold =
  match solve ?limits p with
  | None -> None
  | Some r -> Some (r.cost <= threshold +. 1e-9)
