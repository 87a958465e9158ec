module Workload = Mcss_workload.Workload
module Problem = Mcss_core.Problem
module Selection = Mcss_core.Selection
module Allocation = Mcss_core.Allocation
module Cbp = Mcss_core.Cbp
module Arena = Mcss_core.Arena
module Lower_bound = Mcss_core.Lower_bound

type stats = {
  k : int;
  zones : int;
  replicas_placed : int;
  zone_diverse_pairs : int;
  base_vms : int;
  base_cost : float;
  vms : int;
  bandwidth : float;
  cost : float;
  lb_cost : float;
  overhead_vs_base_pct : float;
  overhead_vs_lb_pct : float;
}

let pair_hosts a =
  let hosts : (int * int, int list) Hashtbl.t = Hashtbl.create 1024 in
  Array.iter
    (fun vm ->
      let id = Allocation.vm_id vm in
      Allocation.iter_vm_pairs vm (fun t v ->
          Hashtbl.replace hosts (t, v)
            (id :: Option.value ~default:[] (Hashtbl.find_opt hosts (t, v)))))
    (Allocation.vms a);
  hosts

let place ?(zones = 1) ~k (p : Problem.t) selection =
  if k < 1 then invalid_arg "Redundancy.place: k must be >= 1";
  if zones < 1 then invalid_arg "Redundancy.place: zones must be >= 1";
  let a = Cbp.run p selection Cbp.with_cost_decision in
  let base_vms = Allocation.num_vms a in
  let base_cost = Problem.cost p ~vms:base_vms ~bandwidth:(Allocation.total_load a) in
  let w = p.Problem.workload in
  let eps = Problem.epsilon p in
  let hosts = pair_hosts a in
  let g =
    Arena.Transpose.of_slices ~width:(Workload.num_topics w) ~offs:selection.Selection.offs
      selection.Selection.topics
  in
  (* Replica rounds reuse CBP's expensive-first order: the topics whose
     splitting costs the most ingress get first pick of space. *)
  let topics = Cbp.order Cbp.Expensive_first p g in
  let replicas = ref 0 in
  let subs = ref [||] in
  for _round = 2 to k do
    Array.iter
      (fun topic ->
        let ev = Workload.event_rate w topic in
        subs := Arena.Transpose.copy_row g topic !subs;
        for i = 0 to Arena.Transpose.stop g topic - Arena.Transpose.start g topic - 1 do
          let v = !subs.(i) in
          let current = Option.value ~default:[] (Hashtbl.find_opt hosts (topic, v)) in
          let current_zones =
            List.map (Failure_model.zone_of_vm ~zones) current
          in
          (* Most-free admissible VM, preferring zones no copy occupies. *)
          let best = ref None and best_diverse = ref None in
          Array.iter
            (fun vm ->
              let id = Allocation.vm_id vm in
              if
                (not (List.mem id current))
                && Allocation.max_pairs_that_fit a vm ~topic ~ev ~eps > 0
              then begin
                (match !best with
                | Some b when Allocation.free a b >= Allocation.free a vm -> ()
                | _ -> best := Some vm);
                if not (List.mem (Failure_model.zone_of_vm ~zones id) current_zones)
                then
                  match !best_diverse with
                  | Some b when Allocation.free a b >= Allocation.free a vm -> ()
                  | _ -> best_diverse := Some vm
              end)
            (Allocation.vms a);
          let vm =
            match (!best_diverse, !best) with
            | Some vm, _ -> vm
            | None, Some vm -> vm
            | None, None ->
                let vm = Allocation.deploy a in
                if Allocation.max_pairs_that_fit a vm ~topic ~ev ~eps = 0 then
                  raise
                    (Problem.Infeasible
                       (Printf.sprintf
                          "topic %d: a replica pair needs %g bandwidth but BC is %g"
                          topic (2. *. ev) p.Problem.capacity));
                vm
          in
          Allocation.place a vm ~topic ~ev ~subscribers:!subs ~from:i ~count:1;
          incr replicas;
          Hashtbl.replace hosts (topic, v) (Allocation.vm_id vm :: current)
        done)
      topics
  done;
  let zone_diverse_pairs =
    Hashtbl.fold
      (fun _ vm_ids acc ->
        let distinct =
          List.sort_uniq compare (List.map (Failure_model.zone_of_vm ~zones) vm_ids)
        in
        if List.length distinct >= min k zones then acc + 1 else acc)
      hosts 0
  in
  let vms = Allocation.num_vms a in
  let bandwidth = Allocation.total_load a in
  let cost = Problem.cost p ~vms ~bandwidth in
  let lb_cost = (Lower_bound.compute p).Lower_bound.cost in
  let pct over base = if base > 0. then (over -. base) /. base *. 100. else 0. in
  ( a,
    {
      k;
      zones;
      replicas_placed = !replicas;
      zone_diverse_pairs;
      base_vms;
      base_cost;
      vms;
      bandwidth;
      cost;
      lb_cost;
      overhead_vs_base_pct = pct cost base_cost;
      overhead_vs_lb_pct = pct cost lb_cost;
    } )

let check (p : Problem.t) selection ~k a =
  let w = p.Problem.workload in
  let eps = Problem.epsilon p in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let exception Bad of string in
  try
    (* Recomputed loads, capacity, and same-VM duplicates. *)
    Array.iter
      (fun vm ->
        let seen = Hashtbl.create 16 in
        let topics = Hashtbl.create 16 in
        let outgoing = ref 0. in
        Allocation.iter_vm_pairs vm (fun t v ->
            if Hashtbl.mem seen (t, v) then
              raise
                (Bad
                   (Printf.sprintf "VM %d hosts pair (%d, %d) twice"
                      (Allocation.vm_id vm) t v));
            Hashtbl.add seen (t, v) ();
            Hashtbl.replace topics t ();
            outgoing := !outgoing +. Workload.event_rate w t);
        let incoming = Hashtbl.fold (fun t () acc -> acc +. Workload.event_rate w t) topics 0. in
        let recomputed = !outgoing +. incoming in
        if recomputed > p.Problem.capacity +. eps then
          raise
            (Bad
               (Printf.sprintf "VM %d over capacity: %g > %g" (Allocation.vm_id vm)
                  recomputed p.Problem.capacity));
        if Float.abs (recomputed -. Allocation.load vm) > eps then
          raise
            (Bad
               (Printf.sprintf "VM %d load mismatch: tracked %g, recomputed %g"
                  (Allocation.vm_id vm) (Allocation.load vm) recomputed)))
      (Allocation.vms a);
    (* Every selected pair exactly k times; no strays. *)
    let placed : (int * int, int) Hashtbl.t = Hashtbl.create 1024 in
    Array.iter
      (fun vm ->
        Allocation.iter_vm_pairs vm (fun t v ->
            Hashtbl.replace placed (t, v)
              (1 + Option.value ~default:0 (Hashtbl.find_opt placed (t, v)))))
      (Allocation.vms a);
    let selected = Hashtbl.create 1024 in
    Selection.iter_pairs selection (fun t v ->
        Hashtbl.add selected (t, v) ();
        let copies = Option.value ~default:0 (Hashtbl.find_opt placed (t, v)) in
        if copies <> k then
          raise
            (Bad (Printf.sprintf "pair (%d, %d) placed %d times, wanted %d" t v copies k)));
    Hashtbl.iter
      (fun (t, v) _ ->
        if not (Hashtbl.mem selected (t, v)) then
          raise (Bad (Printf.sprintf "pair (%d, %d) placed but never selected" t v)))
      placed;
    (* Satisfaction from distinct placed topics. *)
    let delivered = Array.make (Workload.num_subscribers w) 0. in
    let seen_topic = Hashtbl.create 1024 in
    Hashtbl.iter
      (fun (t, v) _ ->
        if not (Hashtbl.mem seen_topic (t, v)) then begin
          Hashtbl.add seen_topic (t, v) ();
          delivered.(v) <- delivered.(v) +. Workload.event_rate w t
        end)
      placed;
    for v = 0 to Workload.num_subscribers w - 1 do
      let required = Problem.tau_v p v in
      if delivered.(v) +. eps < required then
        raise
          (Bad
             (Printf.sprintf "subscriber %d delivered %g < required %g" v delivered.(v)
                required))
    done;
    Ok ()
  with Bad m -> err "Redundancy.check: %s" m

let pp_stats ppf s =
  Format.fprintf ppf
    "k=%d over %d zone(s): %d VMs (k=1: %d), %d replicas, %d/%d pairs zone-diverse,@ \
     cost $%.2f = +%.1f%% vs k=1, +%.1f%% vs lower bound"
    s.k s.zones s.vms s.base_vms s.replicas_placed s.zone_diverse_pairs
    (s.replicas_placed / (max 1 (s.k - 1)))
    s.cost s.overhead_vs_base_pct s.overhead_vs_lb_pct
