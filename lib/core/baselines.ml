module Workload = Mcss_workload.Workload

let infeasible topic ev capacity =
  raise
    (Problem.Infeasible
       (Printf.sprintf "topic %d: a single pair needs %g bandwidth but BC is %g" topic
          (2. *. ev) capacity))

let next_fit (p : Problem.t) (s : Selection.t) =
  let w = p.Problem.workload in
  let eps = Problem.epsilon p in
  let a = Allocation.create ~capacity:p.Problem.capacity in
  let current = ref None in
  Selection.iter_pairs s (fun t v ->
      let ev = Workload.event_rate w t in
      let fits vm =
        Allocation.place_delta vm ~topic:t ~ev ~count:1 <= Allocation.free a vm +. eps
      in
      let vm =
        match !current with
        | Some vm when fits vm -> vm
        | _ ->
            let vm = Allocation.deploy a in
            current := Some vm;
            if not (fits vm) then infeasible t ev p.Problem.capacity;
            vm
      in
      Allocation.place a vm ~topic:t ~ev ~subscribers:[| v |] ~from:0 ~count:1);
  a

let best_fit_decreasing (p : Problem.t) (s : Selection.t) =
  let ev_of = Workload.event_rates p.Problem.workload in
  let eps = Problem.epsilon p in
  let a = Allocation.create ~capacity:p.Problem.capacity in
  let g =
    Arena.Transpose.of_slices ~width:(Array.length ev_of) ~offs:s.Selection.offs
      s.Selection.topics
  in
  let subs = ref [||] in
  Array.iter
    (fun topic ->
      let ev = ev_of.(topic) in
      subs := Arena.Transpose.copy_row g topic !subs;
      let from = ref 0 and hi = Arena.Transpose.stop g topic - Arena.Transpose.start g topic in
      while !from < hi do
        (* Tightest VM that can still take at least one pair. *)
        let best = ref None in
        Array.iter
          (fun vm ->
            if Allocation.max_pairs_that_fit a vm ~topic ~ev ~eps > 0 then
              match !best with
              | Some b when Allocation.free a b <= Allocation.free a vm -> ()
              | _ -> best := Some vm)
          (Allocation.vms a);
        let vm =
          match !best with
          | Some vm -> vm
          | None ->
              let vm = Allocation.deploy a in
              if Allocation.max_pairs_that_fit a vm ~topic ~ev ~eps = 0 then
                infeasible topic ev p.Problem.capacity;
              vm
        in
        let k = min (Allocation.max_pairs_that_fit a vm ~topic ~ev ~eps) (hi - !from) in
        Allocation.place a vm ~topic ~ev ~subscribers:!subs ~from:!from ~count:k;
        from := !from + k
      done)
    (Cbp.order Cbp.Expensive_first p g);
  a
