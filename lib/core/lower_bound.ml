module Workload = Mcss_workload.Workload

type t = { bandwidth : float; vms : int; cost : float }

let compute (p : Problem.t) =
  let w = p.Problem.workload in
  let bandwidth = ref 0. in
  for v = 0 to Workload.num_subscribers w - 1 do
    let tv = Workload.interests w v in
    if Array.length tv > 0 then begin
      (* A plain loop: a fold's closure would box a float per interest. *)
      let min_rate = ref infinity in
      for i = 0 to Array.length tv - 1 do
        min_rate := Float.min !min_rate (Workload.event_rate w (Array.unsafe_get tv i))
      done;
      bandwidth := !bandwidth +. Float.max (Problem.tau_v p v) !min_rate
    end
  done;
  let vms = int_of_float (ceil (!bandwidth /. p.Problem.capacity)) in
  { bandwidth = !bandwidth; vms; cost = Problem.cost p ~vms ~bandwidth:!bandwidth }

let gap_pct ~cost lb = if lb.cost > 0. then (cost -. lb.cost) /. lb.cost *. 100. else 0.
