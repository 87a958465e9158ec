module Workload = Mcss_workload.Workload

type t = { bandwidth : float; vms : int; cost : float }

let compute (p : Problem.t) =
  let w = p.Problem.workload in
  let bandwidth = ref 0. in
  for v = 0 to Workload.num_subscribers w - 1 do
    let tv = Workload.interests w v in
    if Array.length tv > 0 then begin
      let min_rate =
        Array.fold_left
          (fun acc t -> Float.min acc (Workload.event_rate w t))
          infinity tv
      in
      bandwidth := !bandwidth +. Float.max (Problem.tau_v p v) min_rate
    end
  done;
  let vms = int_of_float (ceil (!bandwidth /. p.Problem.capacity)) in
  { bandwidth = !bandwidth; vms; cost = Problem.cost p ~vms ~bandwidth:!bandwidth }

let gap_pct ~cost lb = if lb.cost > 0. then (cost -. lb.cost) /. lb.cost *. 100. else 0.
