module Workload = Mcss_workload.Workload

type t = { bandwidth : float; vms : int; cost : float }

let compute (p : Problem.t) =
  let w = p.Problem.workload in
  let ev = Workload.event_rates w and tau = p.Problem.tau in
  let bandwidth = ref 0. in
  for v = 0 to Workload.num_subscribers w - 1 do
    let tv = Workload.interests w v in
    if Array.length tv > 0 then begin
      (* Plain loops and comparisons, not a fold, [Float.min] /
         [Float.max] or [Problem.tau_v]: cross-module calls are not
         inlined, so each would return a boxed float. Rates are positive
         and finite and tau is positive, so the comparisons pick the
         same values, bit for bit. *)
      let min_rate = ref infinity in
      for i = 0 to Array.length tv - 1 do
        let r = Array.unsafe_get ev (Array.unsafe_get tv i) in
        if r < !min_rate then min_rate := r
      done;
      let rate = Workload.interest_rate w v in
      let tau_v = if rate < tau then rate else tau in
      bandwidth := !bandwidth +. if tau_v >= !min_rate then tau_v else !min_rate
    end
  done;
  let vms = int_of_float (ceil (!bandwidth /. p.Problem.capacity)) in
  { bandwidth = !bandwidth; vms; cost = Problem.cost p ~vms ~bandwidth:!bandwidth }

let gap_pct ~cost lb = if lb.cost > 0. then (cost -. lb.cost) /. lb.cost *. 100. else 0.
