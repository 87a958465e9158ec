let check ~utilization ~service_time =
  if utilization < 0. || utilization >= 1. then
    invalid_arg "Queueing: utilization must be in [0, 1)";
  if service_time < 0. then invalid_arg "Queueing: service_time must be nonnegative"

let md1_mean_wait ~utilization ~service_time =
  check ~utilization ~service_time;
  utilization *. service_time /. (2. *. (1. -. utilization))

let md1_mean_sojourn ~utilization ~service_time =
  md1_mean_wait ~utilization ~service_time +. service_time

let mm1_mean_sojourn ~utilization ~service_time =
  check ~utilization ~service_time;
  service_time /. (1. -. utilization)

let fifo_depart ~busy_until ~arrival ~work = Float.max arrival busy_until +. work
