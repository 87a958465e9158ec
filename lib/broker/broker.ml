module Workload = Mcss_workload.Workload
module Vec = Mcss_core.Vec

type t = {
  broker_id : int;
  capacity : float;
  table : (Workload.topic, Workload.subscriber Vec.t) Hashtbl.t;
  mutable num_pairs : int;
  mutable busy_until : float;
  mutable last_arrival : float;
  mutable max_queue_delay : float;
}

let create ~id ~capacity =
  if not (capacity > 0.) then invalid_arg "Broker.create: capacity must be positive";
  {
    broker_id = id;
    capacity;
    table = Hashtbl.create 64;
    num_pairs = 0;
    busy_until = 0.;
    last_arrival = 0.;
    max_queue_delay = 0.;
  }

let subscribe b ~topic ~subscriber =
  let subs =
    match Hashtbl.find_opt b.table topic with
    | Some v -> v
    | None ->
        let v = Vec.create () in
        Hashtbl.add b.table topic v;
        v
  in
  if Vec.exists (fun v -> v = subscriber) subs then
    invalid_arg
      (Printf.sprintf "Broker.subscribe: pair (%d, %d) already on broker %d" topic
         subscriber b.broker_id);
  Vec.push subs subscriber;
  b.num_pairs <- b.num_pairs + 1

let subscribed b ~topic ~subscriber =
  match Hashtbl.find_opt b.table topic with
  | None -> false
  | Some subs -> Vec.exists (fun v -> v = subscriber) subs

let unsubscribe b ~topic ~subscriber =
  match Hashtbl.find_opt b.table topic with
  | None -> false
  | Some subs -> (
      match Vec.find_index (fun v -> v = subscriber) subs with
      | None -> false
      | Some i ->
          Vec.swap_remove subs i;
          if Vec.is_empty subs then Hashtbl.remove b.table topic;
          b.num_pairs <- b.num_pairs - 1;
          true)

let num_pairs b = b.num_pairs

let iter_subscribers b topic f =
  match Hashtbl.find_opt b.table topic with None -> () | Some subs -> Vec.iter f subs

let ingest b ~topic ~time =
  if time < b.last_arrival then
    invalid_arg "Broker.ingest: messages must arrive in time order";
  b.last_arrival <- time;
  match Hashtbl.find_opt b.table topic with
  | None -> None
  | Some subs ->
      (* Receive the event once, transmit one copy per local subscriber;
         all copies complete together. *)
      let work = float_of_int (Vec.length subs + 1) /. b.capacity in
      let depart = Queueing.fifo_depart ~busy_until:b.busy_until ~arrival:time ~work in
      b.busy_until <- depart;
      if depart -. time > b.max_queue_delay then b.max_queue_delay <- depart -. time;
      Some depart

let max_queue_delay b = b.max_queue_delay
