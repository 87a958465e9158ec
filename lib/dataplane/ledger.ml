module Json = Mcss_json.Json
module Delivery = Mcss_report.Delivery

type t = {
  vm : int;
  pairs : int;
  draining : bool;
  totals : Delivery.totals;
  dropped_overflow : int;
  dropped_unattached : int;
  rehomed_in : int;
  rehomed_out : int;
  queue_peak_bytes : int;
  max_queue_delay : float;
}

let zero ~vm =
  {
    vm;
    pairs = 0;
    draining = false;
    totals = Delivery.zero;
    dropped_overflow = 0;
    dropped_unattached = 0;
    rehomed_in = 0;
    rehomed_out = 0;
    queue_peak_bytes = 0;
    max_queue_delay = 0.;
  }

let fields l =
  [
    ("vm", Json.Int l.vm);
    ("pairs", Json.Int l.pairs);
    ("draining", Json.Bool l.draining);
    ("published", Json.Int l.totals.Delivery.published);
    ("handoffs", Json.Int l.totals.Delivery.handoffs);
    ("delivered", Json.Int l.totals.Delivery.delivered);
    ("dropped", Json.Int l.totals.Delivery.dropped);
    ("dropped_overflow", Json.Int l.dropped_overflow);
    ("dropped_unattached", Json.Int l.dropped_unattached);
    ("rehomed_in", Json.Int l.rehomed_in);
    ("rehomed_out", Json.Int l.rehomed_out);
    ("queue_peak_bytes", Json.Int l.queue_peak_bytes);
    ("max_queue_delay", Json.Float l.max_queue_delay);
  ]

let of_json j =
  let int key =
    match Json.member key j with
    | Some v -> (
        match Json.to_int_opt v with
        | Some x -> Ok x
        | None -> Error (Printf.sprintf "ledger field %S must be an int" key))
    | None -> Error (Printf.sprintf "ledger reply lacks field %S" key)
  in
  let ( let* ) r f = match r with Ok x -> f x | Error _ as e -> e in
  let* vm = int "vm" in
  let* pairs = int "pairs" in
  let* published = int "published" in
  let* handoffs = int "handoffs" in
  let* delivered = int "delivered" in
  let* dropped = int "dropped" in
  let* dropped_overflow = int "dropped_overflow" in
  let* dropped_unattached = int "dropped_unattached" in
  let* rehomed_in = int "rehomed_in" in
  let* rehomed_out = int "rehomed_out" in
  let* queue_peak_bytes = int "queue_peak_bytes" in
  let draining =
    Json.member "draining" j |> Fun.flip Option.bind Json.to_bool_opt
    |> Option.value ~default:false
  in
  let max_queue_delay =
    Json.member "max_queue_delay" j |> Fun.flip Option.bind Json.to_float_opt
    |> Option.value ~default:0.
  in
  Ok
    {
      vm;
      pairs;
      draining;
      totals = { Delivery.published; handoffs; delivered; dropped };
      dropped_overflow;
      dropped_unattached;
      rehomed_in;
      rehomed_out;
      queue_peak_bytes;
      max_queue_delay;
    }

let diff ~before ~after =
  {
    vm = after.vm;
    pairs = after.pairs;
    draining = after.draining;
    totals = Delivery.sub after.totals before.totals;
    dropped_overflow = after.dropped_overflow - before.dropped_overflow;
    dropped_unattached = after.dropped_unattached - before.dropped_unattached;
    rehomed_in = after.rehomed_in - before.rehomed_in;
    rehomed_out = after.rehomed_out - before.rehomed_out;
    queue_peak_bytes = after.queue_peak_bytes;
    max_queue_delay = after.max_queue_delay;
  }

let sum_totals ls =
  List.fold_left (fun acc l -> Delivery.add acc l.totals) Delivery.zero ls

let pp fmt l =
  Format.fprintf fmt "vm %d: %a (pairs %d%s)" l.vm Delivery.pp l.totals l.pairs
    (if l.draining then ", draining" else "")
