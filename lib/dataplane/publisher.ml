module Json = Mcss_json.Json
module Client = Mcss_serve.Client
module Clock = Mcss_obs.Clock

type stats = {
  events : int;
  copies_sent : int;
  acked_delivered : int;
  acked_dropped : int;
  send_failures : int;
  unrouted : int;
}

(* One cached connection per broker; a send failure drops the
   connection and counts the batch, the next batch reconnects. *)
type peer = { id : int; mutable client : Client.t option }

let client_for addr_of peers id =
  let peer =
    match List.find_opt (fun p -> p.id = id) !peers with
    | Some p -> p
    | None ->
        let p = { id; client = None } in
        peers := p :: !peers;
        p
  in
  match peer.client with
  | Some c -> Some (peer, c)
  | None -> (
      match addr_of id with
      | None -> None
      | Some addr -> (
          match Client.connect addr with
          | Ok c ->
              peer.client <- Some c;
              Some (peer, c)
          | Error _ -> None))

let drop_client peer =
  Option.iter Client.close peer.client;
  peer.client <- None

let send_batch addr_of peers acc (by_broker : (int, Wire.event list ref) Hashtbl.t) =
  Hashtbl.iter
    (fun broker events ->
      let events = List.rev !events in
      let n = List.length events in
      match client_for addr_of peers broker with
      | None -> acc.(3) <- acc.(3) + n (* send_failures *)
      | Some (peer, c) -> (
          match Client.request c (Wire.pub_request events) with
          | Ok reply
            when Json.member "ok" reply |> Fun.flip Option.bind Json.to_bool_opt
                 = Some true ->
              acc.(0) <- acc.(0) + n;
              let field k =
                Json.member k reply |> Fun.flip Option.bind Json.to_int_opt
                |> Option.value ~default:0
              in
              acc.(1) <- acc.(1) + field "delivered";
              acc.(2) <- acc.(2) + field "dropped"
          | Ok _ -> acc.(3) <- acc.(3) + n
          | Error _ ->
              drop_client peer;
              acc.(3) <- acc.(3) + n))
    by_broker

let run ?(batch = 64) ?(pace = 0.) cluster ~schedule =
  if batch < 1 then invalid_arg "Publisher.run: batch must be >= 1";
  let peers = ref [] in
  (* acc: copies_sent, acked_delivered, acked_dropped, send_failures *)
  let acc = Array.make 4 0 in
  let unrouted = ref 0 in
  let start_ns = Clock.now_ns () in
  let n = Array.length schedule in
  let i = ref 0 in
  while !i < n do
    let upto = min n (!i + batch) in
    let first_time, _ = schedule.(!i) in
    if pace > 0. then begin
      let due = first_time *. pace in
      let elapsed =
        Int64.to_float (Int64.sub (Clock.now_ns ()) start_ns) *. 1e-9
      in
      if due > elapsed then Unix.sleepf (due -. elapsed)
    end;
    (* Route and send the whole batch inside the cluster's critical
       section: a re-home remove cannot land between our routing
       snapshot and the last ack (see {!Cluster.with_routes}). *)
    Cluster.with_routes cluster (fun ~route ~addr ->
        let by_broker : (int, Wire.event list ref) Hashtbl.t =
          Hashtbl.create 16
        in
        let stamp = Int64.to_int (Clock.now_ns ()) in
        for k = !i to upto - 1 do
          let _, topic = schedule.(k) in
          let ev = { Wire.topic; seq = k; pub_ns = stamp } in
          match route ~topic with
          | [] -> incr unrouted
          | brokers ->
              List.iter
                (fun b ->
                  match Hashtbl.find_opt by_broker b with
                  | Some l -> l := ev :: !l
                  | None -> Hashtbl.replace by_broker b (ref [ ev ]))
                brokers
        done;
        send_batch addr peers acc by_broker);
    i := upto
  done;
  List.iter drop_client !peers;
  {
    events = n;
    copies_sent = acc.(0);
    acked_delivered = acc.(1);
    acked_dropped = acc.(2);
    send_failures = acc.(3);
    unrouted = !unrouted;
  }
