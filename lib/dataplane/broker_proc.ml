module Json = Mcss_json.Json
module Protocol = Mcss_serve.Protocol
module Server = Mcss_serve.Server
module Broker = Mcss_broker.Broker
module Clock = Mcss_obs.Clock
module Delivery = Mcss_report.Delivery

(* Per-sink pending-bytes bound: past it, copies for that sink are
   dropped and counted rather than buffered. *)
let max_sink_buffer = 4 * 1024 * 1024

(* Select timeout, so the kill flag is polled this often. *)
let tick_s = 0.05

type t = {
  vm : int;
  address : Server.address;
  kill_flag : bool Atomic.t;
  domain : unit Domain.t;
}

let vm t = t.vm
let address t = t.address
let kill t = Atomic.set t.kill_flag true
let join t = Domain.join t.domain

(* ----- per-connection state ----- *)

type sink_filter = All | Subset of (int, unit) Hashtbl.t

type conn = {
  fd : Unix.file_descr;
  reader : Wire.Reader.t;
  mutable sink : sink_filter option;  (* [Some _] once attached *)
  outq : string Queue.t;
  mutable out_bytes : int;
  mutable out_off : int;  (* bytes of the queue front already written *)
  mutable dead : bool;
}

let conn_of fd =
  Unix.set_nonblock fd;
  {
    fd;
    reader = Wire.Reader.create fd;
    sink = None;
    outq = Queue.create ();
    out_bytes = 0;
    out_off = 0;
    dead = false;
  }

let wants_sub filter sub =
  match filter with All -> true | Subset tbl -> Hashtbl.mem tbl sub

let enqueue c line =
  Queue.add line c.outq;
  c.out_bytes <- c.out_bytes + String.length line

(* Write as much pending output as the socket takes right now. *)
let flush_conn c =
  (try
     while (not (Queue.is_empty c.outq)) && not c.dead do
       let front = Queue.peek c.outq in
       let len = String.length front - c.out_off in
       let n = Unix.single_write_substring c.fd front c.out_off len in
       c.out_bytes <- c.out_bytes - n;
       if n = len then begin
         ignore (Queue.pop c.outq);
         c.out_off <- 0
       end
       else c.out_off <- c.out_off + n
     done
   with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | Unix.Unix_error _ -> c.dead <- true);
  ()

(* ----- the serving loop ----- *)

exception Teardown of bool  (* graceful? *)

type state = {
  core : Broker.t;
  mutable conns : conn list;
  mutable draining : bool;
  mutable last_time : float;
  (* ledger counters *)
  mutable published : int;
  mutable handoffs : int;
  mutable delivered : int;
  mutable dropped_overflow : int;
  mutable dropped_unattached : int;
  mutable rehomed_in : int;
  mutable rehomed_out : int;
  mutable queue_peak_bytes : int;
}

let ledger_of st ~vm =
  {
    Ledger.vm;
    pairs = Broker.num_pairs st.core;
    draining = st.draining;
    totals =
      {
        Delivery.published = st.published;
        handoffs = st.handoffs;
        delivered = st.delivered;
        dropped = st.dropped_overflow + st.dropped_unattached;
      };
    dropped_overflow = st.dropped_overflow;
    dropped_unattached = st.dropped_unattached;
    rehomed_in = st.rehomed_in;
    rehomed_out = st.rehomed_out;
    queue_peak_bytes = st.queue_peak_bytes;
    max_queue_delay = Broker.max_queue_delay st.core;
  }

let reply c ?id fields = enqueue c (Json.to_string (Protocol.ok_response ?id fields) ^ "\n")

let reply_error c ?id ~code ~message () =
  enqueue c (Json.to_string (Protocol.error_response ?id ~code ~message ()) ^ "\n")

let handle_pub st ~vm ~now_s c j =
  if st.draining then
    reply_error c ~code:Protocol.Draining
      ~message:(Printf.sprintf "broker %d is draining" vm)
      ()
  else
    match Wire.events_of j with
    | Error m -> reply_error c ~code:Protocol.Bad_request ~message:m ()
    | Ok events ->
        let sinks = List.filter (fun c -> c.sink <> None && not c.dead) st.conns in
        let delivered_batch = ref 0 and dropped_batch = ref 0 in
        List.iter
          (fun (e : Wire.event) ->
            st.published <- st.published + 1;
            let time = Float.max now_s st.last_time in
            st.last_time <- time;
            match Broker.ingest st.core ~topic:e.Wire.topic ~time with
            | None -> ()
            | Some _depart ->
                st.handoffs <- st.handoffs + 1;
                Broker.iter_subscribers st.core e.Wire.topic (fun sub ->
                    let took = ref false in
                    List.iter
                      (fun sc ->
                        match sc.sink with
                        | Some filter when wants_sub filter sub ->
                            if sc.out_bytes > max_sink_buffer then begin
                              st.dropped_overflow <- st.dropped_overflow + 1;
                              incr dropped_batch;
                              took := true
                            end
                            else begin
                              enqueue sc
                                (Wire.delivery_line
                                   {
                                     Wire.topic = e.Wire.topic;
                                     seq = e.Wire.seq;
                                     pub_ns = e.Wire.pub_ns;
                                     subscribers = [ sub ];
                                   });
                              st.delivered <- st.delivered + 1;
                              incr delivered_batch;
                              took := true
                            end
                        | _ -> ())
                      sinks;
                    if not !took then begin
                      st.dropped_unattached <- st.dropped_unattached + 1;
                      incr dropped_batch
                    end))
          events;
        let peak = List.fold_left (fun acc c -> acc + c.out_bytes) 0 st.conns in
        if peak > st.queue_peak_bytes then st.queue_peak_bytes <- peak;
        reply c
          [
            ("published", Json.Int (List.length events));
            ("delivered", Json.Int !delivered_batch);
            ("dropped", Json.Int !dropped_batch);
          ]

let handle_attach c j =
  let filter =
    match Json.member "subs" j with
    | None -> Ok All
    | Some v -> (
        match Json.to_list_opt v with
        | None -> Error "field \"subs\" must be an array of ints"
        | Some xs ->
            let tbl = Hashtbl.create (List.length xs) in
            let rec conv = function
              | [] -> Ok (Subset tbl)
              | x :: rest -> (
                  match Json.to_int_opt x with
                  | Some s ->
                      Hashtbl.replace tbl s ();
                      conv rest
                  | None -> Error "field \"subs\" must contain ints")
            in
            conv xs)
  in
  match filter with
  | Error m -> reply_error c ~code:Protocol.Bad_request ~message:m ()
  | Ok f ->
      c.sink <- Some f;
      reply c [ ("attached", Json.Bool true) ]

let handle_rehome st c ~id ~add ~remove =
  let added = ref 0 and already = ref 0 and removed = ref 0 and absent = ref 0 in
  List.iter
    (fun (topic, subscriber) ->
      if Broker.subscribed st.core ~topic ~subscriber then incr already
      else begin
        Broker.subscribe st.core ~topic ~subscriber;
        st.rehomed_in <- st.rehomed_in + 1;
        incr added
      end)
    add;
  List.iter
    (fun (topic, subscriber) ->
      if Broker.unsubscribe st.core ~topic ~subscriber then begin
        st.rehomed_out <- st.rehomed_out + 1;
        incr removed
      end
      else incr absent)
    remove;
  reply c ~id
    [
      ("added", Json.Int !added);
      ("already_present", Json.Int !already);
      ("removed", Json.Int !removed);
      ("absent", Json.Int !absent);
      ("pairs", Json.Int (Broker.num_pairs st.core));
    ]

let handle_line st ~vm ~now_s c line =
  match Json.parse line with
  | Error m -> reply_error c ~code:Protocol.Bad_request ~message:m ()
  | Ok j -> (
      match Json.member "req" j |> Fun.flip Option.bind Json.to_string_opt with
      | Some "pub" -> handle_pub st ~vm ~now_s c j
      | Some "attach" -> handle_attach c j
      | Some "kill" -> raise (Teardown false)
      | _ -> (
          match Protocol.decode j with
          | Error m -> reply_error c ~id:(Json.member "id" j) ~code:Protocol.Bad_request ~message:m ()
          | Ok env -> (
              let id = env.Protocol.id in
              match env.Protocol.request with
              | Protocol.Health ->
                  reply c ~id
                    [
                      ("role", Json.String "broker");
                      ("vm", Json.Int vm);
                      ("pairs", Json.Int (Broker.num_pairs st.core));
                      ("draining", Json.Bool st.draining);
                    ]
              | Protocol.Drain ->
                  st.draining <- true;
                  reply c ~id [ ("vm", Json.Int vm); ("draining", Json.Bool true) ]
              | Protocol.Rehome { add; remove } -> handle_rehome st c ~id ~add ~remove
              | Protocol.Ledger -> reply c ~id (Ledger.fields (ledger_of st ~vm))
              | Protocol.Shutdown ->
                  st.draining <- true;
                  reply c ~id [ ("vm", Json.Int vm); ("draining", Json.Bool true) ];
                  raise (Teardown true)
              | _ ->
                  reply_error c ~id ~code:Protocol.Bad_request
                    ~message:
                      "planning verb on a broker socket: send it to mcss serve"
                    ())))

let close_all listener st =
  (try Unix.close listener with Unix.Unix_error _ -> ());
  List.iter
    (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    st.conns;
  st.conns <- []

let serve ~vm ~address ~pairs ~bytes_per_horizon ~message_bytes ~kill_flag listener =
  (* The message size cancels out of the queue model: [bytes_per_horizon]
     is [BC · message_bytes], so this is [BC] in events per horizon. *)
  let core =
    Broker.create ~id:vm ~capacity:(bytes_per_horizon /. float_of_int message_bytes)
  in
  List.iter (fun (topic, subscriber) -> Broker.subscribe core ~topic ~subscriber) pairs;
  let st =
    {
      core;
      conns = [];
      draining = false;
      last_time = 0.;
      published = 0;
      handoffs = 0;
      delivered = 0;
      dropped_overflow = 0;
      dropped_unattached = 0;
      rehomed_in = 0;
      rehomed_out = 0;
      queue_peak_bytes = 0;
    }
  in
  let t0 = Clock.now_ns () in
  let now_s () = Int64.to_float (Int64.sub (Clock.now_ns ()) t0) *. 1e-9 in
  (try
     let stopping = ref false in
     let stop_deadline = ref 0. in
     while true do
       if Atomic.get kill_flag then raise (Teardown false);
       st.conns <- List.filter (fun c -> not c.dead) st.conns;
       if !stopping then begin
         (* Graceful exit: flush what the sinks still owe, then leave. *)
         if
           List.for_all (fun c -> Queue.is_empty c.outq) st.conns
           || now_s () > !stop_deadline
         then raise (Teardown true)
       end;
       let reads = if !stopping then [] else listener :: List.map (fun c -> c.fd) st.conns in
       let writes =
         List.filter_map
           (fun c -> if Queue.is_empty c.outq then None else Some c.fd)
           st.conns
       in
       let readable, writable, _ =
         try Unix.select reads writes [] tick_s
         with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
       in
       List.iter
         (fun fd ->
           if fd = listener then begin
             match Unix.accept listener with
             | client, _ -> st.conns <- conn_of client :: st.conns
             | exception
                 Unix.Unix_error
                   ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                 ()
           end
           else
             match List.find_opt (fun c -> c.fd = fd) st.conns with
             | None -> ()
             | Some c -> (
                 match Wire.Reader.read_lines c.reader with
                 | `Eof -> c.dead <- true
                 | `Again -> ()
                 | `Lines lines ->
                     List.iter
                       (fun line ->
                         try handle_line st ~vm ~now_s:(now_s ()) c line
                         with
                         | Teardown true ->
                             stopping := true;
                             stop_deadline := now_s () +. 2.0
                         | Unix.Unix_error _ -> c.dead <- true)
                       lines
                 | exception Unix.Unix_error _ -> c.dead <- true))
         readable;
       List.iter
         (fun fd ->
           match List.find_opt (fun c -> c.fd = fd) st.conns with
           | None -> ()
           | Some c -> flush_conn c)
         writable;
       List.iter
         (fun c ->
           if c.dead then try Unix.close c.fd with Unix.Unix_error _ -> ())
         st.conns
     done
   with
  | Teardown _ -> close_all listener st
  | exn ->
      Printf.eprintf "broker %d: crashed: %s\n%!" vm (Printexc.to_string exn);
      close_all listener st);
  match address with
  | Server.Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Server.Tcp _ -> ()

let start ~vm ~address ~pairs ~bytes_per_horizon ~message_bytes () =
  let listener = Server.bind_listener address ~backlog:64 in
  Unix.set_nonblock listener;
  let kill_flag = Atomic.make false in
  let domain =
    Domain.spawn (fun () ->
        serve ~vm ~address ~pairs ~bytes_per_horizon ~message_bytes ~kill_flag
          listener)
  in
  { vm; address; kill_flag; domain }
