module Json = Mcss_json.Json
module Server = Mcss_serve.Server
module Fleet = Mcss_broker.Fleet
module Clock = Mcss_obs.Clock
module Rng = Mcss_prng.Rng

type sink = { vm : int; fd : Unix.file_descr; domain : unit Domain.t }

type t = {
  lock : Mutex.t;
  seen : (int * int, unit) Hashtbl.t;  (* (seq, subscriber) *)
  unique : int array;
  mutable copies : int;
  mutable duplicates : int;
  reservoir : Fleet.Reservoir.t;
  mutable sinks : sink list;
  mutable closed : bool;
}

let create ~num_subscribers ~latency_seed () =
  {
    lock = Mutex.create ();
    seen = Hashtbl.create 65536;
    unique = Array.make num_subscribers 0;
    copies = 0;
    duplicates = 0;
    reservoir = Fleet.Reservoir.create ~rng:(Rng.create latency_seed);
    sinks = [];
    closed = false;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let record t (d : Wire.delivery) =
  let now = Int64.to_int (Clock.now_ns ()) in
  locked t (fun () ->
      List.iter
        (fun sub ->
          t.copies <- t.copies + 1;
          if Hashtbl.mem t.seen (d.Wire.seq, sub) then
            t.duplicates <- t.duplicates + 1
          else begin
            Hashtbl.replace t.seen (d.Wire.seq, sub) ();
            if sub >= 0 && sub < Array.length t.unique then
              t.unique.(sub) <- t.unique.(sub) + 1;
            Fleet.Reservoir.add t.reservoir
              (float_of_int (now - d.Wire.pub_ns) *. 1e-9)
          end)
        d.Wire.subscribers)

(* The collector: blocking reads until EOF (broker shutdown, kill, or
   our own close). Reply lines to the attach request carry "ok" and are
   skipped; everything else must be a delivery line. *)
let collect t fd =
  let reader = Wire.Reader.create fd in
  let running = ref true in
  while !running do
    match Wire.Reader.read_lines reader with
    | `Eof -> running := false
    | `Again -> ignore (Unix.select [ fd ] [] [] 0.25)
    | `Lines lines ->
        List.iter
          (fun line ->
            match Json.parse line with
            | Error _ -> ()
            | Ok j -> (
                if Json.member "ok" j = None then
                  match Wire.delivery_of j with
                  | Ok d -> record t d
                  | Error _ -> ()))
          lines
    | exception Unix.Unix_error _ -> running := false
  done

let attach t ~vm address =
  if locked t (fun () -> t.closed) then Error "sinks are closed"
  else if locked t (fun () -> List.exists (fun s -> s.vm = vm) t.sinks) then Ok ()
  else
    match Wire.connect address with
    | exception Unix.Unix_error (e, _, _) ->
        Error
          (Printf.sprintf "broker %d (%s): %s" vm
             (Server.address_to_string address) (Unix.error_message e))
    | fd ->
        Server.write_all fd (Json.to_string (Json.Obj [ ("req", Json.String "attach") ]) ^ "\n");
        let domain = Domain.spawn (fun () -> collect t fd) in
        locked t (fun () -> t.sinks <- { vm; fd; domain } :: t.sinks);
        Ok ()

let attach_cluster t cluster =
  List.fold_left
    (fun acc (vm, address) ->
      match acc with Error _ as e -> e | Ok () -> attach t ~vm address)
    (Ok ()) (Cluster.live cluster)

let copies t = locked t (fun () -> t.copies)
let unique t = locked t (fun () -> Array.copy t.unique)
let duplicates t = locked t (fun () -> t.duplicates)
let latency t = locked t (fun () -> Fleet.Reservoir.summary t.reservoir)

let close t =
  let sinks =
    locked t (fun () ->
        t.closed <- true;
        let s = t.sinks in
        t.sinks <- [];
        s)
  in
  List.iter
    (fun s ->
      (try Unix.shutdown s.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      Domain.join s.domain;
      try Unix.close s.fd with Unix.Unix_error _ -> ())
    sinks
