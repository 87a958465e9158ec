type address = Unix_socket of string | Tcp of string * int

let address_to_string = function
  | Unix_socket path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

let address_of_string s =
  let prefix = "unix:" in
  let plen = String.length prefix in
  if String.length s > plen && String.sub s 0 plen = prefix then
    Ok (Unix_socket (String.sub s plen (String.length s - plen)))
  else if String.contains s '/' then Ok (Unix_socket s)
  else
    match String.rindex_opt s ':' with
    | Some i -> (
        let host = if i = 0 then "127.0.0.1" else String.sub s 0 i in
        match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
        | Some port when port > 0 && port < 65536 -> Ok (Tcp (host, port))
        | _ -> Error (Printf.sprintf "bad port in address %S" s))
    | None -> (
        match int_of_string_opt s with
        | Some port when port > 0 && port < 65536 -> Ok (Tcp ("127.0.0.1", port))
        | _ ->
            Error
              (Printf.sprintf
                 "bad address %S: expected unix:PATH, HOST:PORT, :PORT or PORT" s))

type config = {
  workers : int;
  queue_depth : int option;
  max_request_bytes : int;
  accept_tick_s : float;
  log : string -> unit;
}

let default_config =
  {
    workers = 4;
    queue_depth = None;
    max_request_bytes = 8 * 1024 * 1024;
    accept_tick_s = 0.2;
    log = ignore;
  }

(* ----- low-level I/O ----- *)

let write_all fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then
      match Unix.write fd b off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let send_reply fd json = write_all fd (Json.to_string json ^ "\n")

(* A buffered line reader over a nonblocking-ish fd. [read_line] returns
   [`Line s] (newline stripped, CR tolerated), [`Too_long] once a line
   exceeds [limit] (the remainder of that line is consumed and
   discarded), [`Eof], or [`Timeout] when the socket's receive timeout
   expired with no pending bytes (used to poll the drain flag). *)
type reader = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  chunk : Bytes.t;
  limit : int;
  mutable pending : string;  (* bytes read past the last returned line *)
}

let make_reader fd ~limit =
  { fd; buf = Buffer.create 512; chunk = Bytes.create 8192; limit; pending = "" }

let rec read_line r ~dropping =
  (* Look for a newline in what we already have. *)
  match String.index_opt r.pending '\n' with
  | Some i ->
      let line = String.sub r.pending 0 i in
      r.pending <- String.sub r.pending (i + 1) (String.length r.pending - i - 1);
      if dropping then `Too_long
      else begin
        Buffer.add_string r.buf line;
        let full = Buffer.contents r.buf in
        Buffer.clear r.buf;
        let full =
          if full <> "" && full.[String.length full - 1] = '\r' then
            String.sub full 0 (String.length full - 1)
          else full
        in
        if String.length full > r.limit then `Too_long else `Line full
      end
  | None ->
      if dropping then begin
        r.pending <- "";
        fill r ~dropping
      end
      else begin
        Buffer.add_string r.buf r.pending;
        r.pending <- "";
        if Buffer.length r.buf > r.limit then begin
          Buffer.clear r.buf;
          fill r ~dropping:true
        end
        else fill r ~dropping
      end

and fill r ~dropping =
  match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
  | 0 -> `Eof
  | n ->
      r.pending <- Bytes.sub_string r.chunk 0 n;
      read_line r ~dropping
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> `Timeout
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill r ~dropping
  | exception Unix.Unix_error _ -> `Eof

(* ----- per-connection loop ----- *)

let serve_connection ~draining ~handle config fd =
  (* A receive timeout lets an idle connection notice the drain flag. *)
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO config.accept_tick_s
   with Unix.Unix_error _ | Invalid_argument _ -> ());
  let reader = make_reader fd ~limit:config.max_request_bytes in
  let rec loop () =
    if draining () then ()
    else
      match read_line reader ~dropping:false with
      | `Eof -> ()
      | `Timeout -> loop ()
      | `Too_long ->
          send_reply fd
            (Protocol.error_response ~code:Protocol.Too_large
               ~message:
                 (Printf.sprintf "request line exceeded %d bytes"
                    config.max_request_bytes)
               ());
          loop ()
      | `Line "" -> loop ()
      | `Line line ->
          let reply = handle line in
          send_reply fd reply;
          loop ()
  in
  (try loop () with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* ----- accept loop ----- *)

let bind_listener address ~backlog =
  match address with
  | Unix_socket path ->
      (try
         if (Unix.stat path).Unix.st_kind = Unix.S_SOCK then Unix.unlink path
       with Unix.Unix_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd backlog;
      fd
  | Tcp (host, port) ->
      let inet =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
          | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
          | _ -> raise (Unix.Unix_error (Unix.EINVAL, "getaddrinfo", host)))
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (inet, port));
      Unix.listen fd backlog;
      fd

let run_handler ?(config = default_config) ?obs ?(name = "mcss serve") ~draining
    ~handle address =
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception (Invalid_argument _ | Sys_error _) -> ());
  let obs = match obs with Some r -> r | None -> Mcss_obs.Registry.noop in
  let listener = bind_listener address ~backlog:64 in
  let pool = Pool.start ?queue_depth:config.queue_depth ~workers:(max 1 config.workers) () in
  config.log
    (Printf.sprintf "%s: listening on %s (%d workers)" name
       (address_to_string address) (max 1 config.workers));
  let rec accept_loop () =
    if draining () then ()
    else begin
      (match Unix.select [ listener ] [] [] config.accept_tick_s with
      | [ _ ], _, _ -> (
          match Unix.accept listener with
          | fd, _ ->
              if not
                   (Pool.submit pool (fun () ->
                        serve_connection ~draining ~handle config fd))
              then begin
                (* Pool saturated or closing: shed the connection with a
                   parseable reason rather than a silent RST. *)
                Mcss_obs.Metric.Counter.inc
                  (Mcss_obs.Registry.counter obs
                     ~help:"Connections shed because the worker queue was full"
                     "serve.connections.shed");
                (try
                   send_reply fd
                     (Protocol.error_response ~code:Protocol.Overloaded
                        ~message:"connection queue full" ())
                 with Unix.Unix_error _ -> ());
                try Unix.close fd with Unix.Unix_error _ -> ()
              end
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  accept_loop ();
  config.log (name ^ ": draining");
  (try Unix.close listener with Unix.Unix_error _ -> ());
  Pool.shutdown pool;
  (match address with
  | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  config.log (name ^ ": stopped")

let run ?(config = default_config) service address =
  run_handler ~config ~obs:(Service.obs service)
    ~draining:(fun () -> Service.draining service)
    ~handle:(Service.handle_line service)
    address
