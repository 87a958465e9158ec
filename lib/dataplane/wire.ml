module Json = Mcss_json.Json
module Server = Mcss_serve.Server

type event = { topic : int; seq : int; pub_ns : int }
type delivery = { topic : int; seq : int; pub_ns : int; subscribers : int list }

let pub_line events =
  let b = Buffer.create (32 * List.length events + 24) in
  Buffer.add_string b {|{"req":"pub","e":[|};
  List.iteri
    (fun i (e : event) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "[%d,%d,%d]" e.topic e.seq e.pub_ns))
    events;
  Buffer.add_string b "]}\n";
  Buffer.contents b

let pub_request events =
  Json.Obj
    [
      ("req", Json.String "pub");
      ( "e",
        Json.List
          (List.map
             (fun (e : event) ->
               Json.List [ Json.Int e.topic; Json.Int e.seq; Json.Int e.pub_ns ])
             events) );
    ]

let int_at j =
  match Json.to_int_opt j with Some x when x >= 0 -> Some x | _ -> None

let events_of j =
  match Json.member "e" j with
  | None -> Error "pub needs an \"e\" array"
  | Some v -> (
      match Json.to_list_opt v with
      | None -> Error "field \"e\" must be an array"
      | Some xs ->
          let rec conv acc = function
            | [] -> Ok (List.rev acc)
            | Json.List [ t; n; p ] :: rest -> (
                match (int_at t, int_at n, int_at p) with
                | Some topic, Some seq, Some pub_ns ->
                    conv ({ topic; seq; pub_ns } :: acc) rest
                | _ -> Error "events must be [topic, seq, pub_ns] of nonnegative ints")
            | _ -> Error "events must be [topic, seq, pub_ns] triples"
          in
          conv [] xs)

let delivery_line d =
  let b = Buffer.create 64 in
  Buffer.add_string b
    (Printf.sprintf {|{"t":%d,"n":%d,"p":%d,"s":[|} d.topic d.seq d.pub_ns);
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (string_of_int s))
    d.subscribers;
  Buffer.add_string b "]}\n";
  Buffer.contents b

let delivery_of j =
  let field key =
    match Json.member key j with
    | Some v -> (
        match int_at v with
        | Some x -> Ok x
        | None -> Error (Printf.sprintf "field %S must be a nonnegative int" key))
    | None -> Error (Printf.sprintf "delivery line needs field %S" key)
  in
  let ( let* ) r f = match r with Ok x -> f x | Error _ as e -> e in
  let* topic = field "t" in
  let* seq = field "n" in
  let* pub_ns = field "p" in
  match Json.member "s" j with
  | None -> Error "delivery line needs field \"s\""
  | Some v -> (
      match Json.to_list_opt v with
      | None -> Error "field \"s\" must be an array"
      | Some xs ->
          let rec conv acc = function
            | [] -> Ok { topic; seq; pub_ns; subscribers = List.rev acc }
            | x :: rest -> (
                match int_at x with
                | Some s -> conv (s :: acc) rest
                | None -> Error "field \"s\" must contain nonnegative ints")
          in
          conv [] xs)

let connect address =
  match address with
  | Server.Unix_socket path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_UNIX path)
       with e -> Unix.close fd; raise e);
      fd
  | Server.Tcp (host, port) ->
      let addr =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> Unix.inet_addr_of_string host
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_INET (addr, port))
       with e -> Unix.close fd; raise e);
      fd

module Reader = struct
  type t = { fd : Unix.file_descr; pending : Buffer.t; chunk : bytes }

  let create fd = { fd; pending = Buffer.create 4096; chunk = Bytes.create 65536 }

  (* Split out every complete line accumulated so far; the tail (no
     newline yet) stays buffered. *)
  let pop_lines r =
    let s = Buffer.contents r.pending in
    match String.rindex_opt s '\n' with
    | None -> []
    | Some last ->
        Buffer.clear r.pending;
        Buffer.add_substring r.pending s (last + 1) (String.length s - last - 1);
        String.split_on_char '\n' (String.sub s 0 last)
        |> List.filter (fun l -> l <> "")

  let read_lines r =
    match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
    | 0 -> `Eof
    | n ->
        Buffer.add_subbytes r.pending r.chunk 0 n;
        `Lines (pop_lines r)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        `Again
end
