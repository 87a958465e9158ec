module Json = Mcss_json.Json
module Client = Mcss_serve.Client
module Protocol = Mcss_serve.Protocol
module Server = Mcss_serve.Server

let call address request =
  Client.with_connection address (fun c ->
      match
        Client.request_envelope c
          { Protocol.id = None; deadline_ms = None; request }
      with
      | Error _ as e -> e
      | Ok reply -> (
          match Protocol.response_error reply with
          | None -> Ok reply
          | Some (_, message) -> Error message))

let health address = call address Protocol.Health

let drain address =
  match call address Protocol.Drain with Ok _ -> Ok () | Error _ as e -> e

let rehome address ~add ~remove = call address (Protocol.Rehome { add; remove })

let ledger address =
  match call address Protocol.Ledger with
  | Error _ as e -> e
  | Ok reply -> Ledger.of_json reply

let shutdown address =
  match call address Protocol.Shutdown with Ok _ -> Ok () | Error _ as e -> e

let kill address =
  match Wire.connect address with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Server.write_all fd (Json.to_string (Json.Obj [ ("req", Json.String "kill") ]) ^ "\n")
       with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())
