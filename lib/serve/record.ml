type t =
  | Load of { origin : string option; digest : string; wio : string }
  | Plan of {
      origin : string option; digest : string; params : Protocol.solve_params;
      plan : string;
      bandwidth : float; bandwidth_gb : float; cost : float;
      stage1_s : float; stage2_s : float; solve_s : float;
    }
  | Update of {
      origin : string option; digest : string; params : Protocol.solve_params;
      deltas : string;
      new_digest : string;
    }

let f17 x = Json.String (Printf.sprintf "%.17g" x)

let head op origin digest =
  (("op", Json.String op)
  :: (match origin with None -> [] | Some o -> [ ("origin", Json.String o) ]))
  @ [ ("digest", Json.String digest) ]

let params_fields (p : Protocol.solve_params) =
  [
    ("tau", f17 p.Protocol.tau);
    ("instance", Json.String p.Protocol.instance);
    ("config", Json.String p.Protocol.config);
  ]
  @ match p.Protocol.bc_events with None -> [] | Some x -> [ ("bc", f17 x) ]

let to_string r =
  Json.to_string
    (Json.Obj
       (match r with
       | Load { origin; digest; wio } ->
           head "load" origin digest @ [ ("wio", Json.String wio) ]
       | Plan p ->
           head "plan" p.origin p.digest @ params_fields p.params
           @ ("plan", Json.String p.plan)
             :: List.map
                  (fun (k, x) -> (k, f17 x))
                  [
                    ("bandwidth", p.bandwidth);
                    ("bandwidth_gb", p.bandwidth_gb);
                    ("cost", p.cost);
                    ("stage1_s", p.stage1_s);
                    ("stage2_s", p.stage2_s);
                    ("solve_s", p.solve_s);
                  ]
       | Update u ->
           head "update" u.origin u.digest @ params_fields u.params
           @ [ ("deltas", Json.String u.deltas); ("new_digest", Json.String u.new_digest) ]))

let of_string line =
  match Json.parse line with
  | Error _ -> None
  | Ok j -> (
      let ( let* ) = Option.bind in
      let str key = Option.bind (Json.member key j) Json.to_string_opt in
      let num key =
        match Json.member key j with
        | Some (Json.String s) -> float_of_string_opt s
        | Some v -> Json.to_float_opt v
        | None -> None
      in
      let origin = str "origin" in
      let params () =
        let* tau = num "tau" in
        let* instance = str "instance" in
        let* config = str "config" in
        Some { Protocol.tau; instance; config; bc_events = num "bc" }
      in
      match str "op" with
      | Some "load" ->
          let* digest = str "digest" in
          let* wio = str "wio" in
          Some (Load { origin; digest; wio })
      | Some "plan" ->
          let* digest = str "digest" in
          let* plan = str "plan" in
          let* params = params () in
          let* bandwidth = num "bandwidth" in
          let* bandwidth_gb = num "bandwidth_gb" in
          let* cost = num "cost" in
          let seconds key = Option.value ~default:0. (num key) in
          let stage1_s = seconds "stage1_s" and stage2_s = seconds "stage2_s" in
          Some
            (Plan
               { origin; digest; params; plan; bandwidth; bandwidth_gb; cost;
                 stage1_s; stage2_s; solve_s = seconds "solve_s" })
      | Some "update" ->
          let* digest = str "digest" in
          let* deltas = str "deltas" in
          let* new_digest = str "new_digest" in
          let* params = params () in
          Some (Update { origin; digest; params; deltas; new_digest })
      | _ -> None)
