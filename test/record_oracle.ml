(* The journal record format as [Mcss_serve.Service] wrote and read it
   before [Mcss_serve.Record] owned it, copied verbatim: [f17],
   [f17_get], the three encoders and the field-reading half of
   [apply_record]: the oracle for the codec property in [Test_serve].
   Only the boundaries are new. The encoders take the Wio text and the
   plan's figures as arguments instead of a workload and a cache entry.
   The decoder stops where the old code went on to parse the Wio text,
   look up the workload, decode the plan or replay the deltas, and
   returns the fields it read as a [Record.t]. It also reads [origin]
   the way the nemesis invariants did. *)

module Json = Mcss_json.Json
module Protocol = Mcss_serve.Protocol
module Record = Mcss_serve.Record

let f17 x = Json.String (Printf.sprintf "%.17g" x)

let f17_get j key =
  match Json.member key j with
  | Some (Json.String s) -> float_of_string_opt s
  | Some v -> Json.to_float_opt v
  | None -> None

let load_op ~origin digest wio =
  Json.to_string
    (Json.Obj
       [
         ("op", Json.String "load");
         ("origin", Json.String origin);
         ("digest", Json.String digest);
         ("wio", Json.String wio);
       ])

let plan_op ~origin ~digest ~(params : Protocol.solve_params) ~text ~bandwidth
    ~bandwidth_gb ~cost ~stage1_seconds ~stage2_seconds ~solve_seconds =
  let p = params in
  Json.to_string
    (Json.Obj
       ([
          ("op", Json.String "plan");
          ("origin", Json.String origin);
          ("digest", Json.String digest);
          ("tau", f17 p.Protocol.tau);
          ("instance", Json.String p.Protocol.instance);
          ("config", Json.String p.Protocol.config);
        ]
       @ (match p.Protocol.bc_events with
         | None -> []
         | Some x -> [ ("bc", f17 x) ])
       @ [
           ("plan", Json.String text);
           ("bandwidth", f17 bandwidth);
           ("bandwidth_gb", f17 bandwidth_gb);
           ("cost", f17 cost);
           ("stage1_s", f17 stage1_seconds);
           ("stage2_s", f17 stage2_seconds);
           ("solve_s", f17 solve_seconds);
         ]))

let update_op ~origin ~digest ~(params : Protocol.solve_params) ~deltas
    ~new_digest =
  Json.to_string
    (Json.Obj
       ([
          ("op", Json.String "update");
          ("origin", Json.String origin);
          ("digest", Json.String digest);
          ("tau", f17 params.Protocol.tau);
          ("instance", Json.String params.Protocol.instance);
          ("config", Json.String params.Protocol.config);
        ]
       @ (match params.Protocol.bc_events with
         | None -> []
         | Some x -> [ ("bc", f17 x) ])
       @ [
           ("deltas", Json.String deltas);
           ("new_digest", Json.String new_digest);
         ]))

(* The old encoders wrote an origin on every record, so there is no
   oracle for a record without one. *)
let encode : Record.t -> string option = function
  | Record.Load { origin = Some origin; digest; wio } -> Some (load_op ~origin digest wio)
  | Record.Plan
      {
        origin = Some origin;
        digest;
        params;
        plan;
        bandwidth;
        bandwidth_gb;
        cost;
        stage1_s;
        stage2_s;
        solve_s;
      } ->
      Some
        (plan_op ~origin ~digest ~params ~text:plan ~bandwidth ~bandwidth_gb ~cost
           ~stage1_seconds:stage1_s ~stage2_seconds:stage2_s ~solve_seconds:solve_s)
  | Record.Update { origin = Some origin; digest; params; deltas; new_digest } ->
      Some (update_op ~origin ~digest ~params ~deltas ~new_digest)
  | _ -> None

let decode line =
  match Json.parse line with
  | Error _ -> None
  | Ok j -> (
      let str key = Json.member key j |> Fun.flip Option.bind Json.to_string_opt in
      let origin = str "origin" in
      match str "op" with
      | Some "load" -> (
          match str "wio" with
          | None -> None
          | Some text -> (
              match str "digest" with
              | Some digest -> Some (Record.Load { origin; digest; wio = text })
              | None -> None))
      | Some "plan" -> (
          match (str "digest", str "plan") with
          | Some digest, Some text -> (
              let params =
                match
                  ( f17_get j "tau",
                    str "instance",
                    str "config" )
                with
                | Some tau, Some instance, Some config ->
                    Some
                      {
                        Protocol.tau;
                        instance;
                        config;
                        bc_events = f17_get j "bc";
                      }
                | _ -> None
              in
              match params with
              | None -> None
              | Some params -> (
                  match
                    ( f17_get j "bandwidth",
                      f17_get j "bandwidth_gb",
                      f17_get j "cost" )
                  with
                  | Some bandwidth, Some bandwidth_gb, Some cost ->
                      Some
                        (Record.Plan
                           {
                             origin;
                             digest;
                             params;
                             plan = text;
                             bandwidth;
                             bandwidth_gb;
                             cost;
                             stage1_s = Option.value ~default:0. (f17_get j "stage1_s");
                             stage2_s = Option.value ~default:0. (f17_get j "stage2_s");
                             solve_s = Option.value ~default:0. (f17_get j "solve_s");
                           })
                  | _ -> None))
          | _ -> None)
      | Some "update" -> (
          match (str "digest", str "deltas", str "new_digest") with
          | Some digest, Some deltas, Some new_digest -> (
              let params =
                match (f17_get j "tau", str "instance", str "config") with
                | Some tau, Some instance, Some config ->
                    Some
                      {
                        Protocol.tau;
                        instance;
                        config;
                        bc_events = f17_get j "bc";
                      }
                | _ -> None
              in
              match params with
              | Some params ->
                  Some (Record.Update { origin; digest; params; deltas; new_digest })
              | None -> None)
          | _ -> None)
      | _ -> None)
