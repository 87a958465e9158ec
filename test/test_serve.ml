(* The planning daemon, driven three ways: the pure pieces (JSON,
   protocol, cache, admission) directly; the service in-process through
   [handle_line]; and the full socket server end-to-end over a Unix
   socket with real client connections. *)

module Json = Mcss_json.Json
module Protocol = Mcss_serve.Protocol
module Plan_cache = Mcss_serve.Plan_cache
module Admission = Mcss_serve.Admission
module Service = Mcss_serve.Service
module Server = Mcss_serve.Server
module Client = Mcss_serve.Client
module Wio = Mcss_workload.Wio

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ----- JSON ----- *)

let test_json_roundtrip () =
  let cases =
    [
      "null";
      "true";
      "[1,2,3]";
      {|{"a":1,"b":[true,null],"c":"x"}|};
      {|"escape \" \\ \n \t me"|};
      {|{"nested":{"deep":{"deeper":[{"x":1.5}]}}}|};
    ]
  in
  List.iter
    (fun s ->
      match Json.parse s with
      | Error e -> Alcotest.failf "parse %S: %s" s e
      | Ok j -> (
          match Json.parse (Json.to_string j) with
          | Error e -> Alcotest.failf "reparse %S: %s" (Json.to_string j) e
          | Ok j' ->
              check_bool (Printf.sprintf "round-trip %S" s) true (j = j')))
    cases

let test_json_unicode_escape () =
  match Json.parse {|"aé😀b"|} with
  | Ok (Json.String s) ->
      check_string "utf-8 decoding of \\u escapes" "a\xc3\xa9\xf0\x9f\x98\x80b" s
  | Ok _ | Error _ -> Alcotest.fail "expected a string"

let test_json_rejects () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted invalid JSON %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; {|{"a":}|}; "tru"; "1e"; {|{"a":1}extra|}; "'single'" ]

let test_json_accessors () =
  match Json.parse {|{"n":3,"f":1.5,"s":"x","b":true,"l":[1]}|} with
  | Error e -> Alcotest.fail e
  | Ok j ->
      check_bool "int" true (Option.bind (Json.member "n" j) Json.to_int_opt = Some 3);
      check_bool "float" true
        (Option.bind (Json.member "f" j) Json.to_float_opt = Some 1.5);
      check_bool "int as float" true
        (Option.bind (Json.member "n" j) Json.to_float_opt = Some 3.);
      check_bool "string" true
        (Option.bind (Json.member "s" j) Json.to_string_opt = Some "x");
      check_bool "bool" true
        (Option.bind (Json.member "b" j) Json.to_bool_opt = Some true);
      check_bool "absent member" true (Json.member "zz" j = None)

(* ----- protocol ----- *)

let test_protocol_decode_solve () =
  let line =
    {|{"req":"solve","digest":"abc","tau":50,"instance":"m1.small","deadline_ms":250,"id":7}|}
  in
  match Json.parse line with
  | Error e -> Alcotest.fail e
  | Ok j -> (
      match Protocol.decode j with
      | Error e -> Alcotest.fail e
      | Ok env -> (
          check_bool "id echoed" true (env.Protocol.id = Some (Json.Int 7));
          check_bool "deadline" true (env.Protocol.deadline_ms = Some 250.);
          match env.Protocol.request with
          | Protocol.Solve { digest; params } ->
              check_string "digest" "abc" digest;
              check_bool "tau" true (params.Protocol.tau = 50.);
              check_string "instance" "m1.small" params.Protocol.instance
          | _ -> Alcotest.fail "expected Solve"))

let test_protocol_encode_decode_inverse () =
  let envs =
    [
      { Protocol.id = None; deadline_ms = None; request = Protocol.Health };
      {
        Protocol.id = Some (Json.String "x");
        deadline_ms = Some 100.;
        request =
          Protocol.Whatif
            {
              digest = "d";
              params = Protocol.default_params;
              taus = [ 10.; 100. ];
            };
      };
      {
        Protocol.id = None;
        deadline_ms = None;
        request =
          Protocol.Chaos
            {
              digest = "d";
              params = Protocol.default_params;
              seed = 3;
              epochs = 4;
              zones = 2;
              faults = [ "crash:0@0.5" ];
            };
      };
    ]
  in
  List.iter
    (fun env ->
      match Protocol.decode (Protocol.encode env) with
      | Error e -> Alcotest.fail e
      | Ok env' -> check_bool "encode/decode inverse" true (env = env'))
    envs

let test_protocol_rejects () =
  List.iter
    (fun line ->
      match Json.parse line with
      | Error _ -> ()
      | Ok j -> (
          match Protocol.decode j with
          | Ok _ -> Alcotest.failf "accepted bad request %s" line
          | Error _ -> ()))
    [
      {|{"req":"warp"}|};
      {|{"req":"solve"}|};
      {|{"req":"solve","digest":"d","tau":-1}|};
      {|{"req":"whatif","digest":"d","taus":[]}|};
      {|{"req":"health","deadline_ms":0}|};
      {|[1,2]|};
      {|{"req":"chaos","digest":"d","epochs":0}|};
    ]

(* ----- plan cache ----- *)

let test_cache_lru_eviction () =
  let c = Plan_cache.create ~capacity:2 in
  Plan_cache.add c "a" 1;
  Plan_cache.add c "b" 2;
  check_bool "a resident" true (Plan_cache.find c "a" = Some 1);
  (* "b" is now LRU; adding "c" must evict it. *)
  Plan_cache.add c "c" 3;
  check_bool "b evicted" true (Plan_cache.find c "b" = None);
  check_bool "a survives" true (Plan_cache.find c "a" = Some 1);
  check_bool "c resident" true (Plan_cache.find c "c" = Some 3);
  let s = Plan_cache.stats c in
  check_int "hits" 3 s.Plan_cache.hits;
  check_int "misses" 1 s.Plan_cache.misses;
  check_int "evictions" 1 s.Plan_cache.evictions;
  check_int "entries" 2 s.Plan_cache.entries

let test_cache_replace_promotes () =
  let c = Plan_cache.create ~capacity:2 in
  Plan_cache.add c "a" 1;
  Plan_cache.add c "b" 2;
  Plan_cache.add c "a" 10;
  (* replace, no eviction *)
  check_int "still two entries" 2 (Plan_cache.length c);
  Plan_cache.add c "c" 3;
  (* "b" is LRU after the replacement promoted "a" *)
  check_bool "b evicted" true (Plan_cache.find c "b" = None);
  check_bool "a has new value" true (Plan_cache.find c "a" = Some 10)

let test_cache_rejects_zero_capacity () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Plan_cache.create: capacity must be >= 1") (fun () ->
      ignore (Plan_cache.create ~capacity:0 : int Plan_cache.t))

let test_cache_hit_ratio () =
  let c = Plan_cache.create ~capacity:4 in
  check_bool "no lookups yet" true (Plan_cache.hit_ratio (Plan_cache.stats c) = 0.);
  Plan_cache.add c "k" 1;
  ignore (Plan_cache.find c "k");
  ignore (Plan_cache.find c "nope");
  check_bool "one of two" true
    (abs_float (Plan_cache.hit_ratio (Plan_cache.stats c) -. 0.5) < 1e-9)

(* ----- admission ----- *)

let test_admission_gate () =
  let g = Admission.create ~max_in_flight:2 in
  check_bool "slot 1" true (Admission.try_acquire g);
  check_bool "slot 2" true (Admission.try_acquire g);
  check_bool "gate full" false (Admission.try_acquire g);
  check_int "rejection counted" 1 (Admission.rejected g);
  Admission.release g;
  check_bool "slot freed" true (Admission.try_acquire g);
  Admission.release g;
  Admission.release g;
  check_int "drained" 0 (Admission.in_flight g)

let test_admission_with_slot () =
  let g = Admission.create ~max_in_flight:1 in
  let nested = ref `Unset in
  let outer =
    Admission.with_slot g (fun () ->
        nested := (match Admission.with_slot g (fun () -> ()) with
                  | None -> `Refused
                  | Some () -> `Admitted);
        17)
  in
  check_bool "outer admitted" true (outer = Some 17);
  check_bool "nested refused while slot held" true (!nested = `Refused);
  check_int "slot released" 0 (Admission.in_flight g);
  (* Exception safety: the slot must be released on raise. *)
  (try ignore (Admission.with_slot g (fun () -> failwith "boom"))
   with Failure _ -> ());
  check_int "released after raise" 0 (Admission.in_flight g)

let test_deadline () =
  check_bool "no deadline never expires" false
    (Admission.expired (Admission.deadline_of_ms None));
  check_bool "no deadline remaining" true
    (Admission.remaining_ms (Admission.deadline_of_ms None) = infinity);
  let d = Admission.deadline_of_ms (Some 0.000001) in
  (* A microsecond deadline has certainly passed by the next check. *)
  let rec wait n = if n > 0 && not (Admission.expired d) then wait (n - 1) in
  wait 1_000_000;
  check_bool "tiny deadline expires" true (Admission.expired d);
  check_bool "expired remaining <= 0" true (Admission.remaining_ms d <= 0.)

(* ----- service (in-process) ----- *)

let test_workload () =
  Helpers.workload ~rates:[ 20.; 10.; 5. ]
    ~interests:[ [ 0; 1 ]; [ 0; 1 ]; [ 1; 2 ]; [ 2 ] ]

let ok_reply name reply =
  if not (Protocol.response_ok reply) then
    Alcotest.failf "%s: error reply %s" name (Json.to_string reply);
  reply

let str_field reply key =
  match Option.bind (Json.member key reply) Json.to_string_opt with
  | Some s -> s
  | None -> Alcotest.failf "reply lacks string %S: %s" key (Json.to_string reply)

let bool_field reply key =
  match Option.bind (Json.member key reply) Json.to_bool_opt with
  | Some b -> b
  | None -> Alcotest.failf "reply lacks bool %S: %s" key (Json.to_string reply)

let test_service_solve_cache () =
  let svc = Service.create () in
  let digest = Service.load_workload svc (test_workload ()) in
  check_string "load is content-addressed" digest
    (Service.digest_of_workload (test_workload ()));
  let solve_line =
    Printf.sprintf {|{"req":"solve","digest":"%s","tau":12}|} digest
  in
  let r1 = ok_reply "first solve" (Service.handle_line svc solve_line) in
  check_bool "cold solve not cached" false (bool_field r1 "cached");
  let runs_after_first = Service.solver_runs svc in
  check_int "one solver run" 1 runs_after_first;
  let r2 = ok_reply "second solve" (Service.handle_line svc solve_line) in
  check_bool "identical params served from cache" true (bool_field r2 "cached");
  check_int "no second solver run" runs_after_first (Service.solver_runs svc);
  let stats = Service.cache_stats svc in
  check_int "cache hit counted" 1 stats.Plan_cache.hits;
  (* Different params miss. *)
  let r3 =
    ok_reply "different tau"
      (Service.handle_line svc
         (Printf.sprintf {|{"req":"solve","digest":"%s","tau":13}|} digest))
  in
  check_bool "different tau is a miss" false (bool_field r3 "cached");
  check_int "second solver run" 2 (Service.solver_runs svc)

let test_service_errors () =
  let svc = Service.create () in
  let expect_error name code line =
    let reply = Service.handle_line svc line in
    match Protocol.response_error reply with
    | Some (Some c, _) when c = code -> ()
    | _ -> Alcotest.failf "%s: wanted %s, got %s" name
             (Protocol.error_code_to_string code)
             (Json.to_string reply)
  in
  expect_error "garbage" Protocol.Bad_request "not json at all";
  expect_error "bad verb" Protocol.Bad_request {|{"req":"warp"}|};
  expect_error "unknown digest" Protocol.Unknown_digest
    {|{"req":"solve","digest":"feedfacefeedfacefeedfacefeedface"}|};
  expect_error "unknown instance" Protocol.Bad_request
    (let digest = Service.load_workload svc (test_workload ()) in
     Printf.sprintf {|{"req":"solve","digest":"%s","instance":"z9.mega"}|} digest);
  expect_error "corrupt inline workload" Protocol.Bad_request
    {|{"req":"load","workload":"mcss-workload 9\n"}|}

let test_service_timeout_is_clean () =
  let svc = Service.create () in
  let digest = Service.load_workload svc (test_workload ()) in
  let reply =
    Service.handle_line svc
      (Printf.sprintf {|{"req":"solve","digest":"%s","deadline_ms":1e-6}|} digest)
  in
  (match Protocol.response_error reply with
  | Some (Some Protocol.Timeout, _) -> ()
  | _ -> Alcotest.failf "wanted timeout, got %s" (Json.to_string reply));
  (* The service is still fully usable afterwards. *)
  ignore
    (ok_reply "health after timeout" (Service.handle_line svc {|{"req":"health"}|}))

let test_service_shutdown_drains () =
  let svc = Service.create () in
  check_bool "not draining initially" false (Service.draining svc);
  let reply = ok_reply "shutdown" (Service.handle_line svc {|{"req":"shutdown"}|}) in
  check_bool "reply says draining" true (bool_field reply "draining");
  check_bool "flag set" true (Service.draining svc);
  (match
     Protocol.response_error (Service.handle_line svc {|{"req":"load","workload":"x"}|})
   with
  | Some (Some Protocol.Draining, _) -> ()
  | other ->
      ignore other;
      Alcotest.fail "load after shutdown should be refused as draining")

let test_service_metrics_exposition () =
  let svc = Service.create () in
  ignore (Service.handle_line svc {|{"req":"health"}|});
  let reply = ok_reply "metrics" (Service.handle_line svc {|{"req":"metrics"}|}) in
  let body = str_field reply "body" in
  let contains needle =
    let nl = String.length needle and tl = String.length body in
    let rec go i = i + nl <= tl && (String.sub body i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "per-endpoint counter present" true
    (contains "mcss_serve_requests_health");
  check_bool "cache gauge present" true (contains "mcss_serve_cache")

(* ----- end-to-end over a Unix socket ----- *)

let with_server f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mcss-serve-test-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let svc = Service.create () in
  let config =
    { Server.default_config with Server.workers = 2; accept_tick_s = 0.05 }
  in
  let address = Server.Unix_socket path in
  let server = Domain.spawn (fun () -> Server.run ~config svc address) in
  (* Wait for the listener to come up. *)
  let rec wait tries =
    if tries = 0 then Alcotest.fail "server never came up";
    match Client.connect address with
    | Ok c ->
        Client.close c
    | Error _ ->
        Unix.sleepf 0.02;
        wait (tries - 1)
  in
  wait 200;
  Fun.protect
    ~finally:(fun () ->
      (* Always drain, even on test failure, so the domain joins. *)
      (match
         Client.with_connection address (fun c ->
             Client.request c (Json.Obj [ ("req", Json.String "shutdown") ]))
       with
      | Ok _ | Error _ -> ());
      Domain.join server;
      (try Unix.unlink path with Unix.Unix_error _ -> ()))
    (fun () -> f address svc)

let wio_text w =
  let path = Filename.temp_file "mcss_serve_wl" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Wio.save w path;
      In_channel.with_open_bin path In_channel.input_all)

let test_e2e_round_trip () =
  with_server (fun address _svc ->
      match
        Client.with_connection address (fun c ->
            let req line =
              match Json.parse line with
              | Error e -> Alcotest.fail e
              | Ok j -> (
                  match Client.request c j with
                  | Ok reply -> reply
                  | Error e -> Alcotest.failf "transport: %s" e)
            in
            let health = ok_reply "health" (req {|{"req":"health"}|}) in
            check_string "serving" "serving" (str_field health "status");
            let load =
              ok_reply "load"
                (req
                   (Json.to_string
                      (Json.Obj
                         [
                           ("req", Json.String "load");
                           ("workload", Json.String (wio_text (test_workload ())));
                         ])))
            in
            let digest = str_field load "digest" in
            check_string "digest matches direct computation"
              (Service.digest_of_workload (test_workload ()))
              digest;
            let solve_line =
              Printf.sprintf {|{"req":"solve","digest":"%s","tau":12}|} digest
            in
            let r1 = ok_reply "solve" (req solve_line) in
            check_bool "cold" false (bool_field r1 "cached");
            let r2 = ok_reply "solve again" (req solve_line) in
            check_bool "hot" true (bool_field r2 "cached");
            (* A deadline-exceeding request errors without killing the
               connection: the same connection keeps working. *)
            let timed_out =
              req
                (Printf.sprintf
                   {|{"req":"solve","digest":"%s","tau":99,"deadline_ms":1e-6}|}
                   digest)
            in
            (match Protocol.response_error timed_out with
            | Some (Some Protocol.Timeout, _) -> ()
            | _ ->
                Alcotest.failf "wanted timeout, got %s" (Json.to_string timed_out));
            let after = ok_reply "health after timeout" (req {|{"req":"health"}|}) in
            check_string "same connection still serving" "serving"
              (str_field after "status");
            Ok ())
      with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)

let test_e2e_concurrent_clients () =
  with_server (fun address svc ->
      let digest = Service.load_workload svc (test_workload ()) in
      let clients = 4 and per_client = 5 in
      let worker i =
        Domain.spawn (fun () ->
            Client.with_connection address (fun c ->
                let failures = ref 0 in
                for k = 1 to per_client do
                  let tau = 10 + (((i + k) mod 3) * 10) in
                  match
                    Client.request c
                      (Json.Obj
                         [
                           ("req", Json.String "solve");
                           ("digest", Json.String digest);
                           ("tau", Json.Int tau);
                         ])
                  with
                  | Ok reply ->
                      if
                        not
                          (Protocol.response_ok reply
                          ||
                          match Protocol.response_error reply with
                          | Some (Some Protocol.Overloaded, _) -> true
                          | _ -> false)
                      then incr failures
                  | Error _ -> incr failures
                done;
                Ok !failures))
      in
      let domains = List.init clients worker in
      let results = List.map Domain.join domains in
      List.iter
        (fun r ->
          match r with
          | Ok failures -> check_int "no hard failures" 0 failures
          | Error e -> Alcotest.fail e)
        results;
      (* Three distinct tau values across 20 requests: at least one
         cache hit is guaranteed. *)
      let stats = Service.cache_stats svc in
      check_bool "steady-state cache hits" true (stats.Plan_cache.hits > 0))

let test_e2e_oversized_request () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mcss-serve-big-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let svc = Service.create () in
  let config =
    {
      Server.default_config with
      Server.workers = 1;
      max_request_bytes = 1024;
      accept_tick_s = 0.05;
    }
  in
  let address = Server.Unix_socket path in
  let server = Domain.spawn (fun () -> Server.run ~config svc address) in
  let rec wait tries =
    if tries = 0 then Alcotest.fail "server never came up";
    match Client.connect address with
    | Ok c -> Client.close c
    | Error _ ->
        Unix.sleepf 0.02;
        wait (tries - 1)
  in
  wait 200;
  Fun.protect
    ~finally:(fun () ->
      (match
         Client.with_connection address (fun c ->
             Client.request c (Json.Obj [ ("req", Json.String "shutdown") ]))
       with
      | Ok _ | Error _ -> ());
      Domain.join server;
      (try Unix.unlink path with Unix.Unix_error _ -> ()))
    (fun () ->
      match
        Client.with_connection address (fun c ->
            (* 4 KiB of payload against a 1 KiB line limit. *)
            Client.request c
              (Json.Obj
                 [
                   ("req", Json.String "load");
                   ("workload", Json.String (String.make 4096 'x'));
                 ]))
      with
      | Ok reply -> (
          match Protocol.response_error reply with
          | Some (Some Protocol.Too_large, _) -> ()
          | _ ->
              Alcotest.failf "wanted too_large, got %s" (Json.to_string reply))
      | Error e -> Alcotest.fail e)

let suite =
  [
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json unicode escapes" `Quick test_json_unicode_escape;
    Alcotest.test_case "json rejects invalid" `Quick test_json_rejects;
    Alcotest.test_case "json accessors" `Quick test_json_accessors;
    Alcotest.test_case "protocol decode solve" `Quick test_protocol_decode_solve;
    Alcotest.test_case "protocol encode/decode inverse" `Quick
      test_protocol_encode_decode_inverse;
    Alcotest.test_case "protocol rejects" `Quick test_protocol_rejects;
    Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache replace promotes" `Quick test_cache_replace_promotes;
    Alcotest.test_case "cache rejects zero capacity" `Quick
      test_cache_rejects_zero_capacity;
    Alcotest.test_case "cache hit ratio" `Quick test_cache_hit_ratio;
    Alcotest.test_case "admission gate" `Quick test_admission_gate;
    Alcotest.test_case "admission with_slot" `Quick test_admission_with_slot;
    Alcotest.test_case "deadlines" `Quick test_deadline;
    Alcotest.test_case "service: solve cache" `Quick test_service_solve_cache;
    Alcotest.test_case "service: error mapping" `Quick test_service_errors;
    Alcotest.test_case "service: clean timeout" `Quick test_service_timeout_is_clean;
    Alcotest.test_case "service: shutdown drains" `Quick
      test_service_shutdown_drains;
    Alcotest.test_case "service: metrics exposition" `Quick
      test_service_metrics_exposition;
    Alcotest.test_case "e2e: unix-socket round trip" `Quick test_e2e_round_trip;
    Alcotest.test_case "e2e: concurrent clients" `Quick test_e2e_concurrent_clients;
    Alcotest.test_case "e2e: oversized request" `Quick test_e2e_oversized_request;
  ]
