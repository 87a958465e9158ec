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
module Workload = Mcss_workload.Workload
module Instance = Mcss_pricing.Instance
module Cost_model = Mcss_pricing.Cost_model
module Problem = Mcss_core.Problem
module Solver = Mcss_core.Solver
module Allocation = Mcss_core.Allocation
module Plan_io = Mcss_core.Plan_io
module Engine = Mcss_engine.Engine
module Delta_io = Mcss_engine.Delta_io
module Churn = Mcss_dynamic.Churn
module Front = Mcss_front.Front
module Journal = Mcss_serve.Journal
module Record = Mcss_serve.Record
module Registry = Mcss_obs.Registry
module Counter = Mcss_obs.Metric.Counter
module Rng = Mcss_prng.Rng

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

(* The codec against its verbatim predecessor ([Json_oracle]): the
   printer's bytes on random values, and the parser's value or exact
   error message on random, printed and mutated lines. *)

let json_float_gen =
  QCheck.Gen.(
    oneof
      [
        float;
        map float_of_int (int_range (-1_000_000) 1_000_000);
        map (fun n -> float_of_int n /. 8.) (int_range (-10_000) 10_000);
        oneofl
          [ 0.; -0.; 1e12; -1e12; 1e12 -. 1.; 1e12 +. 1.; -.(1e12 -. 1.); 999_999_999_999.5;
            1e15; -1e15; 1e17; 2. ** 53.; 5e-324; 2.2250738585072014e-308; 1e-310; 0.1;
            1. /. 3.; -2.5; max_float; min_float; nan; infinity; neg_infinity ];
      ])

let json_text_gen =
  QCheck.Gen.(
    oneof
      [
        string_size ~gen:printable (int_bound 10);
        string_size ~gen:char (int_bound 10);
        oneofl [ ""; "\x00"; "a\"b\\c"; "\n\r\t\x08\x0c\x1f\x7f"; "\xc3\xa9\xf0\x9f\x98\x80" ];
      ])

let json_value_gen =
  QCheck.Gen.(
    sized_size (int_bound 4)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun i -> Json.Int i) (oneof [ int; int_range (-1000) 1000 ]);
                 map (fun x -> Json.Float x) json_float_gen;
                 map (fun s -> Json.String s) json_text_gen;
               ]
           in
           if n = 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun xs -> Json.List xs) (list_size (int_bound 4) (self (n - 1))));
                 ( 1,
                   map
                     (fun fs -> Json.Obj fs)
                     (list_size (int_bound 4) (pair json_text_gen (self (n - 1)))) );
               ]))

(* Lines that reach the parser's corners: escapes cut short, surrogate
   pairs whole and broken, NUL bytes, numbers [float_of_string] reads
   but JSON does not, and garbage after a value. *)
let json_corner_lines =
  [ {|"\u12"|}; {|"\u"|}; {|"\u12zz"|}; {|"😀"|}; {|"\ud83dA"|}; {|"\ud83d"|};
    {|"\ud83d\ude0"|}; {|"\udc00"|}; {|"\u0000"|}; "\"a\x00b\""; "[\x00]"; {|"abc|}; {|"ab\|};
    {|"\x"|}; {|"\u_123"|}; {|"\u+123"|}; "1e999"; "-"; "+1"; "1.2.3"; "0x10"; "01"; ".5";
    {|{"a":1}x|}; "[1] 2"; "null garbage"; "tru"; "nul"; {|{"a" 1}|}; {|{1:2}|}; "[1,]";
    "{,}"; " \t\r\n "; "" ]

let json_line_gen =
  QCheck.Gen.(
    let* base =
      frequency
        [
          (3, map Json_oracle.to_string json_value_gen);
          (1, oneofl json_corner_lines);
          ( 1,
            string_size
              ~gen:(oneofl [ '{'; '}'; '['; ']'; ','; ':'; '"'; '\\'; 'u'; '1'; 'e'; '-'; ' '; 't'; 'n' ])
              (int_bound 12) );
        ]
    in
    let* edits = list_size (int_bound 3) (triple (int_bound 1000) (int_bound 2) char) in
    return
      (List.fold_left
         (fun line (at, kind, c) ->
           let n = String.length line in
           let i = if n = 0 then 0 else at mod n in
           match kind with
           | 0 -> String.sub line 0 i (* truncate *)
           | 1 -> String.sub line 0 i ^ String.make 1 c ^ String.sub line i (n - i)
           | _ when n = 0 -> line
           | _ -> String.sub line 0 i ^ String.sub line (i + 1) (n - i - 1))
         base edits))

let prop_json_print_matches_oracle =
  Helpers.qtest ~count:3000 "json printer = its predecessor"
    (QCheck.make ~print:Json_oracle.to_string json_value_gen)
    (fun v -> Json.to_string v = Json_oracle.to_string v)

let prop_json_parse_matches_oracle =
  Helpers.qtest ~count:5000 "json parser = its predecessor"
    (QCheck.make ~print:(Printf.sprintf "%S") json_line_gen)
    (fun line ->
      match (Json.parse line, Json_oracle.parse line) with
      | Ok a, Ok b -> compare a b = 0
      | Error a, Error b -> a = b
      | _ -> false)

let test_json_float_rendering () =
  List.iter
    (fun (x, want) -> check_string (Printf.sprintf "%h" x) want (Json.to_string (Json.Float x)))
    [ (0., "0"); (-0., "-0"); (3., "3"); (-3., "-3"); (999_999_999_999., "999999999999");
      (1e12, "1e+12"); (-1e12, "-1e+12"); (1e15, "1e+15"); (0.1, "0.1"); (5e-324, "4.94065645841e-324");
      (nan, "null"); (infinity, "null"); (neg_infinity, "null") ]

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

(* ----- workload digest ----- *)

(* The digest renderer as it was when journals first stored digests,
   verbatim: the bytes the service must keep hashing. *)
let printf_digest w =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "mcss-workload-digest 1\n";
  Buffer.add_string buf (string_of_int (Workload.num_topics w));
  Buffer.add_char buf ' ';
  Buffer.add_string buf (string_of_int (Workload.num_subscribers w));
  Buffer.add_char buf '\n';
  Array.iter
    (fun r ->
      Buffer.add_string buf (Printf.sprintf "%.17g" r);
      Buffer.add_char buf '\n')
    (Workload.event_rates w);
  for v = 0 to Workload.num_subscribers w - 1 do
    Array.iter
      (fun topic ->
        Buffer.add_string buf (string_of_int topic);
        Buffer.add_char buf ' ')
      (Workload.interests w v);
    Buffer.add_char buf '\n'
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_digest_pinned () =
  check_string "pinned digest" "532405f41d2f4029e6574f08371a8569"
    (Service.digest_of_workload (test_workload ()));
  check_string "old renderer" (printf_digest (test_workload ()))
    (Service.digest_of_workload (test_workload ()))

let test_digest_edge_cases () =
  List.iter
    (fun (name, w) -> check_string name (printf_digest w) (Service.digest_of_workload w))
    [
      ("no subscribers", Workload.create ~event_rates:[| 1.; 2. |] ~interests:[||]);
      ("empty interest rows", Helpers.workload ~rates:[ 3.; 4. ] ~interests:[ []; [ 0; 1 ]; [] ]);
      ( "extreme and fractional rates",
        Helpers.workload ~rates:[ 1e-300; 1e300; 0.1; 1. /. 3. ]
          ~interests:[ [ 0; 1; 2; 3 ]; [ 3 ] ] );
      ( "integral rates around 1e15 and 2^53",
        Helpers.workload
          ~rates:[ 1.; 999_999_999_999_999.; 1e15; 1e15 +. 1.; 2. ** 53.; 1e17; 2.5; max_float ]
          ~interests:[ [ 0; 7 ]; [ 1; 2; 3; 4; 5; 6 ] ] );
      ( "multi-digit topic ids",
        Workload.create ~event_rates:(Array.make 123_457 1.)
          ~interests:[| [| 9; 10; 99; 100; 12_345; 123_456 |]; [||]; [| 0 |] |] );
    ]

let rate_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> float_of_int (1 + n)) (int_bound 1_000_000);
        map (fun n -> float_of_int n /. 7.) (int_range 1 10_000);
        map2
          (fun m e -> Float.ldexp (1. +. m) e)
          (float_bound_inclusive 1.) (int_range (-1000) 1000);
      ])

let prop_digest_matches_printf =
  Helpers.qtest ~count:300 "digest = printf renderer on random workloads"
    QCheck.(
      make ~print:(Format.asprintf "%a" Workload.pp_summary)
        Gen.(
          let* nt = int_range 1 30 in
          let* rates = array_size (return nt) rate_gen in
          let* ns = int_range 0 30 in
          let* rows = array_size (return ns) (list_size (int_bound 6) (int_bound (nt - 1))) in
          return
            (Workload.create ~event_rates:rates
               ~interests:(Array.map (fun l -> Array.of_list (List.sort_uniq compare l)) rows))))
    (fun w -> Service.digest_of_workload w = printf_digest w)

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

(* ----- the served update path ----- *)

(* A tiny Spotify trace at a capacity that needs several VMs, under the
   params the requests below carry. [bc] is the value the service parses
   back from the request line, so the cache keys agree. *)
let update_scale = 0.0005

let update_params =
  let instance = Option.get (Instance.find Protocol.default_params.Protocol.instance) in
  let bc =
    float_of_string (Json.to_string (Json.Float (Front.bc_events ~scale:update_scale instance)))
  in
  { Protocol.default_params with Protocol.tau = 50.; bc_events = Some bc }

let params_fields (p : Protocol.solve_params) =
  [
    ("tau", Json.Float p.Protocol.tau);
    ("bc_events", Json.Float (Option.get p.Protocol.bc_events));
  ]

let solve_req digest =
  Json.to_string
    (Json.Obj
       (("req", Json.String "solve") :: ("digest", Json.String digest)
       :: params_fields update_params))

let update_req digest deltas =
  Json.to_string
    (Json.Obj
       (("req", Json.String "update") :: ("digest", Json.String digest)
       :: ("deltas", Json.String deltas) :: params_fields update_params))

let journaled dir =
  { Service.default_config with Service.journal = Some (Journal.default_config ~dir) }

(* The update path as it was before entries adopted their own
   allocation, verbatim: decode the base plan text, adopt it, apply the
   batch, encode, and decode the new text into the cache entry. Returns
   the evolved workload, its digest, the new plan text and what the
   reply reports: VMs and cost. *)
let decode_path_update ~w ~text (params : Protocol.solve_params) deltas =
  let instance = Option.get (Instance.find params.Protocol.instance) in
  let model = Cost_model.ec2_2014 ~instance () in
  let p =
    Problem.of_pricing ?capacity_events:params.Protocol.bc_events ~workload:w
      ~tau:params.Protocol.tau model
  in
  let config =
    Option.value ~default:Solver.default (Solver.config_of_name params.Protocol.config)
  in
  let allocation, selection = Plan_io.of_string ~workload:w text in
  let eng = Engine.of_plan ~config { Engine.problem = p; selection; allocation } in
  ignore (Engine.apply eng (Delta_io.of_string deltas));
  let p' = Engine.problem eng in
  let w' = p'.Problem.workload in
  let text' = Plan_io.to_string (Engine.plan eng).Engine.allocation in
  let allocation', _ = Plan_io.of_string ~workload:w' text' in
  let vms = Allocation.num_vms allocation' in
  let cost = Problem.cost p' ~vms ~bandwidth:(Allocation.total_load allocation') in
  (w', printf_digest w', text', vms, cost)

let float_field reply key =
  match Option.bind (Json.member key reply) Json.to_float_opt with
  | Some f -> f
  | None -> Alcotest.failf "reply lacks number %S: %s" key (Json.to_string reply)

let int_field reply key =
  match Option.bind (Json.member key reply) Json.to_int_opt with
  | Some n -> n
  | None -> Alcotest.failf "reply lacks int %S: %s" key (Json.to_string reply)

let cached_text svc digest =
  match Service.cached_plan svc ~digest update_params with
  | Some r -> Plan_io.to_string r.Solver.allocation
  | None -> Alcotest.failf "no cached plan for %s" digest

(* A served plan: its workload, that workload's digest and the plan's
   canonical text (whose MD5 is the plan_digest). *)
type served = { w : Workload.t; digest : string; text : string }

let plan_digest_of u = Digest.to_hex (Digest.string u.text)

(* Serve one update from [base] and check the reply and the cached plan
   against the decode path. *)
let checked_update svc name base deltas =
  let reply = ok_reply name (Service.handle_line svc (update_req base.digest deltas)) in
  let w', digest', text', vms, cost =
    decode_path_update ~w:base.w ~text:base.text update_params deltas
  in
  check_string (name ^ ": digest") digest' (str_field reply "digest");
  check_string (name ^ ": plan_digest")
    (Digest.to_hex (Digest.string text')) (str_field reply "plan_digest");
  check_int (name ^ ": vms") vms (int_field reply "vms");
  check_bool (name ^ ": cost_usd") true (cost = float_field reply "cost_usd");
  check_string (name ^ ": cached allocation") text' (cached_text svc digest');
  { w = w'; digest = digest'; text = text' }

let churn_tick ~churn rng name svc base =
  checked_update svc name base
    (Delta_io.to_string (Churn.tick rng (Churn.scaled churn) base.w))

(* Load and solve a trace, then serve [ticks] churn batches as a chain,
   each from the previous update's digest, checking each reply against
   the decode path. Returns the service, the churn stream and, per
   update, what it served. *)
let churned_service ?(churn = 0.05) ~dir ~seed ~ticks () =
  let w0 = Front.generate ~seed `Spotify ~scale:update_scale in
  let svc = Service.create ~config:(journaled dir) () in
  let digest0 = Service.load_workload svc w0 in
  let r0 = ok_reply "base solve" (Service.handle_line svc (solve_req digest0)) in
  let base = { w = w0; digest = digest0; text = cached_text svc digest0 } in
  check_string "base plan_digest hashes the cached plan" (plan_digest_of base)
    (str_field r0 "plan_digest");
  let rng = Rng.create seed in
  let rec go i u acc =
    if i = ticks then List.rev acc
    else
      let u' = churn_tick ~churn rng (Printf.sprintf "seed %d tick %d" seed i) svc u in
      go (i + 1) u' (u' :: acc)
  in
  (svc, rng, go 0 base [])

(* Restart over [dir]'s journal: every update replays, nothing is
   skipped, and every served plan is back as a cache hit with the same
   plan_digest and cached text, without a solver run. *)
let check_restart dir ~updates served =
  let svc = Service.create ~config:(journaled dir) () in
  (match Service.replay_stats svc with
  | Some r ->
      check_int "every update replayed" updates r.Service.updates_replayed;
      check_int "nothing skipped" 0 r.Service.records_skipped
  | None -> Alcotest.fail "no replay stats");
  List.iter
    (fun u ->
      let r = ok_reply "post-restart solve" (Service.handle_line svc (solve_req u.digest)) in
      check_bool "restart: cache hit" true (bool_field r "cached");
      check_string "restart: same plan_digest" (plan_digest_of u) (str_field r "plan_digest");
      check_string "restart: same cached plan" u.text (cached_text svc u.digest))
    served;
  check_int "restart: no solver run" 0 (Service.solver_runs svc);
  Service.close svc

let test_update_matches_decode_path () =
  List.iter
    (fun seed ->
      Helpers.with_dir (fun dir ->
          let svc, _, updates = churned_service ~dir ~seed ~ticks:30 () in
          Service.close svc;
          check_restart dir ~updates:30 updates))
    [ 1; 2; 3 ]

let counter svc name =
  List.fold_left
    (fun acc s ->
      match s.Registry.metric with
      | Registry.Counter c when s.Registry.name = name -> Counter.value c
      | _ -> acc)
    0 (Registry.samples (Service.obs svc))

(* The resident engine (kept behind the last update) against the
   re-adopting decode path, where the two can part: a long chain, where
   every update but the first reuses the engine; branches from an older
   digest, which re-adopt their base plan and make the branch resident;
   a return to the chain's tip; and a rejected batch, which drops the
   resident engine so the next update re-adopts. A restart then replays
   every update through the re-adopting path alone. The churn is heavy
   enough that the pairs churned along the chain would trip the drift
   re-solve, were the resident engine's drift counter not reset per
   update as [of_plan]'s is. *)
let test_update_resident_engine () =
  Helpers.with_dir (fun dir ->
      let churn = 0.3 in
      let svc, rng, chain = churned_service ~churn ~dir ~seed:5 ~ticks:32 () in
      let tick name u = churn_tick ~churn rng name svc u in
      let old = List.nth chain 9 and tip = List.nth chain 31 in
      let b1 = tick "branch from tick 9" old in
      let b2 = tick "branch, chained" b1 in
      let b3 = tick "second branch from tick 9" old in
      let t1 = tick "back to the chain tip" tip in
      let bad =
        Delta_io.to_string
          [ Mcss_engine.Delta.Rate_change { topic = Workload.num_topics t1.w; rate = 1. } ]
      in
      let r = Service.handle_line svc (update_req t1.digest bad) in
      check_bool "bad batch rejected" false (Protocol.response_ok r);
      check_string "bad batch: bad_request" "bad_request" (str_field r "error");
      let t2 = tick "after the rejected batch" t1 in
      let t3 = tick "after the rejected batch, chained" t2 in
      (* Chain ticks 1..31, [b2] and [t3] ran on the resident engine. *)
      check_int "updates served by the resident engine" 33
        (counter svc "serve.updates.resident");
      check_int "updates applied" 38 (counter svc "serve.updates.applied");
      Service.close svc;
      check_restart dir ~updates:38 (chain @ [ b1; b2; b3; t1; t2; t3 ]))

(* The served digest, rendered against the previous update's rendering
   (every run of shared rows one blit), against a from-scratch rendering
   of the workload the client evolved. Each case serves a chain of churn
   batches with extra new topics, new subscribers and fractional rates,
   then a branch from an older digest (a non-resident update, which
   still renders against the last rendering) and one update chained on
   the branch. *)
let prop_incremental_digest =
  Helpers.qtest ~count:500 "served update digest = full digest of the evolved workload"
    QCheck.(
      make
        ~print:(fun (seed, nt, ns, ticks, branch) ->
          Printf.sprintf "seed %d, %d topics, %d subscribers, %d ticks, branch from %d" seed nt
            ns ticks branch)
        Gen.(
          let* seed = int_bound 1_000_000 in
          let* nt = int_range 1 25 in
          let* ns = int_range 1 40 in
          let* ticks = int_range 1 5 in
          let* branch = int_bound (ticks - 1) in
          return (seed, nt, ns, ticks, branch)))
    (fun (seed, num_topics, num_subscribers, ticks, branch) ->
      let rng = Rng.create seed in
      let w0 =
        Helpers.random_workload rng ~num_topics ~num_subscribers ~max_rate:50 ~max_interests:6
      in
      let svc = Service.create () in
      let params = [ ("tau", Json.Float 50.); ("bc_events", Json.Int 10_000) ] in
      let request verb digest extra =
        Json.to_string
          (Json.Obj ((("req", Json.String verb) :: ("digest", Json.String digest) :: extra) @ params))
      in
      let digest0 = Service.load_workload svc w0 in
      let solved = Protocol.response_ok (Service.handle_line svc (request "solve" digest0 [])) in
      let fractional () = float_of_int (1 + Rng.int rng 700) /. 7. in
      (* Serve one batch from [(w, digest)]; the evolved pair, if the
         served digest is the full rendering's. *)
      let step (w, digest) =
        let churn = Churn.tick rng (Churn.scaled 0.05) w in
        let nt =
          Workload.num_topics w
          + List.length (List.filter (function Mcss_engine.Delta.New_topic _ -> true | _ -> false) churn)
        in
        let ds =
          churn
          @ [
              Mcss_engine.Delta.Rate_change { topic = Rng.int rng nt; rate = fractional () };
              Mcss_engine.Delta.New_topic { rate = fractional () };
              Mcss_engine.Delta.New_subscriber { interests = [| nt; Rng.int rng nt |] };
            ]
        in
        let reply =
          Service.handle_line svc
            (request "update" digest [ ("deltas", Json.String (Delta_io.to_string ds)) ])
        in
        let w' = Mcss_engine.Delta.apply w ds in
        let full = printf_digest w' in
        match Option.bind (Json.member "digest" reply) Json.to_string_opt with
        | Some d when d = full && Service.digest_of_workload w' = full -> Some (w', d)
        | _ -> None
      in
      let rec chain acc i =
        if i = ticks then Some (List.rev acc)
        else Option.bind (step (List.hd acc)) (fun u -> chain (u :: acc) (i + 1))
      in
      let ok =
        solved
        &&
        match chain [ (w0, digest0) ] 0 with
        | None -> false
        | Some served ->
            Option.is_some (Option.bind (step (List.nth served branch)) step)
            && counter svc "serve.updates.resident" = ticks
      in
      Service.close svc;
      ok)

(* Minor words one cache-hit read allocates: [handle_line] of a [solve]
   line plus the rendering of its reply, averaged over 1000 reads after a
   warm-up. It measured 583 words a read, where the JSON codec, the
   [Printf]-built cache key and the [sprintf]-built metric names this
   bound guards against took 1,573. *)
let read_words_bound = 800.

let test_read_allocation () =
  let w = Front.generate ~seed:5 `Spotify ~scale:update_scale in
  let svc = Service.create () in
  let digest = Service.load_workload svc w in
  let line = solve_req digest in
  let read () = String.length (Json.to_string (Service.handle_line svc line)) in
  let bytes = read () + read () in
  let reads = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to reads do
    ignore (read ())
  done;
  let per_read = (Gc.minor_words () -. before) /. float_of_int reads in
  Service.close svc;
  check_bool "reads were answered" true (bytes > 0);
  if per_read > read_words_bound then
    Alcotest.failf "a cache-hit read allocates %.0f minor words, bound %.0f" per_read
      read_words_bound

(* "parallel" is the default config with Stage 1 and the CBP transpose
   on every recommended domain: the same plan as "(e) +cost-decision",
   and the same evolved workload and plan after one update from it. *)
let test_parallel_config () =
  let w = Front.generate ~seed:7 `Spotify ~scale:update_scale in
  let deltas = Delta_io.to_string (Churn.tick (Rng.create 7) (Churn.scaled 0.05) w) in
  let served config =
    let svc = Service.create () in
    let digest = Service.load_workload svc w in
    let req verb extra =
      Json.to_string
        (Json.Obj
           ((("req", Json.String verb) :: ("digest", Json.String digest) :: extra)
           @ (("config", Json.String config) :: params_fields update_params)))
    in
    let solved = ok_reply (config ^ ": solve") (Service.handle_line svc (req "solve" [])) in
    let updated =
      ok_reply (config ^ ": update")
        (Service.handle_line svc (req "update" [ ("deltas", Json.String deltas) ]))
    in
    Service.close svc;
    List.map (str_field solved) [ "plan_digest" ]
    @ List.map (str_field updated) [ "digest"; "plan_digest" ]
  in
  Alcotest.(check (list string))
    "solve plan_digest, update digest and plan_digest"
    (served "(e) +cost-decision") (served "parallel")

(* ... and both names key one cache entry: whichever is asked first
   solves, the other is a hit on the same plan, with one solver run. *)
let test_parallel_config_shares_cache () =
  let w = Front.generate ~seed:7 `Spotify ~scale:update_scale in
  List.iter
    (fun (first, second) ->
      let svc = Service.create () in
      let digest = Service.load_workload svc w in
      let solve config =
        ok_reply (config ^ ": solve")
          (Service.handle_line svc
             (Json.to_string
                (Json.Obj
                   (("req", Json.String "solve") :: ("digest", Json.String digest)
                   :: ("config", Json.String config) :: params_fields update_params))))
      in
      let r1 = solve first and r2 = solve second in
      check_bool (first ^ " first: cold") false (bool_field r1 "cached");
      check_bool (second ^ " second: cache hit") true (bool_field r2 "cached");
      check_string "same plan_digest" (str_field r1 "plan_digest") (str_field r2 "plan_digest");
      check_int "one solver run" 1 (Service.solver_runs svc);
      let body =
        str_field (ok_reply "metrics" (Service.handle_line svc {|{"req":"metrics"}|})) "body"
      in
      check_bool "metrics: mcss_serve_solver_runs 1" true
        (List.mem "mcss_serve_solver_runs 1" (String.split_on_char '\n' body));
      Service.close svc)
    [ ("(e) +cost-decision", "parallel"); ("parallel", "(e) +cost-decision") ]

let test_old_journal_replays () =
  Helpers.with_dir (fun dir ->
      Helpers.with_dir (fun old_dir ->
          let svc, _, updates = churned_service ~dir ~seed:4 ~ticks:6 () in
          Service.close svc;
          let records =
            let j, replay = Journal.open_ (Journal.default_config ~dir) in
            Journal.close j;
            replay.Journal.records
          in
          (* Rewrite it in the old shape: a load record of the evolved
             workload, as the old encoder wrote it, before each update
             record. *)
          let j, _ = Journal.open_ (Journal.default_config ~dir:old_dir) in
          let loads = ref 0 in
          List.iter
            (fun (epoch, payload) ->
              (match Record.of_string payload with
              | Some (Record.Update { new_digest = digest; _ }) ->
                  let { w; _ } = List.find (fun u -> u.digest = digest) updates in
                  incr loads;
                  Journal.append ~epoch j
                    (Record_oracle.load_op ~origin:"node" digest (Wio.to_string w))
              | _ -> ());
              Journal.append ~epoch j payload)
            records;
          Journal.close j;
          check_int "one load per update" 6 !loads;
          let fresh = Service.create ~config:(journaled dir) () in
          let old = Service.create ~config:(journaled old_dir) () in
          (match (Service.replay_stats fresh, Service.replay_stats old) with
          | Some a, Some b ->
              check_int "old shape: nothing skipped" 0 b.Service.records_skipped;
              check_int "new shape: nothing skipped" 0 a.Service.records_skipped;
              check_int "same updates" a.Service.updates_replayed b.Service.updates_replayed;
              check_int "old shape: its loads recovered" (a.Service.workloads_recovered + 6)
                b.Service.workloads_recovered
          | _ -> Alcotest.fail "no replay stats");
          (* The same workloads, cache keys and plans: the full states
             match record for record. *)
          let state svc =
            let _, _, records = Service.sync_state svc in
            List.sort compare records
          in
          check_bool "same full state" true (state fresh = state old);
          List.iter
            (fun u ->
              List.iter
                (fun svc ->
                  let r = ok_reply "replayed solve" (Service.handle_line svc (solve_req u.digest)) in
                  check_bool "replayed: cache hit" true (bool_field r "cached");
                  check_string "replayed: plan_digest" (plan_digest_of u)
                    (str_field r "plan_digest"))
                [ fresh; old ])
            updates;
          Service.close fresh;
          Service.close old))

(* ----- the journal record codec ----- *)

(* A record's fields, floats by their bits, for field-for-field
   comparison. *)
let record_fields = function
  | None -> [ "rejected" ]
  | Some r ->
      let f = Printf.sprintf "%h" and opt = Option.value ~default:"(none)" in
      let params (p : Protocol.solve_params) =
        [
          f p.Protocol.tau;
          p.Protocol.instance;
          p.Protocol.config;
          opt (Option.map f p.Protocol.bc_events);
        ]
      in
      (match r with
      | Record.Load { origin; digest; wio } -> [ "load"; opt origin; digest; wio ]
      | Record.Plan p ->
          [ "plan"; opt p.origin; p.digest ]
          @ params p.params
          @ [ p.plan ]
          @ List.map f
              [ p.bandwidth; p.bandwidth_gb; p.cost; p.stage1_s; p.stage2_s; p.solve_s ]
      | Record.Update u ->
          [ "update"; opt u.origin; u.digest ]
          @ params u.params @ [ u.deltas; u.new_digest ])

let record_float_gen =
  QCheck.Gen.(
    oneof
      [
        float;
        map float_of_int (int_range (-5) 1_000_000);
        oneofl [ 0.; -0.; 0.1; 1. /. 3.; 1e-310; max_float; infinity; neg_infinity; nan ];
      ])

let record_text_gen =
  QCheck.Gen.(
    oneof
      [
        string_size ~gen:printable (int_bound 12);
        oneofl [ ""; "a\"b"; "line\nbreak"; "\xc3\xa9t\xc3\xa9"; "(e) +cost-decision" ];
      ])

let record_gen =
  QCheck.Gen.(
    let* origin = frequency [ (4, map Option.some record_text_gen); (1, return None) ] in
    let* digest = record_text_gen in
    let* params =
      let* tau = record_float_gen in
      let* instance = record_text_gen in
      let* config = record_text_gen in
      let* bc_events = opt record_float_gen in
      return { Protocol.tau; instance; config; bc_events }
    in
    let* text = record_text_gen and* text' = record_text_gen in
    let* floats = array_size (return 6) record_float_gen in
    oneofl
      [
        Record.Load { origin; digest; wio = text };
        Record.Plan
          {
            origin;
            digest;
            params;
            plan = text;
            bandwidth = floats.(0);
            bandwidth_gb = floats.(1);
            cost = floats.(2);
            stage1_s = floats.(3);
            stage2_s = floats.(4);
            solve_s = floats.(5);
          };
        Record.Update { origin; digest; params; deltas = text; new_digest = text' };
      ])

(* Edits to an encoded record: drop, retype or duplicate a field (the
   first of two duplicates is the one read), cut the line short, or
   wrap it in a list. *)
type record_edit =
  | Drop of string
  | Set of string * Json.t
  | Dup of string * Json.t
  | Truncate of int
  | Wrap

let record_keys =
  [ "op"; "origin"; "digest"; "wio"; "tau"; "instance"; "config"; "bc"; "plan";
    "bandwidth"; "bandwidth_gb"; "cost"; "stage1_s"; "stage2_s"; "solve_s";
    "deltas"; "new_digest" ]

let record_value_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> Json.String s)
          (oneofl [ "nan"; "0x1p3"; "1_0"; "inf"; "-0"; ""; "abc"; "1e999"; " 1"; "0x";
                    "load"; "plan"; "update"; "snapshot" ]);
        map (fun n -> Json.Int n) (int_range (-3) 1000);
        map (fun x -> Json.Float x) record_float_gen;
        oneofl [ Json.Null; Json.Bool true; Json.List [ Json.Int 1 ]; Json.Obj [] ];
      ])

let record_edit_gen =
  QCheck.Gen.(
    let key = oneofl record_keys in
    frequency
      [
        (3, map (fun k -> Drop k) key);
        (4, map2 (fun k v -> Set (k, v)) key record_value_gen);
        (1, map2 (fun k v -> Dup (k, v)) key record_value_gen);
        (1, map (fun n -> Truncate n) nat);
        (1, return Wrap);
      ])

let edit_record line edit =
  let fields f =
    match Json.parse line with
    | Ok (Json.Obj fs) -> Json.to_string (Json.Obj (f fs))
    | _ -> line
  in
  match edit with
  | Drop k -> fields (List.filter (fun (k', _) -> k' <> k))
  | Set (k, v) ->
      fields (fun fs ->
          if List.mem_assoc k fs then List.map (fun (k', v') -> (k', if k' = k then v else v')) fs
          else fs @ [ (k, v) ])
  | Dup (k, v) -> fields (fun fs -> (k, v) :: fs)
  | Truncate n -> String.sub line 0 (n mod max 1 (String.length line))
  | Wrap -> "[" ^ line ^ "]"

let prop_record_codec_matches_oracle =
  Helpers.qtest ~count:3000 "record codec = old encoders and decoder"
    QCheck.(
      make
        ~print:(fun (r, edits) ->
          Printf.sprintf "%s\nedited: %s" (Record.to_string r)
            (List.fold_left edit_record (Record.to_string r) edits))
        Gen.(pair record_gen (list_size (int_bound 3) record_edit_gen)))
    (fun (r, edits) ->
      let line = Record.to_string r in
      let edited = List.fold_left edit_record line edits in
      (match Record_oracle.encode r with None -> true | Some old -> old = line)
      && record_fields (Record.of_string line) = record_fields (Some r)
      && record_fields (Record.of_string edited)
         = record_fields (Record_oracle.decode edited))

(* WAL cost of one 10-delta update at a trace scale: (records, bytes). *)
let update_wal_cost scale =
  Helpers.with_dir (fun dir ->
      let w = Front.generate ~seed:5 `Spotify ~scale in
      let svc = Service.create ~config:(journaled dir) () in
      let digest = Service.load_workload svc w in
      let request verb fields =
        Json.to_string
          (Json.Obj
             (("req", Json.String verb) :: ("digest", Json.String digest)
             :: ("tau", Json.Float 50.) :: fields))
      in
      ignore (ok_reply "solve" (Service.handle_line svc (request "solve" [])));
      let ds = List.filteri (fun i _ -> i < 10) (Churn.tick (Rng.create 5) Churn.default w) in
      check_int "a 10-delta batch" 10 (List.length ds);
      let records = counter svc "serve.journal.appends"
      and bytes = counter svc "serve.journal.append_bytes" in
      ignore
        (ok_reply "update"
           (Service.handle_line svc
              (request "update" [ ("deltas", Json.String (Delta_io.to_string ds)) ])));
      let cost =
        ( counter svc "serve.journal.appends" - records,
          counter svc "serve.journal.append_bytes" - bytes )
      in
      Service.close svc;
      cost)

let test_update_wal_cost () =
  let small_records, small = update_wal_cost 0.0005 in
  let big_records, big = update_wal_cost 0.002 in
  check_int "one record per update" 1 small_records;
  check_int "one record per update, 4x the workload" 1 big_records;
  if small >= 4096 || big >= 4096 then
    Alcotest.failf "update records of %d and %d bytes, want < 4 KiB" small big;
  (* The batch's ids get no longer than a digit or two per delta. *)
  if big - small >= 64 then
    Alcotest.failf "update record grew with the workload: %d -> %d bytes" small big

(* Replaying update records is not client traffic: a restart leaves the
   plan cache's hit and miss counters at zero, and the first client
   solve at an evolved digest is the first hit. *)
let test_replay_counts_no_cache_traffic () =
  Helpers.with_dir (fun dir ->
      let svc, _, updates = churned_service ~dir ~seed:4 ~ticks:2 () in
      Service.close svc;
      let svc = Service.create ~config:(journaled dir) () in
      let stats () = Service.cache_stats svc in
      check_int "replay counts no hits" 0 (stats ()).Plan_cache.hits;
      check_int "replay counts no misses" 0 (stats ()).Plan_cache.misses;
      let evolved = List.nth updates 1 in
      let r = ok_reply "solve at the evolved digest"
          (Service.handle_line svc (solve_req evolved.digest))
      in
      check_bool "served from the replayed cache" true (bool_field r "cached");
      check_int "the client's solve is the one hit" 1 (stats ()).Plan_cache.hits;
      check_int "and no miss" 0 (stats ()).Plan_cache.misses;
      Service.close svc)

(* A served chaos drill is the passive [Orchestrator.evaluate] of the
   cached plan under the request's campaign and epochs, with every other
   policy field at its default. *)
let test_chaos_matches_evaluate () =
  let module Failure_model = Mcss_resilience.Failure_model in
  let module Orchestrator = Mcss_resilience.Orchestrator in
  let module Sla = Mcss_resilience.Sla in
  let w = Front.generate ~seed:3 `Spotify ~scale:update_scale in
  let svc = Service.create () in
  let digest = Service.load_workload svc w in
  ignore (ok_reply "solve" (Service.handle_line svc (solve_req digest)));
  let faults = [ "crash:0@0.6"; "zone:1@1.2+0.4"; "throttle:2@0.2-1.8*0.5" ] in
  let seed = 7 and epochs = 5 and zones = 2 in
  let reply =
    ok_reply "chaos"
      (Service.handle_line svc
         (Json.to_string
            (Json.Obj
               ([
                  ("req", Json.String "chaos");
                  ("digest", Json.String digest);
                  ("seed", Json.Int seed);
                  ("epochs", Json.Int epochs);
                  ("zones", Json.Int zones);
                  ("faults", Json.List (List.map (fun f -> Json.String f) faults));
                ]
               @ params_fields update_params))))
  in
  check_bool "plan_cached" true (bool_field reply "plan_cached");
  let campaign =
    {
      Failure_model.seed;
      faults =
        List.map (fun f -> Result.get_ok (Failure_model.fault_of_string f)) faults;
    }
  in
  let instance = Option.get (Instance.find update_params.Protocol.instance) in
  let p =
    Problem.of_pricing ?capacity_events:update_params.Protocol.bc_events ~workload:w
      ~tau:update_params.Protocol.tau
      (Cost_model.ec2_2014 ~instance ())
  in
  let plan = Option.get (Service.cached_plan svc ~digest update_params) in
  let sla =
    Orchestrator.evaluate
      ~policy:{ Orchestrator.default_policy with Orchestrator.epochs }
      ~zones ~campaign p plan.Solver.allocation
  in
  let same key want =
    check_string key (Json.to_string want)
      (Json.to_string (Option.get (Json.member key reply)))
  in
  same "delivered_fraction" (Json.Float sla.Sla.delivered_fraction);
  same "violation_hours" (Json.Float sla.Sla.violation_hours);
  same "violation_epochs" (Json.Int sla.Sla.violation_epochs);
  same "lost_events" (Json.Int sla.Sla.lost_events);
  same "worst_epoch_violations" (Json.Int sla.Sla.worst_epoch_violations);
  check_bool "the drill lost events" true (sla.Sla.lost_events > 0);
  Service.close svc

let suite =
  [
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json unicode escapes" `Quick test_json_unicode_escape;
    Alcotest.test_case "json rejects invalid" `Quick test_json_rejects;
    Alcotest.test_case "json accessors" `Quick test_json_accessors;
    Alcotest.test_case "json float rendering" `Quick test_json_float_rendering;
    prop_json_print_matches_oracle;
    prop_json_parse_matches_oracle;
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
    Alcotest.test_case "digest: pinned" `Quick test_digest_pinned;
    Alcotest.test_case "digest: edge cases" `Quick test_digest_edge_cases;
    prop_digest_matches_printf;
    Alcotest.test_case "update: decode-path differential + restart" `Quick
      test_update_matches_decode_path;
    Alcotest.test_case "update: resident engine = of_plan path, branches, rejects"
      `Quick test_update_resident_engine;
    prop_incremental_digest;
    Alcotest.test_case "update: old-shape journal replays" `Quick test_old_journal_replays;
    Alcotest.test_case "cache-hit read allocation bound" `Quick test_read_allocation;
    prop_record_codec_matches_oracle;
    Alcotest.test_case "update: one small WAL record" `Quick test_update_wal_cost;
    Alcotest.test_case "update: replay is not cache traffic" `Quick
      test_replay_counts_no_cache_traffic;
    Alcotest.test_case "chaos: reply = Orchestrator.evaluate" `Quick
      test_chaos_matches_evaluate;
    Alcotest.test_case "parallel config = (e) +cost-decision" `Quick test_parallel_config;
    Alcotest.test_case "parallel and (e) +cost-decision share one cache entry" `Quick
      test_parallel_config_shares_cache;
  ]
