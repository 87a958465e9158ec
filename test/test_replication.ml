(* The replicated, sharded planning service: absolute journal indices
   and point-in-time seeks, leader-to-follower journal streaming (tail
   and full-snapshot resync), follower takeover after a leader crash,
   the consistent-hash ring, the fault-tolerant router's failover and
   no_quorum shedding, and the whole replication link driven through the
   byte-mangling Faulty proxy. *)

module Json = Mcss_json.Json
module Protocol = Mcss_serve.Protocol
module Service = Mcss_serve.Service
module Server = Mcss_serve.Server
module Client = Mcss_serve.Client
module Journal = Mcss_serve.Journal
module Retry = Mcss_serve.Retry
module Faulty = Mcss_serve.Faulty
module Replication = Mcss_serve.Replication
module Ring = Mcss_serve.Ring
module Router = Mcss_serve.Router
module Rng = Mcss_prng.Rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

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

let expect_code name code reply =
  match Protocol.response_error reply with
  | Some (Some c, _) when c = code -> ()
  | _ ->
      Alcotest.failf "%s: wanted %s, got %s" name
        (Protocol.error_code_to_string code)
        (Json.to_string reply)

let with_dir f = Helpers.with_dir ~prefix:"mcss-repl" f

let journaled_config ?(snapshot_every = 256) ?(fsync = true) dir =
  {
    Service.default_config with
    Service.journal =
      Some
        {
          (Journal.default_config ~dir) with
          Journal.snapshot_every = snapshot_every;
          fsync;
        };
  }

let solve_line digest tau =
  Printf.sprintf {|{"req":"solve","digest":"%s","tau":%d}|} digest tau

let wait_until ?(timeout_s = 15.) ~what pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.01;
      go ()
    end
  in
  go ()

(* ----- journal: absolute indices, seeks, forensics ----- *)

let test_journal_indices () =
  with_dir (fun dir ->
      let config = { (Journal.default_config ~dir) with Journal.snapshot_every = 0 } in
      let j, _ = Journal.open_ config in
      check_int "fresh base" 0 (Journal.base_index j);
      check_int "fresh last" 0 (Journal.last_index j);
      Journal.append j "a";
      Journal.append j "b";
      Journal.append j "c";
      check_int "last counts appends" 3 (Journal.last_index j);
      Journal.snapshot j [ "S1"; "S2" ];
      check_int "snapshot advances base to the folded point" 3
        (Journal.base_index j);
      check_int "last unchanged by the fold" 3 (Journal.last_index j);
      check_int "WAL reset" 0 (Journal.wal_records j);
      Journal.append j "d";
      check_int "appends continue past the fold" 4 (Journal.last_index j);
      Journal.close j;
      (* Indices are durable: a restart reads base.mcssj back. *)
      let j2, replay = Journal.open_ config in
      check_int "base survives restart" 3 (Journal.base_index j2);
      check_int "last survives restart" 4 (Journal.last_index j2);
      check_bool "snapshot then WAL on replay" true
        (replay.Journal.records = [ (0, "S1"); (0, "S2"); (0, "d") ]);
      Journal.close j2)

let test_journal_read_from () =
  with_dir (fun dir ->
      let config = { (Journal.default_config ~dir) with Journal.snapshot_every = 0 } in
      let j, _ = Journal.open_ config in
      Journal.append j "a";
      Journal.append j "b";
      Journal.append j "c";
      check_bool "full tail from 0" true
        (Journal.read_from j ~index:0
        = Ok [ (1, 0, "a"); (2, 0, "b"); (3, 0, "c") ]);
      check_bool "mid tail" true
        (Journal.read_from j ~index:2 = Ok [ (3, 0, "c") ]);
      check_bool "caught up" true (Journal.read_from j ~index:3 = Ok []);
      check_bool "future index needs resync" true
        (Journal.read_from j ~index:4 = Error `Resync);
      Journal.snapshot j [ "S" ];
      check_bool "pre-base index needs resync" true
        (Journal.read_from j ~index:2 = Error `Resync);
      check_bool "base itself is servable" true
        (Journal.read_from j ~index:3 = Ok []);
      Journal.append j "d";
      check_bool "post-fold append indexed absolutely" true
        (Journal.read_from j ~index:3 = Ok [ (4, 0, "d") ]);
      let seen = ref [] in
      (match
         Journal.iter_from j ~index:3 (fun ~index ~epoch:_ p ->
             seen := (index, p) :: !seen)
       with
      | Ok n -> check_int "iter_from reports count" 1 n
      | Error `Resync -> Alcotest.fail "iter_from should serve the tail");
      check_bool "iter_from visits the tail" true (!seen = [ (4, "d") ]);
      (match Journal.install_snapshot j ~base:(-1) ~epoch:0 [] with
      | () -> Alcotest.fail "negative base must be rejected"
      | exception Invalid_argument _ -> ());
      Journal.close j)

let test_journal_install_snapshot () =
  with_dir (fun dir ->
      let config = { (Journal.default_config ~dir) with Journal.snapshot_every = 0 } in
      let j, _ = Journal.open_ config in
      Journal.append j "local-1";
      Journal.append j "local-2";
      (* A follower resync: whatever was here is replaced wholesale by
         the leader's state, positioned at the leader's index. *)
      Journal.install_snapshot j ~base:7 ~epoch:3 [ "s1"; "s2"; "s3" ];
      check_int "base adopted from the leader" 7 (Journal.base_index j);
      check_int "WAL emptied" 0 (Journal.wal_records j);
      check_int "last = base after install" 7 (Journal.last_index j);
      check_int "epoch adopted from the leader" 3 (Journal.epoch j);
      Journal.append j "tail-8";
      check_int "appends continue at the adopted index" 8 (Journal.last_index j);
      Journal.close j;
      let j2, replay = Journal.open_ config in
      check_bool "installed state replays before the tail" true
        (replay.Journal.records
        = [ (3, "s1"); (3, "s2"); (3, "s3"); (3, "tail-8") ]);
      check_int "adopted base survives restart" 7 (Journal.base_index j2);
      Journal.close j2)

let append_raw path bytes =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
  let b = Bytes.of_string bytes in
  ignore (Unix.write fd b 0 (Bytes.length b));
  Unix.close fd

let test_dropped_frames_forensics () =
  with_dir (fun dir ->
      let config = Journal.default_config ~dir in
      let j, _ = Journal.open_ config in
      Journal.append j "first";
      Journal.append j "second";
      Journal.append j "third";
      Journal.close j;
      let wal = Filename.concat dir "wal.mcssj" in
      (* Flip a payload byte of "second" (frame 1 is 16+5 bytes, so its
         payload starts at byte 37): recovery stops there, and the
         forensic tail walk counts both whole frames beyond the cut. *)
      let fd = Unix.openfile wal [ Unix.O_WRONLY ] 0o644 in
      ignore (Unix.lseek fd 37 Unix.SEEK_SET);
      ignore (Unix.write fd (Bytes.of_string "X") 0 1);
      Unix.close fd;
      let j2, replay = Journal.open_ config in
      check_bool "only the clean prefix recovered" true
        (replay.Journal.records = [ (0, "first") ]);
      check_int "one corrupt record" 1 replay.Journal.corrupt_records;
      check_int "two frames reported dropped" 2 replay.Journal.dropped_frames;
      Journal.close j2;
      (* A torn tail (header promising more than was written) counts as
         one apparent frame — and the count surfaces in the service's
         replay stats. *)
      let torn = Bytes.create Journal.header_bytes in
      Bytes.set_int32_le torn 0 100l;
      Bytes.set_int32_le torn 4 0l;
      append_raw wal (Bytes.to_string torn ^ "partial");
      let svc = Service.create ~config:(journaled_config dir) () in
      (match Service.replay_stats svc with
      | None -> Alcotest.fail "journaled service must report replay stats"
      | Some r ->
          check_int "torn tail is one dropped frame" 1 r.Service.dropped_frames;
          check_int "torn bytes reported" (Journal.header_bytes + 7)
            r.Service.wal_truncated_bytes);
      Service.close svc)

(* ----- service: replication primitives ----- *)

let test_follower_refuses_updates () =
  with_dir (fun dir ->
      let svc =
        Service.create ~config:(journaled_config dir) ~role:Service.Follower ()
      in
      check_bool "role is follower" true (Service.role svc = Service.Follower);
      let digest = Service.load_workload svc (test_workload ()) in
      expect_code "update on a follower" Protocol.Not_leader
        (Service.handle_line svc
           (Printf.sprintf {|{"req":"update","digest":"%s","deltas":"x"}|} digest));
      (* A follower never journals local operations: the journal is a
         verbatim mirror of the leader's record sequence. *)
      check_bool "local load not journaled" true
        (Service.journal_last_index svc = Some 0);
      let pr = ok_reply "promote" (Service.handle_line svc {|{"req":"promote"}|}) in
      check_bool "promotion reported" true (bool_field pr "promoted");
      check_string "role flipped" "leader" (str_field pr "role");
      let pr2 = ok_reply "re-promote" (Service.handle_line svc {|{"req":"promote"}|}) in
      check_bool "promotion is idempotent" false (bool_field pr2 "promoted");
      Service.close svc)

let test_apply_replicated_gap_detection () =
  with_dir (fun dir ->
      let svc =
        Service.create ~config:(journaled_config dir) ~role:Service.Follower ()
      in
      (match Service.apply_replicated svc ~index:1 ~epoch:0 "not-a-real-op" with
      | Ok () -> ()
      | Error m -> Alcotest.failf "dense successor must apply: %s" m);
      check_bool "record mirrored even when inapplicable" true
        (Service.journal_last_index svc = Some 1);
      (match Service.apply_replicated svc ~index:3 ~epoch:0 "skipping-two" with
      | Ok () -> Alcotest.fail "a gap must be refused"
      | Error m ->
          check_bool "gap named in the error" true
            (Helpers.contains ~needle:"gap" m));
      check_bool "nothing mirrored on refusal" true
        (Service.journal_last_index svc = Some 1);
      Service.close svc)

(* ----- qcheck: any WAL prefix replays to a byte-identical prefix ----- *)

let prefix_arbitrary =
  QCheck.make
    QCheck.Gen.(pair (int_bound 100_000) (int_bound 64))
    ~print:(fun (seed, k) -> Printf.sprintf "seed=%d, prefix=%d" seed k)

let prop_wal_prefix (seed, kraw) =
  with_dir (fun dl ->
      with_dir (fun df ->
          let rng = Rng.create seed in
          let w =
            Helpers.random_workload rng ~num_topics:4 ~num_subscribers:5
              ~max_rate:9 ~max_interests:3
          in
          let leader =
            Service.create ~config:(journaled_config ~fsync:false dl) ()
          in
          let follower =
            Service.create
              ~config:(journaled_config ~fsync:false df)
              ~role:Service.Follower ()
          in
          Fun.protect
            ~finally:(fun () ->
              Service.close leader;
              Service.close follower)
            (fun () ->
              let digest = Service.load_workload leader w in
              for i = 1 to 1 + (seed mod 3) do
                ignore (Service.handle_line leader (solve_line digest (10 + i)))
              done;
              let records =
                match Service.journal_read_from leader ~index:0 with
                | Ok l -> l
                | Error `Resync -> Alcotest.fail "leader tail unreadable"
              in
              let k = kraw mod (List.length records + 1) in
              List.iteri
                (fun i (idx, epoch, p) ->
                  if i < k then
                    match Service.apply_replicated follower ~index:idx ~epoch p with
                    | Ok () -> ()
                    | Error m -> Alcotest.failf "apply record %d: %s" idx m)
                records;
              let mirrored =
                match Service.journal_read_from follower ~index:0 with
                | Ok l -> l
                | Error `Resync -> Alcotest.fail "follower tail unreadable"
              in
              mirrored = List.filteri (fun i _ -> i < k) records)))

(* ----- end to end: stream, crash, takeover ----- *)

let rep_address dir = Server.Unix_socket (Filename.concat dir "rep.sock")

(* Leader service + replication hub + a follower pulling the stream (via
   [via], e.g. a Faulty proxy), torn down in order even on failure. *)
let with_cluster ?snapshot_every ?via dl df f =
  let leader = Service.create ~config:(journaled_config ?snapshot_every dl) () in
  let follower =
    Service.create ~config:(journaled_config df) ~role:Service.Follower ()
  in
  let hub = Replication.start_leader ~service:leader (rep_address dl) in
  let stop = Atomic.make false in
  let dial = match via with Some a -> a | None -> rep_address dl in
  let fdom =
    Domain.spawn (fun () ->
        Replication.follow ~reconnect_ms:5. ~service:follower
          ~stop:(fun () -> Atomic.get stop)
          dial)
  in
  let joined = ref false in
  let join () =
    if not !joined then begin
      joined := true;
      Domain.join fdom
    end
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Replication.stop_leader hub;
      join ();
      Service.close follower;
      Service.close leader)
    (fun () -> f ~leader ~follower ~hub ~join)

let caught_up ~leader ~follower () =
  Service.journal_last_index follower = Service.journal_last_index leader

let test_stream_and_takeover () =
  with_dir (fun dl ->
      with_dir (fun df ->
          with_cluster dl df (fun ~leader ~follower ~hub ~join ->
              let digest = Service.load_workload leader (test_workload ()) in
              let r1 =
                ok_reply "leader solve"
                  (Service.handle_line leader (solve_line digest 12))
              in
              let plan_digest = str_field r1 "plan_digest" in
              wait_until ~what:"follower to catch up"
                (caught_up ~leader ~follower);
              (* The crash: the stream dies abruptly; the leader's
                 service is never closed (kill -9 equivalence). *)
              Replication.stop_leader hub;
              let pr =
                ok_reply "promote" (Service.handle_line follower {|{"req":"promote"}|})
              in
              check_bool "promoted" true (bool_field pr "promoted");
              (* Promotion alone stops the pull loop. *)
              join ();
              let r2 =
                ok_reply "takeover solve"
                  (Service.handle_line follower (solve_line digest 12))
              in
              check_bool "answered as a cache hit" true (bool_field r2 "cached");
              check_string "bit-identical plan digest" plan_digest
                (str_field r2 "plan_digest");
              check_int "the follower's solver never ran" 0
                (Service.solver_runs follower))))

let test_follower_resync_via_snapshot () =
  with_dir (fun dl ->
      with_dir (fun df ->
          (* snapshot_every 2: by the time the follower first dials, the
             leader has folded its WAL, so index 0 is out of the leader's
             span and the handshake must take the full-snapshot path. *)
          let leader = Service.create ~config:(journaled_config ~snapshot_every:2 dl) () in
          let digest = Service.load_workload leader (test_workload ()) in
          let solve tau svc = Service.handle_line svc (solve_line digest tau) in
          let d10 = str_field (ok_reply "solve 10" (solve 10 leader)) "plan_digest" in
          let d11 = str_field (ok_reply "solve 11" (solve 11 leader)) "plan_digest" in
          let hub = Replication.start_leader ~service:leader (rep_address dl) in
          let follower =
            Service.create ~config:(journaled_config df) ~role:Service.Follower ()
          in
          let stop = Atomic.make false in
          let fdom =
            Domain.spawn (fun () ->
                Replication.follow ~reconnect_ms:5. ~service:follower
                  ~stop:(fun () -> Atomic.get stop)
                  (rep_address dl))
          in
          Fun.protect
            ~finally:(fun () ->
              Atomic.set stop true;
              Replication.stop_leader hub;
              Domain.join fdom;
              Service.close follower;
              Service.close leader)
            (fun () ->
              wait_until ~what:"snapshot resync" (caught_up ~leader ~follower);
              (* Live tail continues after the reset. *)
              let d12 = str_field (ok_reply "solve 12" (solve 12 leader)) "plan_digest" in
              wait_until ~what:"live tail after resync"
                (caught_up ~leader ~follower);
              ignore (ok_reply "promote" (Service.handle_line follower {|{"req":"promote"}|}));
              List.iter
                (fun (tau, expect) ->
                  let r = ok_reply "resynced solve" (solve tau follower) in
                  check_bool "cache hit" true (bool_field r "cached");
                  check_string "identical digest" expect (str_field r "plan_digest"))
                [ (10, d10); (11, d11); (12, d12) ];
              check_int "no solver runs on the follower" 0
                (Service.solver_runs follower))))

(* ----- the replication link under byte-level attack ----- *)

let test_replication_through_faults () =
  with_dir (fun dl ->
      with_dir (fun df ->
          (* The first four connections are each sabotaged a different
             way; dials after that are merely slow. A fault can land in
             the handshake or mid-frame depending on the byte budget —
             both must end in "drop, reconnect, resync", never in a
             corrupt follower. *)
          let plan ~conn =
            match conn with
            | 0 -> { Faulty.clean with Faulty.to_client = [ Faulty.Tear_after 25 ] }
            | 1 -> { Faulty.clean with Faulty.to_client = [ Faulty.Reset_after 120 ] }
            | 2 -> { Faulty.clean with Faulty.to_client = [ Faulty.Garbage "\xde\xad\xbe\xef" ] }
            | 3 -> { Faulty.clean with Faulty.to_server = [ Faulty.Tear_after 10 ] }
            | _ ->
                { Faulty.clean with
                  Faulty.to_client = [ Faulty.Trickle { chunk = 64; delay_ms = 0.1 } ]
                }
          in
          let leader = Service.create ~config:(journaled_config dl) () in
          let digest = Service.load_workload leader (test_workload ()) in
          ignore (ok_reply "solve 12" (Service.handle_line leader (solve_line digest 12)));
          let hub = Replication.start_leader ~service:leader (rep_address dl) in
          let proxy = Faulty.start ~plan ~upstream:(rep_address dl) () in
          let follower =
            Service.create ~config:(journaled_config df) ~role:Service.Follower ()
          in
          let stop = Atomic.make false in
          let fdom =
            Domain.spawn (fun () ->
                Replication.follow ~reconnect_ms:5. ~service:follower
                  ~stop:(fun () -> Atomic.get stop)
                  (Faulty.address proxy))
          in
          Fun.protect
            ~finally:(fun () ->
              Atomic.set stop true;
              Faulty.stop proxy;
              Replication.stop_leader hub;
              Domain.join fdom;
              Service.close follower;
              Service.close leader)
            (fun () ->
              wait_until ~what:"convergence through faults"
                (caught_up ~leader ~follower);
              check_bool "the faults actually fired" true
                (Faulty.connections proxy >= 4);
              (* Keep appending over the (still trickling) live link. *)
              let d13 =
                str_field
                  (ok_reply "solve 13" (Service.handle_line leader (solve_line digest 13)))
                  "plan_digest"
              in
              wait_until ~what:"live tail through the proxy"
                (caught_up ~leader ~follower);
              (* The follower's journal is a byte-identical mirror... *)
              let leader_records =
                match Service.journal_read_from leader ~index:0 with
                | Ok l -> l
                | Error `Resync -> Alcotest.fail "leader tail unreadable"
              in
              let follower_records =
                match Service.journal_read_from follower ~index:0 with
                | Ok l -> l
                | Error `Resync -> Alcotest.fail "follower tail unreadable"
              in
              check_bool "journals identical after the ordeal" true
                (leader_records = follower_records);
              (* ...and serves the leader's plans bit-for-bit. *)
              ignore (ok_reply "promote" (Service.handle_line follower {|{"req":"promote"}|}));
              let r = ok_reply "post-fault solve" (Service.handle_line follower (solve_line digest 13)) in
              check_bool "cache hit" true (bool_field r "cached");
              check_string "identical digest" d13 (str_field r "plan_digest"));
          (* And the journal on disk carries no scars: a restart replays
             it clean. *)
          let j, replay = Journal.open_ (Journal.default_config ~dir:df) in
          check_int "no corruption on the follower's disk" 0
            replay.Journal.corrupt_records;
          check_int "no torn tail either" 0 replay.Journal.truncated_bytes;
          Journal.close j))

(* ----- ring ----- *)

let test_ring_basics () =
  let shards = [ "alpha"; "beta"; "gamma" ] in
  let ring = Ring.create shards in
  check_int "points = shards * vnodes" (3 * 64) (Ring.points ring);
  check_bool "shards preserved" true (Ring.shards ring = shards);
  (* Deterministic and order-independent. *)
  let ring2 = Ring.create [ "gamma"; "alpha"; "beta" ] in
  let keys = List.init 500 (fun i -> Printf.sprintf "digest-%d" i) in
  List.iter
    (fun k ->
      let o = Ring.owner ring k in
      check_bool "owner is a shard" true (List.mem o shards);
      check_string "order-independent ownership" o (Ring.owner ring2 k))
    keys;
  (* No shard starves: with 64 vnodes each, every shard owns a
     non-trivial arc. *)
  let counts = Hashtbl.create 3 in
  List.iter
    (fun k ->
      let o = Ring.owner ring k in
      Hashtbl.replace counts o (1 + Option.value ~default:0 (Hashtbl.find_opt counts o)))
    keys;
  List.iter
    (fun s ->
      let n = Option.value ~default:0 (Hashtbl.find_opt counts s) in
      check_bool (Printf.sprintf "shard %s owns a fair share (%d)" s n) true
        (n > 25))
    shards;
  (* A single shard owns everything. *)
  let solo = Ring.create ~vnodes:1 [ "only" ] in
  List.iter (fun k -> check_string "solo owner" "only" (Ring.owner solo k)) keys;
  (* Bad configurations are rejected loudly. *)
  List.iter
    (fun f -> match f () with
      | (_ : Ring.t) -> Alcotest.fail "invalid ring accepted"
      | exception Invalid_argument _ -> ())
    [
      (fun () -> Ring.create []);
      (fun () -> Ring.create [ "a"; "a" ]);
      (fun () -> Ring.create ~vnodes:0 [ "a" ]);
    ]

let prop_ring_total_and_stable key =
  let ring = Ring.create [ "s0"; "s1"; "s2"; "s3" ] in
  let o = Ring.owner ring key in
  List.mem o [ "s0"; "s1"; "s2"; "s3" ] && o = Ring.owner ring key

(* ----- router ----- *)

let health_env =
  { Protocol.id = None; deadline_ms = None; request = Protocol.Health }

let solve_env digest tau =
  {
    Protocol.id = None;
    deadline_ms = None;
    request =
      Protocol.Solve
        { digest; params = { Protocol.default_params with Protocol.tau } };
  }

let update_env digest =
  {
    Protocol.id = None;
    deadline_ms = None;
    request =
      Protocol.Update { digest; params = Protocol.default_params; deltas = "x" };
  }

let fast_policy =
  {
    Retry.max_attempts = 2;
    base_ms = 1.;
    cap_ms = 5.;
    attempt_timeout_ms = Some 2000.;
  }

let router_config = { Router.default_config with Router.policy = fast_policy }

let with_server svc f =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mcss-repl-srv-%d-%d.sock" (Unix.getpid ())
         (incr Helpers.dir_counter; !Helpers.dir_counter))
  in
  let address = Server.Unix_socket path in
  let config =
    { Server.default_config with Server.workers = 2; accept_tick_s = 0.05 }
  in
  let d = Domain.spawn (fun () -> Server.run ~config svc address) in
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
      Domain.join d;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () -> f address)

let member name address = { Router.name; address }

let test_router_failover_and_no_quorum () =
  with_dir (fun dir ->
      let svc = Service.create () in
      let digest = Service.load_workload svc (test_workload ()) in
      with_server svc (fun live ->
          let dead = Server.Unix_socket (Filename.concat dir "dead.sock") in
          let dead2 = Server.Unix_socket (Filename.concat dir "dead2.sock") in
          (* Leader down, follower up: idempotent requests fail over. *)
          let r =
            Router.create ~config:router_config
              [ { Router.shard_name = "s0";
                  members = [ member "dead" dead; member "live" live ] } ]
          in
          let reply = Router.handle r (solve_env digest 12.) in
          ignore (ok_reply "solve failed over to the follower" reply);
          check_bool "a real plan came back" true
            (String.length (str_field reply "plan_digest") > 0);
          (* Updates never fail over — history must not fork — but the
             shed names the remedy. *)
          expect_code "update with a dead leader" Protocol.Not_leader
            (Router.handle r (update_env digest));
          (* Health probes re-order candidates without changing the
             answer. *)
          Router.probe_all r;
          let h = ok_reply "router health" (Router.handle r health_env) in
          check_bool "one member seen up" true
            (Json.member "members_up" h |> Fun.flip Option.bind Json.to_int_opt
             = Some 1);
          ignore (ok_reply "solve after probing" (Router.handle r (solve_env digest 12.)));
          (* A whole-dead shard is shed with a parseable verdict, for
             reads and writes alike. *)
          let r2 =
            Router.create ~config:router_config
              [ { Router.shard_name = "s0";
                  members = [ member "d1" dead; member "d2" dead2 ] } ]
          in
          expect_code "solve against a dead shard" Protocol.No_quorum
            (Router.handle r2 (solve_env digest 12.));
          expect_code "update against a dead shard" Protocol.No_quorum
            (Router.handle r2 (update_env digest));
          (* The router itself stays answerable throughout. *)
          ignore (ok_reply "router health with dead shard" (Router.handle r2 health_env))))

let test_router_routes_by_digest () =
  let svc_a = Service.create () in
  let svc_b = Service.create () in
  with_server svc_a (fun addr_a ->
      with_server svc_b (fun addr_b ->
          let r =
            Router.create ~config:router_config
              [
                { Router.shard_name = "sA"; members = [ member "a" addr_a ] };
                { Router.shard_name = "sB"; members = [ member "b" addr_b ] };
              ]
          in
          let w = test_workload () in
          let load =
            {
              Protocol.id = None;
              deadline_ms = None;
              request = Protocol.Load (`Inline (Mcss_workload.Wio.to_string w));
            }
          in
          let reply = ok_reply "load via router" (Router.handle r load) in
          let digest = str_field reply "digest" in
          (* The owner is decided by the same ring the router builds, so
             the load must have landed exactly there... *)
          let ring = Ring.create [ "sA"; "sB" ] in
          let owner = Ring.owner ring digest in
          let owner_svc, other_svc =
            if owner = "sA" then (svc_a, svc_b) else (svc_b, svc_a)
          in
          ignore
            (ok_reply "owner answers directly"
               (Service.handle_line owner_svc (solve_line digest 12)));
          expect_code "the other shard never saw it" Protocol.Unknown_digest
            (Service.handle_line other_svc (solve_line digest 12));
          (* ...and a solve through the router finds it again. *)
          let solved = ok_reply "solve via router" (Router.handle r (solve_env digest 12.)) in
          check_bool "solved by the owning shard" true
            (bool_field solved "cached")))

(* ----- client: pluggable per-attempt routing (regression) ----- *)

let test_client_route_reresolves_target () =
  let svc = Service.create () in
  with_server svc (fun upstream ->
      (* Every connection through the proxy dies mid-reply with a real
         RST. Before ?route, the retry would redial the same dead-end
         address; now attempt 2 re-resolves to the healthy upstream. *)
      let proxy =
        Faulty.start
          ~plan:(fun ~conn:_ ->
            { Faulty.clean with Faulty.to_client = [ Faulty.Reset_after 3 ] })
          ~upstream ()
      in
      Fun.protect
        ~finally:(fun () -> Faulty.stop proxy)
        (fun () ->
          let route ~attempt =
            if attempt = 1 then Faulty.address proxy else upstream
          in
          let o =
            Client.call ~policy:fast_policy ~rng:(Rng.create 5) ~route
              (Faulty.address proxy) health_env
          in
          (match o.Retry.result with
          | Ok reply -> ignore (ok_reply "rerouted call" reply)
          | Error m -> Alcotest.failf "rerouted call failed: %s" m);
          check_int "exactly one retry" 2 o.Retry.attempts;
          check_int "the dead-end address saw only the first attempt" 1
            (Faulty.connections proxy)))

(* ----- client + router: not_leader re-resolution (regression) ----- *)

let valid_update_env digest =
  {
    Protocol.id = None;
    deadline_ms = None;
    request =
      Protocol.Update
        {
          digest;
          params = Protocol.default_params;
          deltas = "mcss-deltas 1\nrate 0 42.0\n";
        };
  }

let test_client_not_leader_retry_reresolves () =
  (* Attempt 1 lands on a follower, which refuses the update with
     [not_leader]. The refusal proves nothing was applied, so the
     client replays the non-idempotent verb against the re-resolved
     leader instead of surfacing the error. *)
  let leader = Service.create () in
  let digest = Service.load_workload leader (test_workload ()) in
  ignore (ok_reply "leader solve" (Service.handle_line leader (solve_line digest 100)));
  let follower = Service.create ~role:Service.Follower () in
  with_server leader (fun leader_addr ->
      with_server follower (fun follower_addr ->
          let route ~attempt =
            if attempt = 1 then follower_addr else leader_addr
          in
          let o =
            Client.call ~policy:fast_policy ~rng:(Rng.create 6) ~route
              follower_addr (valid_update_env digest)
          in
          (match o.Retry.result with
          | Ok reply ->
              let r = ok_reply "update after not_leader reroute" reply in
              check_bool "the evolved digest came back" true
                (String.length (str_field r "digest") > 0)
          | Error m -> Alcotest.failf "rerouted update failed: %s" m);
          check_int "exactly one not_leader retry" 2 o.Retry.attempts;
          (* On the last attempt the refusal is the final answer (exit
             codes depend on the structured reply surviving). *)
          let o2 =
            Client.call
              ~policy:{ fast_policy with Retry.max_attempts = 1 }
              ~rng:(Rng.create 7)
              follower_addr (valid_update_env digest)
          in
          match o2.Retry.result with
          | Ok reply ->
              expect_code "refusal survives as the reply" Protocol.Not_leader
                reply
          | Error m -> Alcotest.failf "wanted a not_leader reply, got: %s" m))

let test_router_reresolves_leader_on_not_leader () =
  (* The router's member order says the follower leads (as after an
     un-observed manual promotion). A forwarded update draws
     [not_leader]; with auto_promote the router re-probes, discovers the
     real leader, reorders, and the retry succeeds — the client never
     sees the refusal. *)
  let leader = Service.create () in
  let digest = Service.load_workload leader (test_workload ()) in
  ignore (ok_reply "leader solve" (Service.handle_line leader (solve_line digest 100)));
  let follower = Service.create ~role:Service.Follower () in
  with_server leader (fun leader_addr ->
      with_server follower (fun follower_addr ->
          let r =
            Router.create
              ~config:{ router_config with Router.auto_promote = true }
              [
                { Router.shard_name = "s0";
                  members =
                    [ member "f" follower_addr; member "l" leader_addr ] };
              ]
          in
          let reply = Router.handle r (valid_update_env digest) in
          ignore (ok_reply "update rerouted to the real leader" reply);
          let reroutes =
            Mcss_obs.Metric.Counter.value
              (Mcss_obs.Registry.counter (Router.obs r)
                 "serve.router.not_leader_reroutes")
          in
          check_bool "the reroute was counted" true (reroutes >= 1);
          (* The discovered order sticks: the next update forwards
             straight to the leader, no refusal. *)
          let before =
            Mcss_obs.Metric.Counter.value
              (Mcss_obs.Registry.counter (Router.obs r)
                 "serve.router.not_leader_reroutes")
          in
          ignore (ok_reply "second update" (Router.handle r (valid_update_env digest)));
          let after =
            Mcss_obs.Metric.Counter.value
              (Mcss_obs.Registry.counter (Router.obs r)
                 "serve.router.not_leader_reroutes")
          in
          check_int "no further reroutes needed" before after))

(* ----- qcheck: fencing epochs ----- *)

(* Two journals that were briefly the same lineage — a leader and a
   follower that mirrored a prefix, then was promoted with a fenced
   epoch while the old leader kept appending — must satisfy, whatever
   the interleaving: epochs never decrease within either journal (also
   across a close/reopen), and any (index, epoch) slot present in both
   carries the identical payload. The divergent slots are exactly the
   ones the fencing epoch distinguishes, which is what lets the
   replication handshake find and truncate them. *)
let prop_epoch_fencing (n1raw, kraw, n2raw) =
  let n1 = 1 + (n1raw mod 8) and n2 = 1 + (n2raw mod 8) in
  with_dir (fun dl ->
      with_dir (fun df ->
          let open_j dir =
            fst
              (Journal.open_
                 { (Journal.default_config ~dir) with Journal.fsync = false })
          in
          let jl = open_j dl in
          for i = 1 to n1 do
            Journal.append jl (Printf.sprintf "a-%d" i)
          done;
          let jf = open_j df in
          let records =
            match Journal.read_from jl ~index:0 with
            | Ok l -> l
            | Error `Resync -> []
          in
          let k = kraw mod (n1 + 1) in
          List.iteri
            (fun i (_, e, p) -> if i < k then Journal.append ~epoch:e jf p)
            records;
          (* Fenced promotion: the new leader's epoch moves past
             anything the old one could have written... *)
          Journal.set_epoch jf (Journal.epoch jl);
          ignore (Journal.bump_epoch jf);
          for i = 1 to n2 do
            Journal.append jf (Printf.sprintf "b-%d" i)
          done;
          (* ...while the fenced leader keeps writing its stale epoch
             (a divergent un-acked tail). *)
          Journal.append jl "stale-tail";
          let all j =
            match Journal.read_from j ~index:0 with
            | Ok l -> l
            | Error `Resync -> []
          in
          let non_decreasing recs =
            let rec go prev = function
              | [] -> true
              | (_, e, _) :: rest -> e >= prev && go e rest
            in
            go 0 recs
          in
          let lrec = all jl and frec = all jf in
          let el = Journal.epoch jl and ef = Journal.epoch jf in
          Journal.close jl;
          Journal.close jf;
          (* Epochs survive a reopen (sidecar + frame scan agree). *)
          let jl2 = open_j dl and jf2 = open_j df in
          let persisted = Journal.epoch jl2 = el && Journal.epoch jf2 = ef in
          Journal.close jl2;
          Journal.close jf2;
          persisted
          && ef > el
          && non_decreasing lrec
          && non_decreasing frec
          && List.for_all
               (fun (i, e, p) ->
                 match
                   List.find_opt (fun (i2, e2, _) -> i2 = i && e2 = e) frec
                 with
                 | Some (_, _, p2) -> p2 = p
                 | None -> true)
               lrec))

let suite =
  [
    Alcotest.test_case "journal: absolute indices survive folds and restarts"
      `Quick test_journal_indices;
    Alcotest.test_case "journal: read_from/iter_from serve the exact tail"
      `Quick test_journal_read_from;
    Alcotest.test_case "journal: install_snapshot adopts the leader's position"
      `Quick test_journal_install_snapshot;
    Alcotest.test_case "journal: dropped-frame forensics in replay stats"
      `Quick test_dropped_frames_forensics;
    Alcotest.test_case "service: followers refuse updates until promoted"
      `Quick test_follower_refuses_updates;
    Alcotest.test_case "service: replication applies densely or not at all"
      `Quick test_apply_replicated_gap_detection;
    Helpers.qtest ~count:12
      "replication: any WAL prefix mirrors byte-identically" prefix_arbitrary
      prop_wal_prefix;
    Alcotest.test_case "e2e: leader crash, follower takeover, identical plan"
      `Quick test_stream_and_takeover;
    Alcotest.test_case "e2e: stale follower resyncs via full snapshot" `Quick
      test_follower_resync_via_snapshot;
    Alcotest.test_case "e2e: torn/reset/garbage replication link never corrupts"
      `Quick test_replication_through_faults;
    Alcotest.test_case "ring: deterministic, total, fair" `Quick test_ring_basics;
    Helpers.qtest ~count:300 "ring: every key has a stable owner"
      QCheck.(string_of_size Gen.(int_bound 64))
      prop_ring_total_and_stable;
    Alcotest.test_case "router: failover and no_quorum shedding" `Quick
      test_router_failover_and_no_quorum;
    Alcotest.test_case "router: digest routing is ring-consistent" `Quick
      test_router_routes_by_digest;
    Alcotest.test_case "client: ?route re-resolves the retry target" `Quick
      test_client_route_reresolves_target;
    Alcotest.test_case "client: not_leader refusal is replayed at the leader"
      `Quick test_client_not_leader_retry_reresolves;
    Alcotest.test_case "router: update re-resolves the leader on not_leader"
      `Quick test_router_reresolves_leader_on_not_leader;
    Helpers.qtest ~count:40
      "journal: epochs never regress; (epoch, index) unique cluster-wide"
      QCheck.(triple (int_bound 1000) (int_bound 64) (int_bound 1000))
      prop_epoch_fencing;
  ]
