(* The crash-safety and degradation story, attacked from every layer:
   the journal's framing against torn and corrupt tails, the breaker
   state machine on a fake clock, retry backoff bounds, single-flight
   stampede suppression, a kill-9-equivalent service restart, and the
   full client/server stack behind a byte-mangling proxy. *)

module Json = Mcss_json.Json
module Protocol = Mcss_serve.Protocol
module Admission = Mcss_serve.Admission
module Service = Mcss_serve.Service
module Server = Mcss_serve.Server
module Client = Mcss_serve.Client
module Pool = Mcss_serve.Pool
module Journal = Mcss_serve.Journal
module Breaker = Mcss_serve.Breaker
module Retry = Mcss_serve.Retry
module Single_flight = Mcss_serve.Single_flight
module Faulty = Mcss_serve.Faulty
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

let float_field reply key =
  match Option.bind (Json.member key reply) Json.to_float_opt with
  | Some f -> f
  | None -> Alcotest.failf "reply lacks number %S: %s" key (Json.to_string reply)

let expect_code name code reply =
  match Protocol.response_error reply with
  | Some (Some c, _) when c = code -> ()
  | _ ->
      Alcotest.failf "%s: wanted %s, got %s" name
        (Protocol.error_code_to_string code)
        (Json.to_string reply)

let with_dir f = Helpers.with_dir ~prefix:"mcss-faults" f

(* ----- journal ----- *)

let test_crc32_vector () =
  (* The standard IEEE 802.3 check value. *)
  check_string "crc32(\"123456789\")" "cbf43926"
    (Printf.sprintf "%08lx" (Journal.crc32 "123456789"))

let test_journal_roundtrip () =
  with_dir (fun dir ->
      let config = Journal.default_config ~dir in
      let j, replay = Journal.open_ config in
      check_int "fresh journal is empty" 0 (List.length replay.Journal.records);
      Journal.append j "one";
      Journal.append j "two";
      Journal.append j (String.make 1000 'x');
      check_int "wal counts appends" 3 (Journal.wal_records j);
      Journal.close j;
      (match Journal.append j "after close" with
      | () -> Alcotest.fail "append after close should raise"
      | exception Sys_error _ -> ());
      let j2, replay = Journal.open_ config in
      check_bool "records replayed in order" true
        (replay.Journal.records = [ (0, "one"); (0, "two"); (0, String.make 1000 'x') ]);
      check_int "no torn tail" 0 replay.Journal.truncated_bytes;
      check_int "no corruption" 0 replay.Journal.corrupt_records;
      Journal.close j2)

let append_raw path bytes =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
  let b = Bytes.of_string bytes in
  ignore (Unix.write fd b 0 (Bytes.length b));
  Unix.close fd

let test_journal_torn_tail () =
  with_dir (fun dir ->
      let config = Journal.default_config ~dir in
      let j, _ = Journal.open_ config in
      Journal.append j "alpha";
      Journal.append j "beta";
      Journal.close j;
      let wal = Filename.concat dir "wal.mcssj" in
      let good_size = (Unix.stat wal).Unix.st_size in
      (* A crash mid-append: a whole header promising 100 bytes but only
         a few payload bytes made it to disk. Zero-filled: uninitialised
         epoch bytes can read as a negative epoch, which is framing
         corruption, not a torn tail. *)
      let torn = Bytes.make Journal.header_bytes '\000' in
      Bytes.set_int32_le torn 0 100l;
      Bytes.set_int32_le torn 4 0l;
      append_raw wal (Bytes.to_string torn ^ "only-this");
      let j2, replay = Journal.open_ config in
      check_bool "good records recovered" true
        (replay.Journal.records = [ (0, "alpha"); (0, "beta") ]);
      check_int "torn bytes reported" (Journal.header_bytes + 9)
        replay.Journal.truncated_bytes;
      check_int "a torn tail is not corruption" 0 replay.Journal.corrupt_records;
      check_int "WAL physically truncated" good_size (Unix.stat wal).Unix.st_size;
      (* And the journal keeps working from the cut. *)
      Journal.append j2 "gamma";
      Journal.close j2;
      let j3, replay = Journal.open_ config in
      check_bool "append after truncation replays" true
        (replay.Journal.records = [ (0, "alpha"); (0, "beta"); (0, "gamma") ]);
      Journal.close j3)

let test_journal_corrupt_record () =
  with_dir (fun dir ->
      let config = Journal.default_config ~dir in
      let j, _ = Journal.open_ config in
      Journal.append j "first";
      Journal.append j "second";
      Journal.close j;
      let wal = Filename.concat dir "wal.mcssj" in
      (* Flip a payload byte of the second record (offset: 16 + 5 for the
         first frame, + 16 header = byte 37 is 's' of "second"). *)
      let fd = Unix.openfile wal [ Unix.O_WRONLY ] 0o644 in
      ignore (Unix.lseek fd 37 Unix.SEEK_SET);
      ignore (Unix.write fd (Bytes.of_string "X") 0 1);
      Unix.close fd;
      let j2, replay = Journal.open_ config in
      check_bool "scan stops before the bad CRC" true
        (replay.Journal.records = [ (0, "first") ]);
      check_int "corruption counted" 1 replay.Journal.corrupt_records;
      check_bool "corrupt tail cut" true (replay.Journal.truncated_bytes > 0);
      Journal.close j2)

let test_journal_snapshot () =
  with_dir (fun dir ->
      let config = { (Journal.default_config ~dir) with Journal.snapshot_every = 3 } in
      let j, _ = Journal.open_ config in
      Journal.append j "a";
      Journal.append j "b";
      check_bool "not due yet" false (Journal.snapshot_due j);
      Journal.append j "c";
      check_bool "due at the threshold" true (Journal.snapshot_due j);
      Journal.snapshot j [ "full"; "state" ];
      check_int "snapshot resets the WAL" 0 (Journal.wal_records j);
      check_int "snapshot counted" 1 (Journal.snapshots_taken j);
      Journal.append j "d";
      Journal.close j;
      let j2, replay = Journal.open_ config in
      check_bool "snapshot then WAL" true
        (replay.Journal.records = [ (0, "full"); (0, "state"); (0, "d") ]);
      check_int "snapshot records" 2 replay.Journal.snapshot_records;
      check_int "wal records" 1 replay.Journal.wal_records;
      Journal.close j2)

(* ----- service durability (kill -9 equivalence) ----- *)

let journaled_config ?(snapshot_every = 256) dir =
  {
    Service.default_config with
    Service.journal =
      Some { (Journal.default_config ~dir) with Journal.snapshot_every };
  }

let test_service_crash_restart () =
  with_dir (fun dir ->
      (* Session one: load and solve, then vanish without close — the
         WAL is fsynced per append, so an abandoned instance is exactly
         what kill -9 leaves behind. *)
      let svc = Service.create ~config:(journaled_config dir) () in
      let digest = Service.load_workload svc (test_workload ()) in
      let solve_line =
        Printf.sprintf {|{"req":"solve","digest":"%s","tau":12}|} digest
      in
      let r1 = ok_reply "first solve" (Service.handle_line svc solve_line) in
      check_bool "cold solve" false (bool_field r1 "cached");
      let plan_digest = str_field r1 "plan_digest" in
      let cost = float_field r1 "cost_usd" in
      (* Session two: a fresh instance over the same directory. *)
      let svc2 = Service.create ~config:(journaled_config dir) () in
      (match Service.replay_stats svc2 with
      | None -> Alcotest.fail "journaled service must report replay stats"
      | Some r ->
          check_int "workload recovered" 1 r.Service.workloads_recovered;
          check_int "plan recovered" 1 r.Service.plans_recovered;
          check_int "nothing skipped" 0 r.Service.records_skipped);
      let r2 = ok_reply "post-restart solve" (Service.handle_line svc2 solve_line) in
      check_bool "served from the recovered cache" true (bool_field r2 "cached");
      check_string "identical plan digest" plan_digest (str_field r2 "plan_digest");
      check_bool "identical cost" true (cost = float_field r2 "cost_usd");
      check_int "the solver never ran" 0 (Service.solver_runs svc2);
      Service.close svc2)

let test_service_snapshot_restart () =
  with_dir (fun dir ->
      let svc = Service.create ~config:(journaled_config ~snapshot_every:2 dir) () in
      let digest = Service.load_workload svc (test_workload ()) in
      let solve tau svc =
        Service.handle_line svc
          (Printf.sprintf {|{"req":"solve","digest":"%s","tau":%d}|} digest tau)
      in
      ignore (ok_reply "solve 10" (solve 10 svc)); (* record 2: snapshot folds *)
      ignore (ok_reply "solve 11" (solve 11 svc)); (* record 1 of the new WAL *)
      Service.close svc;
      let svc2 = Service.create ~config:(journaled_config ~snapshot_every:2 dir) () in
      (match Service.replay_stats svc2 with
      | None -> Alcotest.fail "no replay stats"
      | Some r ->
          check_int "both plans back (snapshot + WAL)" 2 r.Service.plans_recovered;
          check_int "workload back" 1 r.Service.workloads_recovered);
      check_bool "snapshot-era plan is a hit" true
        (bool_field (ok_reply "solve 10 again" (solve 10 svc2)) "cached");
      check_bool "wal-era plan is a hit" true
        (bool_field (ok_reply "solve 11 again" (solve 11 svc2)) "cached");
      check_int "no re-solving after restart" 0 (Service.solver_runs svc2);
      Service.close svc2)

(* Replay counts of a fresh service over a journal holding [payloads]:
   (workloads, plans, updates, skipped). *)
let replay_counts payloads =
  with_dir (fun dir ->
      let j, _ = Journal.open_ (Journal.default_config ~dir) in
      List.iter (Journal.append j) payloads;
      Journal.close j;
      let svc = Service.create ~config:(journaled_config dir) () in
      Fun.protect
        ~finally:(fun () -> Service.close svc)
        (fun () ->
          match Service.replay_stats svc with
          | None -> Alcotest.fail "no replay stats"
          | Some r ->
              ( r.Service.workloads_recovered,
                r.Service.plans_recovered,
                r.Service.updates_replayed,
                r.Service.records_skipped )))

let test_journal_tolerates_garbage_records () =
  (* A real load, plan and update, as a live service journals them. *)
  let load, plan, update =
    with_dir (fun dir ->
        let svc = Service.create ~config:(journaled_config dir) () in
        let digest = Service.load_workload svc (test_workload ()) in
        let request fields =
          Json.to_string
            (Json.Obj
               ((("digest", Json.String digest) :: ("tau", Json.Int 12) :: fields)))
        in
        ignore
          (ok_reply "solve"
             (Service.handle_line svc (request [ ("req", Json.String "solve") ])));
        ignore
          (ok_reply "update"
             (Service.handle_line svc
                (request
                   [
                     ("req", Json.String "update");
                     ("deltas", Json.String "mcss-deltas 1\nrate 0 25\n");
                   ])));
        Service.close svc;
        let j, replay = Journal.open_ (Journal.default_config ~dir) in
        Journal.close j;
        match List.map snd replay.Journal.records with
        | [ load; plan; update ] -> (load, plan, update)
        | rs -> Alcotest.failf "wanted load, plan, update; journal holds %d records" (List.length rs))
  in
  let edit payload f =
    match Json.parse payload with
    | Ok (Json.Obj fields) -> Json.to_string (Json.Obj (f fields))
    | _ -> Alcotest.failf "not a JSON object: %s" payload
  in
  let set key v = List.map (fun (k, v') -> (k, if k = key then v else v')) in
  let drop key = List.filter (fun (k, _) -> k <> key) in
  let feedface = Json.String "feedface" in
  let valid = [ load; plan ] in
  check_bool "the valid journal replays whole" true
    (replay_counts (valid @ [ update ]) = (1, 1, 1, 0));
  (* A valid frame whose payload is not a service op, one record per
     reason replay skips a record: each is skipped on replay, counted
     once, and recovers nothing, without crashing the boot. *)
  let garbage =
    [
      ("not JSON", "not json at all");
      ("unknown op", edit load (set "op" (Json.String "snapshot")));
      ("load: wio does not hash to its digest", edit load (set "digest" feedface));
      ("load: unparseable wio", edit load (set "wio" (Json.String "not a workload")));
      ("plan: unknown workload", edit plan (set "digest" feedface));
      ("plan: no tau", edit plan (drop "tau"));
      ("plan: text fails Plan_io", edit plan (set "plan" (Json.String "x")));
      ("update: no base plan", edit update (set "tau" (Json.String "13")));
      ("update: replay lands on another digest", edit update (set "new_digest" feedface));
    ]
  in
  List.iter
    (fun (reason, payload) ->
      let w, p, u, skipped = replay_counts (valid @ [ payload ]) in
      check_int (reason ^ ": skipped once") 1 skipped;
      check_int (reason ^ ": only the valid workload") 1 w;
      check_int (reason ^ ": only the valid plan") 1 p;
      check_int (reason ^ ": no update") 0 u)
    garbage;
  check_bool "all of them, in one journal" true
    (replay_counts (valid @ List.map snd garbage) = (1, 1, 0, List.length garbage))

(* ----- circuit breaker (fake clock, no sleeping) ----- *)

let test_breaker_fsm () =
  let now = ref 0L in
  let b =
    Breaker.create ~now:(fun () -> !now)
      { Breaker.failure_threshold = 3; cooldown_ms = 100. }
  in
  let admit_and b verdict = check_bool "admit" verdict (Breaker.admit b) in
  check_bool "starts closed" true (Breaker.state b = Breaker.Closed);
  (* Two failures: still closed. *)
  admit_and b true; Breaker.failure b;
  admit_and b true; Breaker.failure b;
  check_bool "under threshold stays closed" true (Breaker.state b = Breaker.Closed);
  check_int "streak counted" 2 (Breaker.consecutive_failures b);
  (* A success resets the streak. *)
  admit_and b true; Breaker.success b;
  check_int "success resets streak" 0 (Breaker.consecutive_failures b);
  (* Three in a row open the circuit. *)
  admit_and b true; Breaker.failure b;
  admit_and b true; Breaker.failure b;
  admit_and b true; Breaker.failure b;
  check_bool "opens at threshold" true (Breaker.state b = Breaker.Open);
  check_int "one open" 1 (Breaker.opens b);
  admit_and b false;
  check_int "rejection counted" 1 (Breaker.rejections b);
  (* Cooldown elapses: exactly one probe gets through. *)
  now := Int64.of_float (150. *. 1e6);
  check_bool "half-open after cooldown" true (Breaker.state b = Breaker.Half_open);
  admit_and b true;
  admit_and b false;
  (* The probe fails: re-open, cooldown restarts. *)
  Breaker.failure b;
  check_bool "failed probe re-opens" true (Breaker.state b = Breaker.Open);
  check_int "second open" 2 (Breaker.opens b);
  admit_and b false;
  (* Next cooldown: the probe succeeds and the circuit closes. *)
  now := Int64.of_float (400. *. 1e6);
  admit_and b true;
  Breaker.success b;
  check_bool "successful probe closes" true (Breaker.state b = Breaker.Closed);
  check_int "close counted" 1 (Breaker.closes b);
  admit_and b true;
  Breaker.success b

(* ----- retry backoff ----- *)

let test_backoff_bounds () =
  let rng = Rng.create 7 in
  let policy =
    { Retry.default_policy with Retry.base_ms = 10.; cap_ms = 50. }
  in
  check_bool "first draw is the base" true
    (Retry.backoff_ms rng policy ~prev_ms:0. = 10.);
  for _ = 1 to 200 do
    let prev = Rng.float rng 100. in
    let ms = Retry.backoff_ms rng policy ~prev_ms:prev in
    if ms < 10. || ms > 50. then
      Alcotest.failf "backoff %g outside [base, cap] for prev %g" ms prev
  done;
  check_bool "huge prev is capped" true
    (Retry.backoff_ms rng policy ~prev_ms:1e9 = 50.)

let test_retry_run () =
  let sleeps = ref [] in
  let sleep ms = sleeps := ms :: !sleeps in
  let policy =
    {
      Retry.max_attempts = 5;
      base_ms = 10.;
      cap_ms = 50.;
      attempt_timeout_ms = None;
    }
  in
  (* Succeeds on the third try. *)
  let o =
    Retry.run ~sleep ~rng:(Rng.create 1) ~policy (fun ~attempt ->
        if attempt < 3 then Retry.Retry "transient" else Retry.Done attempt)
  in
  check_bool "ok" true (o.Retry.result = Ok 3);
  check_int "three attempts" 3 o.Retry.attempts;
  check_int "two sleeps" 2 (List.length !sleeps);
  List.iter
    (fun ms ->
      if ms < 10. || ms > 50. then Alcotest.failf "sleep %g outside bounds" ms)
    !sleeps;
  check_bool "backoff accounted" true
    (o.Retry.total_backoff_ms = List.fold_left ( +. ) 0. !sleeps);
  (* A non-retryable failure stops immediately. *)
  sleeps := [];
  let o =
    Retry.run ~sleep ~rng:(Rng.create 2) ~policy (fun ~attempt:_ ->
        Retry.Give_up "bad request")
  in
  check_bool "gave up" true (o.Retry.result = Error "bad request");
  check_int "one attempt" 1 o.Retry.attempts;
  check_int "no sleeping" 0 (List.length !sleeps);
  (* Exhaustion surfaces the last transient message. *)
  let o =
    Retry.run ~sleep ~rng:(Rng.create 3) ~policy (fun ~attempt:_ ->
        Retry.Retry "still down")
  in
  check_bool "exhausted" true
    (o.Retry.result = Error "still down (gave up after 5 attempts)");
  check_int "budget respected" 5 o.Retry.attempts

(* ----- single flight ----- *)

let test_single_flight_dedup () =
  let sf = Single_flight.create () in
  let arrived = Atomic.make 0 in
  let executions = Atomic.make 0 in
  let racers = 4 in
  let body () =
    Atomic.incr arrived;
    (* The leader holds the key until every racer has called [run], so
       all of them share this one execution. *)
    Single_flight.run sf ~key:"k" (fun () ->
        Atomic.incr executions;
        while Atomic.get arrived < racers do
          Unix.sleepf 0.001
        done;
        42)
  in
  let domains = Array.init racers (fun _ -> Domain.spawn body) in
  let roles = Array.map Domain.join domains in
  check_int "the solver ran once" 1 (Atomic.get executions);
  let leaders =
    Array.fold_left
      (fun n -> function Single_flight.Leader _ -> n + 1 | _ -> n)
      0 roles
  in
  check_int "exactly one leader" 1 leaders;
  Array.iter
    (fun r ->
      match r with
      | Single_flight.Leader v | Single_flight.Follower v ->
          check_int "shared result" 42 v)
    roles;
  check_int "table drained" 0 (Single_flight.in_flight sf);
  (* A later call starts fresh. *)
  (match Single_flight.run sf ~key:"k" (fun () -> 7) with
  | Single_flight.Leader 7 -> ()
  | _ -> Alcotest.fail "post-completion call should lead a fresh run")

exception Boom

let test_single_flight_exception () =
  let sf = Single_flight.create () in
  let arrived = Atomic.make 0 in
  let racers = 3 in
  let body () =
    Atomic.incr arrived;
    match
      Single_flight.run sf ~key:"k" (fun () ->
          while Atomic.get arrived < racers do
            Unix.sleepf 0.001
          done;
          raise Boom)
    with
    | _ -> `No_exception
    | exception Boom -> `Boom
  in
  let outcomes =
    Array.map Domain.join (Array.init racers (fun _ -> Domain.spawn body))
  in
  Array.iter
    (fun o -> check_bool "leader exception reaches everyone" true (o = `Boom))
    outcomes;
  check_int "table drained after failure" 0 (Single_flight.in_flight sf)

(* ----- born-expired deadlines ----- *)

let test_deadline_born_expired () =
  List.iter
    (fun ms ->
      let d = Admission.deadline_of_ms (Some ms) in
      check_bool "expired from birth" true (Admission.expired d);
      check_bool "remaining clamped to zero" true (Admission.remaining_ms d = 0.))
    [ 0.; -1.; -1e9 ];
  (* Through the service: a configured 0 ms default deadline times out
     deterministically, every time, without touching the solver. *)
  let svc =
    Service.create
      ~config:{ Service.default_config with Service.default_deadline_ms = Some 0. }
      ()
  in
  let digest = Service.load_workload svc (test_workload ()) in
  for _ = 1 to 10 do
    expect_code "0ms deadline" Protocol.Timeout
      (Service.handle_line svc
         (Printf.sprintf {|{"req":"solve","digest":"%s","tau":12}|} digest))
  done;
  check_int "the solver never ran" 0 (Service.solver_runs svc)

(* ----- degraded replies under an open circuit ----- *)

let breaker_config = { Breaker.failure_threshold = 1; cooldown_ms = 1e9 }

let test_service_degraded_flow () =
  let svc =
    Service.create
      ~config:{ Service.default_config with Service.breaker = breaker_config }
      ()
  in
  let digest = Service.load_workload svc (test_workload ()) in
  let solve_line tau =
    Printf.sprintf {|{"req":"solve","digest":"%s","tau":%d}|} digest tau
  in
  let r1 = ok_reply "baseline solve" (Service.handle_line svc (solve_line 12)) in
  check_bool "baseline not degraded" false (Protocol.response_degraded r1);
  let plan_digest = str_field r1 "plan_digest" in
  (* Trip the breaker (threshold 1, effectively infinite cooldown). *)
  Breaker.failure (Service.breaker svc);
  check_bool "circuit open" true (Breaker.state (Service.breaker svc) = Breaker.Open);
  (* A cache miss now degrades to the last solved plan for the digest. *)
  let r2 = ok_reply "degraded solve" (Service.handle_line svc (solve_line 999)) in
  check_bool "marked degraded" true (Protocol.response_degraded r2);
  check_bool "serves the fallback's own tau" true (float_field r2 "tau" = 12.);
  check_bool "discloses what was asked" true
    (float_field r2 "requested_tau" = 999.);
  check_string "the fallback plan itself" plan_digest (str_field r2 "plan_digest");
  check_int "solver not touched while open" 1 (Service.solver_runs svc);
  (* Cache hits bypass the breaker entirely. *)
  let r3 = ok_reply "hit while open" (Service.handle_line svc (solve_line 12)) in
  check_bool "hit not degraded" false (Protocol.response_degraded r3);
  check_bool "hit cached" true (bool_field r3 "cached");
  (* A whatif sweep answers every point, flagging the degraded ones. *)
  let r4 =
    ok_reply "whatif under open circuit"
      (Service.handle_line svc
         (Printf.sprintf {|{"req":"whatif","digest":"%s","taus":[12,999]}|} digest))
  in
  (match Option.bind (Json.member "points" r4) Json.to_list_opt with
  | Some [ p1; p2 ] ->
      let degraded p =
        match Option.bind (Json.member "degraded" p) Json.to_bool_opt with
        | Some b -> b
        | None -> false
      in
      check_bool "cached point clean" false (degraded p1);
      check_bool "missed point degraded" true (degraded p2)
  | _ -> Alcotest.failf "whatif shape: %s" (Json.to_string r4));
  (* Chaos refuses a wrong-params plan rather than drilling it. *)
  expect_code "chaos needs the exact plan" Protocol.Degraded
    (Service.handle_line svc
       (Printf.sprintf {|{"req":"chaos","digest":"%s","tau":999}|} digest))

let test_service_degraded_no_fallback () =
  let svc =
    Service.create
      ~config:{ Service.default_config with Service.breaker = breaker_config }
      ()
  in
  let digest = Service.load_workload svc (test_workload ()) in
  Breaker.failure (Service.breaker svc);
  expect_code "nothing to degrade to" Protocol.Degraded
    (Service.handle_line svc
       (Printf.sprintf {|{"req":"solve","digest":"%s","tau":12}|} digest))

let test_degraded_survives_restart () =
  (* The fallback plan can come from a previous process: journal a solve,
     restart, trip the new instance's breaker — the degraded reply must
     serve the journaled plan. *)
  with_dir (fun dir ->
      let config dir =
        { (journaled_config dir) with Service.breaker = breaker_config }
      in
      let svc = Service.create ~config:(config dir) () in
      let digest = Service.load_workload svc (test_workload ()) in
      let r1 =
        ok_reply "solve before crash"
          (Service.handle_line svc
             (Printf.sprintf {|{"req":"solve","digest":"%s","tau":12}|} digest))
      in
      let plan_digest = str_field r1 "plan_digest" in
      (* No close: crash. *)
      let svc2 = Service.create ~config:(config dir) () in
      Breaker.failure (Service.breaker svc2);
      let r2 =
        ok_reply "degraded from journaled plan"
          (Service.handle_line svc2
             (Printf.sprintf {|{"req":"solve","digest":"%s","tau":777}|} digest))
      in
      check_bool "degraded" true (Protocol.response_degraded r2);
      check_string "the pre-crash plan" plan_digest (str_field r2 "plan_digest");
      Service.close svc2)

(* Evicted versions are durable: a journaled leader that folds a
   snapshot every two records serves four chained updates, past the
   newest one that stays resident, and a branch from an evicted digest. Restarted, and
   copied into a follower by a snapshot resync, it still holds every
   acked update as its delta batch (the nemesis's "no acked update
   lost" predicate), replays with nothing skipped and no plan-cache
   traffic, and answers every acked digest with its acked plan_digest,
   without a solver run. Under an open circuit, an evicted digest at
   other params is degraded to that same plan. *)
let test_evicted_versions_durable () =
  with_dir (fun dir ->
      with_dir (fun follower_dir ->
          let config dir =
            { (journaled_config ~snapshot_every:2 dir) with Service.breaker = breaker_config }
          in
          let records dir =
            let j, replay = Journal.open_ (Journal.default_config ~dir) in
            Journal.close j;
            replay.Journal.records
          in
          let request verb digest fields =
            Json.to_string
              (Json.Obj
                 (("req", Json.String verb) :: ("digest", Json.String digest)
                 :: ("tau", Json.Int 12) :: fields))
          in
          let svc = Service.create ~config:(config dir) () in
          let root = Service.load_workload svc (test_workload ()) in
          ignore (ok_reply "solve" (Service.handle_line svc (request "solve" root [])));
          (* Acked updates: (deltas, new digest, plan digest). *)
          let update base rate =
            let deltas = Printf.sprintf "mcss-deltas 1\nrate 0 %d\n" rate in
            let r =
              ok_reply "update"
                (Service.handle_line svc
                   (request "update" base [ ("deltas", Json.String deltas) ]))
            in
            (deltas, str_field r "digest", str_field r "plan_digest")
          in
          let rec chain base i acc =
            if i = 4 then List.rev acc
            else
              let ((_, d, _) as u) = update base (21 + i) in
              chain d (i + 1) (u :: acc)
          in
          let chained = chain root 0 [] in
          let _, first, _ = List.hd chained in
          let acked = chained @ [ update first 99 ] in
          Service.close svc;
          let check_has name records =
            List.iter
              (fun (deltas, d, _) ->
                check_bool (name ^ ": journal has " ^ d) true
                  (Mcss_serve.Nemesis.journal_has records (deltas, d)))
              acked
          in
          check_has "leader" (records dir);
          let check_serves name svc =
            List.iter
              (fun (_, d, p) ->
                let r = ok_reply (name ^ ": solve") (Service.handle_line svc (request "solve" d [])) in
                check_bool (name ^ ": cached") true (bool_field r "cached");
                check_string (name ^ ": acked plan_digest") p (str_field r "plan_digest"))
              acked;
            check_int (name ^ ": no solver run") 0 (Service.solver_runs svc)
          in
          let restarted = Service.create ~config:(config dir) () in
          (match Service.replay_stats restarted with
          | Some r ->
              check_int "every update replayed" (List.length acked) r.Service.updates_replayed;
              check_int "nothing skipped" 0 r.Service.records_skipped
          | None -> Alcotest.fail "no replay stats");
          let cs = Service.cache_stats restarted in
          check_int "replay: no hits" 0 cs.Mcss_serve.Plan_cache.hits;
          check_int "replay: no misses" 0 cs.Mcss_serve.Plan_cache.misses;
          let base, epoch, state = Service.sync_state restarted in
          check_serves "restarted" restarted;
          let follower =
            Service.create ~config:(journaled_config follower_dir) ~role:Service.Follower ()
          in
          (match Service.reset_to_snapshot follower ~base ~epoch state with
          | Ok () -> ()
          | Error m -> Alcotest.failf "resync: %s" m);
          check_serves "follower" follower;
          Service.close follower;
          check_has "follower" (records follower_dir);
          (* The chain's first version is evicted again by now. *)
          Breaker.failure (Service.breaker restarted);
          let _, evicted, p = List.hd acked in
          let r =
            ok_reply "degraded"
              (Service.handle_line restarted
                 (Printf.sprintf {|{"req":"solve","digest":"%s","tau":777}|} evicted))
          in
          check_bool "degraded" true (Protocol.response_degraded r);
          check_string "the version's plan" p (str_field r "plan_digest");
          check_int "still no solver run" 0 (Service.solver_runs restarted);
          Service.close restarted))

(* Journals from builds that snapshotted every workload as a [load]
   and a [plan] record, update-derived ones too, hold no [update] record
   of a version made before the snapshot. Replayed here, each such
   version is a root: nothing journaled rebuilds it, so it stays in
   memory for the service's life, and only versions derived after the
   upgrade are bounded. Every digest still answers its plan. *)
let test_snapshot_of_loads_keeps_roots () =
  with_dir (fun dir ->
      let params = { Protocol.default_params with Protocol.tau = 12. } in
      let request verb digest fields =
        Json.to_string
          (Json.Obj
             (("req", Json.String verb) :: ("digest", Json.String digest)
             :: ("tau", Json.Int 12) :: fields))
      in
      let update svc base rate =
        let deltas = Printf.sprintf "mcss-deltas 1\nrate 0 %d\n" rate in
        let r =
          ok_reply "update"
            (Service.handle_line svc (request "update" base [ ("deltas", Json.String deltas) ]))
        in
        (str_field r "digest", str_field r "plan_digest")
      in
      (* The old snapshot's shape: a root and five versions chained on
         it, as their workloads' [load] records, then their plans'
         [plan] records. *)
      let svc = Service.create () in
      let w0 = test_workload () in
      let root = Service.load_workload svc w0 in
      ignore (ok_reply "solve" (Service.handle_line svc (request "solve" root [])));
      let state w =
        let d = Service.digest_of_workload w in
        match Service.cached_plan svc ~digest:d params with
        | None -> Alcotest.failf "no plan for %s" d
        | Some r ->
            let text = Mcss_core.Plan_io.to_string r.Mcss_core.Solver.allocation in
            ( (d, Digest.to_hex (Digest.string text)),
              Mcss_serve.Record.Load
                { origin = None; digest = d; wio = Mcss_workload.Wio.to_string w },
              Mcss_serve.Record.Plan
                { origin = None; digest = d; params; plan = text;
                  bandwidth = r.Mcss_core.Solver.bandwidth; bandwidth_gb = 0.;
                  cost = r.Mcss_core.Solver.cost; stage1_s = 0.; stage2_s = 0.; solve_s = 0. } )
      in
      let rec chain i (d, w) acc =
        let acc = state w :: acc in
        if i = 5 then List.rev acc
        else
          let rate = 21 + i in
          let d', _ = update svc d rate in
          let w' =
            Mcss_engine.Delta.apply w
              [ Mcss_engine.Delta.Rate_change { topic = 0; rate = float_of_int rate } ]
          in
          check_string "client-side digest" d' (Service.digest_of_workload w');
          chain (i + 1) (d', w') acc
      in
      let versions = chain 0 (root, w0) [] in
      Service.close svc;
      let j, _ = Journal.open_ (Journal.default_config ~dir) in
      Journal.snapshot j
        (List.map Mcss_serve.Record.to_string
           (List.map (fun (_, load, _) -> load) versions
           @ List.map (fun (_, _, plan) -> plan) versions));
      Journal.close j;
      let svc = Service.create ~config:(journaled_config dir) () in
      (match Service.replay_stats svc with
      | Some r ->
          check_int "every workload recovered" 6 r.Service.workloads_recovered;
          check_int "nothing skipped" 0 r.Service.records_skipped
      | None -> Alcotest.fail "no replay stats");
      let resident () =
        match
          Option.bind
            (Json.member "workloads_resident" (Service.handle_line svc {|{"req":"stats"}|}))
            Json.to_int_opt
        with
        | Some n -> n
        | None -> Alcotest.fail "stats lacks workloads_resident"
      in
      check_int "every old version is a root" 6 (resident ());
      List.iter
        (fun ((d, p), _, _) ->
          let r = ok_reply "solve" (Service.handle_line svc (request "solve" d [])) in
          check_bool "cached" true (bool_field r "cached");
          check_string "its plan" p (str_field r "plan_digest"))
        versions;
      (* Three updates derived after the upgrade: only the newest stays. *)
      let (newest, _), _, _ = List.nth versions 5 in
      let d1, _ = update svc newest 91 in
      let d2, _ = update svc d1 92 in
      ignore (update svc d2 93);
      check_int "the old roots and the newest version" 7 (resident ());
      check_int "no solver run" 0 (Service.solver_runs svc);
      Service.close svc)

(* ----- pool backpressure ----- *)

let test_pool_backpressure () =
  let pool = Pool.start ~queue_depth:1 ~workers:1 () in
  let release = Atomic.make false in
  let started = Atomic.make false in
  check_bool "first job accepted" true
    (Pool.submit pool (fun () ->
         Atomic.set started true;
         while not (Atomic.get release) do
           Unix.sleepf 0.001
         done));
  while not (Atomic.get started) do
    Unix.sleepf 0.001
  done;
  check_bool "second job queues" true (Pool.submit pool (fun () -> ()));
  check_bool "third job shed" false (Pool.submit pool (fun () -> ()));
  check_int "queue length" 1 (Pool.queue_length pool);
  check_int "rejection counted" 1 (Pool.rejected pool);
  Atomic.set release true;
  Pool.shutdown pool;
  check_bool "submit after shutdown shed" false (Pool.submit pool (fun () -> ()))

(* ----- wire faults: proxy + resilient client ----- *)

(* A real server on a Unix socket, with a byte-mangling TCP proxy in
   front; [f] gets the proxy address to aim clients at. *)
let with_faulty_server plan f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mcss-faults-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let svc = Service.create () in
  ignore (Service.load_workload svc (test_workload ()));
  let config =
    { Server.default_config with Server.workers = 2; accept_tick_s = 0.05 }
  in
  let upstream = Server.Unix_socket path in
  let server = Domain.spawn (fun () -> Server.run ~config svc upstream) in
  let rec wait tries =
    if tries = 0 then Alcotest.fail "server never came up";
    match Client.connect upstream with
    | Ok c -> Client.close c
    | Error _ ->
        Unix.sleepf 0.02;
        wait (tries - 1)
  in
  wait 200;
  let proxy = Faulty.start ~plan ~upstream () in
  Fun.protect
    ~finally:(fun () ->
      Faulty.stop proxy;
      (match
         Client.with_connection upstream (fun c ->
             Client.request c (Json.Obj [ ("req", Json.String "shutdown") ]))
       with
      | Ok _ | Error _ -> ());
      Domain.join server;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () -> f proxy svc)

let fast_policy =
  {
    Retry.max_attempts = 4;
    base_ms = 1.;
    cap_ms = 10.;
    attempt_timeout_ms = Some 2000.;
  }

let health_env =
  { Protocol.id = None; deadline_ms = None; request = Protocol.Health }

let test_client_retries_through_reset () =
  (* Connection 0 aborts the reply with a real RST; the retry lands on
     connection 1 and succeeds. *)
  let plan ~conn =
    if conn = 0 then
      { Faulty.clean with Faulty.to_client = [ Faulty.Reset_after 0 ] }
    else Faulty.clean
  in
  with_faulty_server plan (fun proxy _svc ->
      let o =
        Client.call ~policy:fast_policy ~rng:(Rng.create 11)
          (Faulty.address proxy) health_env
      in
      (match o.Retry.result with
      | Ok reply -> ignore (ok_reply "health through reset" reply)
      | Error m -> Alcotest.failf "call failed: %s" m);
      check_int "exactly one retry" 2 o.Retry.attempts;
      check_int "proxy saw both connections" 2 (Faulty.connections proxy))

let test_client_retries_through_garbage () =
  (* Connection 0's reply is prefixed with HTTP junk — unparseable, so
     the client treats it as a transport failure and replays. *)
  let plan ~conn =
    if conn = 0 then
      { Faulty.clean with Faulty.to_client = [ Faulty.Garbage "HTTP/1.1 200 OK\r\n" ] }
    else Faulty.clean
  in
  with_faulty_server plan (fun proxy _svc ->
      let o =
        Client.call ~policy:fast_policy ~rng:(Rng.create 12)
          (Faulty.address proxy) health_env
      in
      (match o.Retry.result with
      | Ok reply -> ignore (ok_reply "health through garbage" reply)
      | Error m -> Alcotest.failf "call failed: %s" m);
      check_int "retried once" 2 o.Retry.attempts)

let test_partial_writes_and_trickle_are_harmless () =
  (* Chopped request bytes and a trickled reply exercise both line
     readers without ever constituting a failure. *)
  let plan ~conn:_ =
    {
      Faulty.to_server = [ Faulty.Chop 3 ];
      to_client = [ Faulty.Trickle { chunk = 7; delay_ms = 0.2 } ];
    }
  in
  with_faulty_server plan (fun proxy _svc ->
      let o =
        Client.call ~policy:fast_policy ~rng:(Rng.create 13)
          (Faulty.address proxy) health_env
      in
      (match o.Retry.result with
      | Ok reply -> ignore (ok_reply "health through chop+trickle" reply)
      | Error m -> Alcotest.failf "call failed: %s" m);
      check_int "no retry needed" 1 o.Retry.attempts)

let test_torn_frame_then_recovery () =
  (* Connection 0 tears the request mid-frame (clean FIN): the server
     must drop the half line without crashing, and the retry succeeds. *)
  let plan ~conn =
    if conn = 0 then
      { Faulty.clean with Faulty.to_server = [ Faulty.Tear_after 5 ] }
    else Faulty.clean
  in
  with_faulty_server plan (fun proxy svc ->
      let o =
        Client.call ~policy:fast_policy ~rng:(Rng.create 14)
          (Faulty.address proxy) health_env
      in
      (match o.Retry.result with
      | Ok reply -> ignore (ok_reply "health through torn frame" reply)
      | Error m -> Alcotest.failf "call failed: %s" m);
      check_int "retried once" 2 o.Retry.attempts;
      (* The server is still fully alive. *)
      ignore (ok_reply "service healthy" (Service.handle_line svc {|{"req":"health"}|})))

let test_blackhole_times_out_then_recovers () =
  (* Connection 0's reply direction is blackholed: the socket stays
     open, bytes vanish, nothing ever comes back — the shape of a
     dropped-packets partition, not a dead process. The client's
     receive timeout must fire (not hang, not crash on the channel's
     [Sys_blocked_io]) and the retry through a clean connection
     succeeds. *)
  let plan ~conn =
    if conn = 0 then
      { Faulty.clean with Faulty.to_client = [ Faulty.Blackhole ] }
    else Faulty.clean
  in
  with_faulty_server plan (fun proxy _svc ->
      let policy = { fast_policy with Retry.attempt_timeout_ms = Some 300. } in
      let o =
        Client.call ~policy ~rng:(Rng.create 15) (Faulty.address proxy)
          health_env
      in
      (match o.Retry.result with
      | Ok reply -> ignore (ok_reply "health through blackhole" reply)
      | Error m -> Alcotest.failf "call failed: %s" m);
      check_int "timed out once, then clean" 2 o.Retry.attempts;
      (* Flip the link to a full partition and sever live connections:
         the next call sees only swallowed bytes and must come back a
         timeout error, not a hang. *)
      Faulty.set_plan proxy (fun ~conn:_ ->
          { Faulty.to_server = [ Faulty.Blackhole ];
            to_client = [ Faulty.Blackhole ] });
      Faulty.sever proxy;
      let o2 =
        Client.call ~policy:{ policy with Retry.max_attempts = 2 }
          ~rng:(Rng.create 16) (Faulty.address proxy) health_env
      in
      (match o2.Retry.result with
      | Ok reply -> Alcotest.failf "partitioned call succeeded: %s" (Json.to_string reply)
      | Error _ -> ());
      (* Heal: new connections forward cleanly again. *)
      Faulty.set_plan proxy (fun ~conn:_ -> Faulty.clean);
      Faulty.sever proxy;
      let o3 =
        Client.call ~policy ~rng:(Rng.create 17) (Faulty.address proxy)
          health_env
      in
      match o3.Retry.result with
      | Ok reply -> ignore (ok_reply "health after heal" reply)
      | Error m -> Alcotest.failf "healed call failed: %s" m)

let test_non_idempotent_requests_not_replayed () =
  (* Force the idempotence gate with a request the codec cannot prove
     safe: every current verb is idempotent, so instead check the gate
     directly and that [call] consults it. *)
  check_bool "all current verbs replayable" true
    (List.for_all Protocol.idempotent
       [ Protocol.Health; Protocol.Stats; Protocol.Metrics; Protocol.Shutdown ])

(* ----- signal storm: EINTR everywhere ----- *)

let test_signal_storm_journal_and_solve () =
  with_dir (fun dir ->
      Faulty.with_signal_storm ~interval_ms:0.2 (fun () ->
          (* Journal under fire: every append write/fsync risks EINTR. *)
          let config = Journal.default_config ~dir in
          let j, _ = Journal.open_ config in
          for i = 1 to 50 do
            Journal.append j (Printf.sprintf "record-%d" i)
          done;
          Journal.close j;
          let j2, replay = Journal.open_ config in
          check_int "all records survive the storm" 50
            (List.length replay.Journal.records);
          check_int "no corruption" 0 replay.Journal.corrupt_records;
          Journal.close j2;
          (* And a full in-process solve still works. *)
          let svc = Service.create () in
          let digest = Service.load_workload svc (test_workload ()) in
          ignore
            (ok_reply "solve during storm"
               (Service.handle_line svc
                  (Printf.sprintf {|{"req":"solve","digest":"%s","tau":12}|} digest)))))

(* ----- qcheck: the strict JSON codec never lies, never raises ----- *)

(* Random values for the codec round trip: strings full of quotes,
   backslashes, control bytes and multi-byte UTF-8; the int extremes;
   non-finite floats; nested lists/objects with duplicate keys. *)
let json_gen =
  let open QCheck.Gen in
  let piece =
    oneof
      [
        map (String.make 1) (oneofl [ '"'; '\\'; '/'; '\n'; '\r'; '\t'; '\b'; '\127' ]);
        map (String.make 1) (char_range '\000' '\031');
        oneofl [ "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9f\x98\x80" ];
        string_size ~gen:char (int_bound 4);
      ]
  in
  let str = map (String.concat "") (list_size (int_bound 5) piece) in
  let key = oneof [ oneofl [ "a"; "b"; "" ]; str ] in
  let leaf =
    frequency
      [
        (1, return Json.Null);
        (1, map (fun b -> Json.Bool b) bool);
        (2, map (fun i -> Json.Int i) (oneof [ int; oneofl [ min_int; max_int; 0; -1 ] ]));
        ( 2,
          map
            (fun x -> Json.Float x)
            (oneof [ float; oneofl [ nan; infinity; neg_infinity; -0.; 0.1; 1e300; 5e-324 ] ])
        );
        (2, map (fun s -> Json.String s) str);
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 3))));
               (1, map (fun l -> Json.Obj l) (list_size (int_bound 4) (pair key (self (n / 3)))));
             ])

(* Equality up to the printer's documented relaxations: non-finite
   floats print as null, floats print at 12 significant digits, and an
   integral float reparses as [Int]. *)
let rec json_equiv original reparsed =
  let g12 x = float_of_string (Printf.sprintf "%.12g" x) in
  match (original, reparsed) with
  | Json.Float x, Json.Null -> not (Float.is_finite x)
  | Json.Float x, Json.Float y -> Float.is_finite x && g12 x = y
  | Json.Float x, Json.Int i -> Float.is_finite x && g12 x = float_of_int i
  | Json.List a, Json.List b -> List.equal json_equiv a b
  | Json.Obj a, Json.Obj b ->
      List.equal (fun (k, v) (k', v') -> String.equal k k' && json_equiv v v') a b
  | a, b -> a = b

let json_arb = QCheck.make json_gen ~print:Json.to_string

(* Containers only, for the prefix property: a strict prefix of a
   rendered list/object/string is never valid JSON (a prefix of a bare
   number can be). *)
let json_container_arb =
  QCheck.make
    QCheck.Gen.(map (fun l -> Json.List l) (list_size (int_bound 6) json_gen))
    ~print:Json.to_string

let prop_roundtrip j =
  match Json.parse (Json.to_string j) with Ok j' -> json_equiv j j' | Error _ -> false

let prop_never_raises s =
  match Json.parse s with Ok _ | Error _ -> true

let prop_prefix_rejected (j, cut) =
  let s = Json.to_string j in
  let prefix = String.sub s 0 (cut mod String.length s) in
  match Json.parse prefix with Ok _ -> false | Error _ -> true

let prop_trailing_garbage_rejected j =
  match Json.parse (Json.to_string j ^ " x") with
  | Ok _ -> false
  | Error _ -> true

let suite =
  [
    Alcotest.test_case "crc32 check value" `Quick test_crc32_vector;
    Alcotest.test_case "journal: append/replay round-trip" `Quick
      test_journal_roundtrip;
    Alcotest.test_case "journal: torn tail truncated" `Quick test_journal_torn_tail;
    Alcotest.test_case "journal: corrupt record cuts the scan" `Quick
      test_journal_corrupt_record;
    Alcotest.test_case "journal: snapshot folds the WAL" `Quick test_journal_snapshot;
    Alcotest.test_case "service: kill -9 crash restart" `Quick
      test_service_crash_restart;
    Alcotest.test_case "service: snapshot-era restart" `Quick
      test_service_snapshot_restart;
    Alcotest.test_case "service: evicted versions survive snapshot, restart, resync" `Quick
      test_evicted_versions_durable;
    Alcotest.test_case "service: an old snapshot's versions replay as roots" `Quick
      test_snapshot_of_loads_keeps_roots;
    Alcotest.test_case "service: garbage journal records skipped" `Quick
      test_journal_tolerates_garbage_records;
    Alcotest.test_case "breaker: full state machine" `Quick test_breaker_fsm;
    Alcotest.test_case "retry: backoff bounds" `Quick test_backoff_bounds;
    Alcotest.test_case "retry: run semantics" `Quick test_retry_run;
    Alcotest.test_case "single-flight: stampede collapses to one solve" `Quick
      test_single_flight_dedup;
    Alcotest.test_case "single-flight: leader exception shared" `Quick
      test_single_flight_exception;
    Alcotest.test_case "deadline: born expired is deterministic" `Quick
      test_deadline_born_expired;
    Alcotest.test_case "degraded: open circuit serves the last plan" `Quick
      test_service_degraded_flow;
    Alcotest.test_case "degraded: no fallback is an error" `Quick
      test_service_degraded_no_fallback;
    Alcotest.test_case "degraded: fallback survives a crash" `Quick
      test_degraded_survives_restart;
    Alcotest.test_case "pool: bounded queue sheds" `Quick test_pool_backpressure;
    Alcotest.test_case "faulty: retry through a reset" `Quick
      test_client_retries_through_reset;
    Alcotest.test_case "faulty: retry through garbage bytes" `Quick
      test_client_retries_through_garbage;
    Alcotest.test_case "faulty: chop and trickle are harmless" `Quick
      test_partial_writes_and_trickle_are_harmless;
    Alcotest.test_case "faulty: torn frame then recovery" `Quick
      test_torn_frame_then_recovery;
    Alcotest.test_case "faulty: blackhole partition times out, heals" `Quick
      test_blackhole_times_out_then_recovers;
    Alcotest.test_case "idempotence gate" `Quick
      test_non_idempotent_requests_not_replayed;
    Alcotest.test_case "signal storm: EINTR absorbed" `Quick
      test_signal_storm_journal_and_solve;
    Helpers.qtest ~count:500 "json: print/parse round-trip" json_arb prop_roundtrip;
    Helpers.qtest ~count:500 "json: parser never raises"
      QCheck.(string_of_size Gen.(int_bound 64))
      prop_never_raises;
    Helpers.qtest ~count:500 "json: truncated input rejected"
      QCheck.(pair json_container_arb (QCheck.make Gen.(int_bound 10_000)))
      prop_prefix_rejected;
    Helpers.qtest ~count:500 "json: trailing garbage rejected" json_arb
      prop_trailing_garbage_rejected;
  ]
