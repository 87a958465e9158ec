module Rng = Mcss_prng.Rng
module Workload = Mcss_workload.Workload
module Wio = Mcss_workload.Wio
module Registry = Mcss_obs.Registry
module Counter = Mcss_obs.Metric.Counter
module Clock = Mcss_obs.Clock

type config = {
  seed : int;
  partitions : int;
  updates_per_phase : int;
  quorum_acks : int;
  quorum_timeout_ms : float;
  log : string -> unit;
}

let default_config =
  {
    seed = 42;
    partitions = 3;
    updates_per_phase = 3;
    quorum_acks = 2;
    (* Loopback quorum acks land in single-digit milliseconds, so a
       partitioned write is refused fast instead of pinning one of the
       node's two workers on the commit gate for seconds — the refusal
       itself is what the harness asserts on. Must stay below the
       router policy's [attempt_timeout_ms]: the client has to outwait
       the gate to *see* the [no_quorum] refusal rather than abandon
       the attempt mid-wait. *)
    quorum_timeout_ms = 500.;
    log = ignore;
  }

type report = {
  r_seed : int;
  r_replicas : int;
  r_partitions : int;
  r_heals : int;
  r_stale_leader_revivals : int;
  r_updates_sent : int;
  r_updates_acked : int;
  r_updates_unacked : int;
  r_direct_attacks : int;
  r_direct_attacks_acked : int;
  r_final_epoch : int;
  r_auto_promotions : int;
  r_fenced_demotions : int;
  r_not_leader_reroutes : int;
  r_divergent_tails : int;
  r_truncated_records : int;
  r_recovery_ms : float list;
  r_recovery_p50_ms : float;
  r_recovery_p95_ms : float;
  r_single_writer_per_epoch : bool;
  r_no_acked_update_lost : bool;
  r_journals_converged : bool;
  r_plan_digests_converged : bool;
  r_journals_verify_clean : bool;
  r_notes : string list;
}

let passed r =
  r.r_single_writer_per_epoch && r.r_no_acked_update_lost
  && r.r_journals_converged && r.r_plan_digests_converged
  && r.r_journals_verify_clean
  && r.r_auto_promotions >= 1

let report_to_json r =
  Json.Obj
    [
      ("seed", Json.Int r.r_seed);
      ("replicas", Json.Int r.r_replicas);
      ("partitions", Json.Int r.r_partitions);
      ("heals", Json.Int r.r_heals);
      ("stale_leader_revivals", Json.Int r.r_stale_leader_revivals);
      ("updates_sent", Json.Int r.r_updates_sent);
      ("updates_acked", Json.Int r.r_updates_acked);
      ("updates_unacked", Json.Int r.r_updates_unacked);
      ("direct_attacks", Json.Int r.r_direct_attacks);
      ("direct_attacks_acked", Json.Int r.r_direct_attacks_acked);
      ("final_epoch", Json.Int r.r_final_epoch);
      ("auto_promotions", Json.Int r.r_auto_promotions);
      ("fenced_demotions", Json.Int r.r_fenced_demotions);
      ("not_leader_reroutes", Json.Int r.r_not_leader_reroutes);
      ("divergent_tails", Json.Int r.r_divergent_tails);
      ("truncated_records", Json.Int r.r_truncated_records);
      ("recovery_ms", Json.List (List.map (fun x -> Json.Float x) r.r_recovery_ms));
      ("recovery_p50_ms", Json.Float r.r_recovery_p50_ms);
      ("recovery_p95_ms", Json.Float r.r_recovery_p95_ms);
      ( "invariants",
        Json.Obj
          [
            ("single_writer_per_epoch", Json.Bool r.r_single_writer_per_epoch);
            ("no_acked_update_lost", Json.Bool r.r_no_acked_update_lost);
            ("journals_converged", Json.Bool r.r_journals_converged);
            ("plan_digests_converged", Json.Bool r.r_plan_digests_converged);
            ("journals_verify_clean", Json.Bool r.r_journals_verify_clean);
            ("automatic_promotion_observed", Json.Bool (r.r_auto_promotions >= 1));
          ] );
      ("passed", Json.Bool (passed r));
      ("notes", Json.List (List.map (fun s -> Json.String s) r.r_notes));
    ]

(* ----- scratch space ----- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* ----- the cluster under test -----

   Three planning services, each with its own journal, its own request
   socket, and its own always-on replication hub. Every byte between
   processes crosses a {!Faulty} proxy:

   - the router reaches node [i]'s request socket through [req_proxy.(i)];
   - follower [i] reaches node [j]'s replication hub through
     [rep_proxy.(i).(j)].

   A partition is therefore just [Faulty.set_plan] (blackhole) +
   [Faulty.sever] on the right proxies, and a heal the reverse — no
   process is ever actually killed, which is exactly what makes the
   revived-stale-leader scenario honest: the old leader keeps running
   and believing. *)

type node = {
  idx : int;
  node_name : string;
  dir : string;
  svc : Service.t;
  obs : Registry.t;
  req_addr : Server.address;
  server_dom : unit Domain.t;
  hub : Replication.leader;
  req_proxy : Faulty.t;
}

let replicas = 3

let blackhole_script =
  { Faulty.to_server = [ Faulty.Blackhole ]; to_client = [ Faulty.Blackhole ] }

let now_ms () = Clock.ns_to_seconds (Clock.now_ns ()) *. 1000.

exception Nemesis_timeout of string

let wait_until ?(timeout_s = 30.) ~what pred =
  let t0 = Clock.now_ns () in
  let rec go () =
    if pred () then ()
    else if Clock.seconds_since t0 > timeout_s then raise (Nemesis_timeout what)
    else begin
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()

let json_str j key = Json.member key j |> Fun.flip Option.bind Json.to_string_opt

let test_workload =
  Workload.create
    ~event_rates:[| 20.; 10.; 5. |]
    ~interests:[| [| 0; 1 |]; [| 0; 1 |]; [| 1; 2 |]; [| 2 |] |]

let params = { Protocol.default_params with Protocol.tau = 100. }

let env request = { Protocol.id = None; deadline_ms = None; request }

let handle_env svc e = Service.handle_line svc (Json.to_string (Protocol.encode e))

(* An acknowledged update survives in [records] as its journaled delta
   batch, or as a [load] of the workload it produced (a snapshot written
   by a build that folded versions into loads). *)
let journal_has records (deltas, new_digest) =
  List.exists
    (fun (_, payload) ->
      match Record.of_string payload with
      | Some (Record.Update u) -> u.deltas = deltas
      | Some (Record.Load l) -> l.digest = new_digest
      | _ -> false)
    records

let run config =
  if config.partitions < 3 then
    invalid_arg "Nemesis.run: at least 3 partitions (the schedule must cover \
                 leader isolation, an asymmetric link, and a follower pause)";
  if config.quorum_acks < 1 || config.quorum_acks > replicas then
    invalid_arg "Nemesis.run: quorum_acks must be in [1, replicas]";
  let log = config.log in
  let rng = Rng.create config.seed in
  let scratch =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mcss-nemesis-%d-%d" (Unix.getpid ()) config.seed)
  in
  Unix.mkdir scratch 0o755;
  let notes = ref [] in
  let note fmt =
    Printf.ksprintf
      (fun s ->
        log s;
        notes := s :: !notes)
      fmt
  in
  Fun.protect ~finally:(fun () -> rm_rf scratch) @@ fun () ->
  (* --- build the cluster --- *)
  let rep_addr i =
    Server.Unix_socket (Filename.concat scratch (Printf.sprintf "rep%d.sock" i))
  in
  let make_node idx =
    let node_name = Printf.sprintf "node%d" idx in
    let dir = Filename.concat scratch node_name in
    let obs = Registry.create () in
    let svc =
      Service.create ~obs
        ~config:
          {
            Service.default_config with
            Service.name = node_name;
            quorum_acks = config.quorum_acks;
            quorum_timeout_ms = config.quorum_timeout_ms;
            journal =
              Some
                {
                  (Journal.default_config ~dir) with
                  Journal.snapshot_every = 0;
                };
          }
        ~role:(if idx = 0 then Service.Leader else Service.Follower)
        ()
    in
    let req_addr =
      Server.Unix_socket (Filename.concat scratch (node_name ^ ".sock"))
    in
    let server_dom =
      Domain.spawn (fun () ->
          Server.run
            ~config:
              {
                Server.default_config with
                Server.workers = 2;
                accept_tick_s = 0.05;
              }
            svc req_addr)
    in
    let hub = Replication.start_leader ~service:svc (rep_addr idx) in
    Service.set_commit_gate svc
      (Some
         (fun ~index ->
           Replication.commit_gate hub ~quorum:config.quorum_acks
             ~timeout_ms:config.quorum_timeout_ms ~index));
    let req_proxy = Faulty.start ~upstream:req_addr () in
    { idx; node_name; dir; svc; obs; req_addr; server_dom; hub; req_proxy }
  in
  let nodes = Array.init replicas make_node in
  Array.iter
    (fun n ->
      wait_until ~timeout_s:10. ~what:(n.node_name ^ " request server")
        (fun () ->
          match Client.connect n.req_addr with
          | Ok c ->
              Client.close c;
              true
          | Error _ -> false))
    nodes;
  (* rep_proxy.(i).(j): the proxy follower [i] dials to reach [j]'s hub. *)
  let rep_proxy =
    Array.init replicas (fun i ->
        Array.init replicas (fun j ->
            if i = j then None
            else Some (Faulty.start ~upstream:(rep_addr j) ())))
  in
  let rep_proxy_exn i j =
    match rep_proxy.(i).(j) with Some p -> p | None -> assert false
  in
  (* --- follower controllers --- *)
  let stop_all = Atomic.make false in
  let targets = Array.init replicas (fun _ -> Atomic.make None) in
  let controllers =
    Array.map
      (fun n ->
        Domain.spawn (fun () ->
            let rec loop () =
              if Atomic.get stop_all then ()
              else begin
                (match Atomic.get targets.(n.idx) with
                | Some j when Service.role n.svc = Service.Follower ->
                    Replication.follow ~reconnect_ms:100. ~service:n.svc
                      ~stop:(fun () ->
                        Atomic.get stop_all
                        || Atomic.get targets.(n.idx) <> Some j)
                      (Faulty.address (rep_proxy_exn n.idx j))
                | _ -> Unix.sleepf 0.05);
                loop ()
              end
            in
            loop ()))
      nodes
  in
  (* --- router (driven in-process; probes go over the proxied wire) --- *)
  let router_obs = Registry.create () in
  let router =
    Router.create ~obs:router_obs
      ~config:
        {
          Router.default_config with
          Router.auto_promote = true;
          promote_after = 2;
          policy =
            {
              Retry.max_attempts = 2;
              base_ms = 5.;
              cap_ms = 25.;
              (* Above [quorum_timeout_ms] (a quorum refusal must
                 arrive before the client gives up on the attempt) but
                 small against the 60 s recovery deadline: a blackholed
                 member costs one full attempt timeout per probe, so
                 this bounds how long each recovery tick burns against
                 the partition. *)
              attempt_timeout_ms = Some 750.;
            };
          log;
        }
      [
        {
          Router.shard_name = "s0";
          members =
            Array.to_list
              (Array.map
                 (fun n ->
                   { Router.name = n.node_name; address = Faulty.address n.req_proxy })
                 nodes);
        };
      ]
  in
  let idx_of_name name =
    match Array.to_list nodes |> List.find_opt (fun n -> n.node_name = name) with
    | Some n -> n.idx
    | None -> -1
  in
  let router_head () =
    let stats = Router.handle router (env Protocol.Stats) in
    match Json.member "shards" stats with
    | Some (Json.List (shard :: _)) -> (
        match Json.member "members" shard with
        | Some (Json.List (m :: _)) ->
            Option.value ~default:"" (json_str m "name")
        | _ -> "")
    | _ -> ""
  in
  (* Point every non-leader at the router's current head. The router owns
     leadership; the controllers just chase it. *)
  let retarget () =
    let head = idx_of_name (router_head ()) in
    if head >= 0 then
      Array.iteri
        (fun i tgt -> Atomic.set tgt (if i = head then None else Some head))
        targets
  in
  let tick () =
    Router.probe_all router;
    Router.failover_all router;
    retarget ()
  in
  Atomic.set targets.(1) (Some 0);
  Atomic.set targets.(2) (Some 0);
  (* --- workload generator + operation history --- *)
  let op_counter = ref 0 in
  let updates_sent = ref 0 in
  let updates_unacked = ref 0 in
  (* Every acked update is remembered as (unique delta marker, the new
     workload digest it produced): the invariant checker later demands
     both survive on every replica. *)
  let acked : (string * string) list ref = ref [] in
  let current_digest = ref "" in
  let send_update via =
    incr op_counter;
    incr updates_sent;
    let marker_rate = 50. +. float_of_int !op_counter in
    let deltas = Printf.sprintf "mcss-deltas 1\nrate 0 %.17g\n" marker_rate in
    let e =
      env (Protocol.Update { digest = !current_digest; params; deltas })
    in
    let reply = via e in
    if Protocol.response_ok reply then begin
      (match json_str reply "digest" with
      | Some d ->
          acked := (deltas, d) :: !acked;
          current_digest := d
      | None -> ());
      Ok reply
    end
    else begin
      incr updates_unacked;
      Error reply
    end
  in
  let update_via_router () = send_update (Router.handle router) in
  let caught_up () =
    let last n = Service.journal_last_index n.svc in
    last nodes.(0) = last nodes.(1) && last nodes.(1) = last nodes.(2)
  in
  (* --- cluster boot: load, solve, steady traffic, full replication --- *)
  let load_reply =
    let rec go attempts =
      let reply =
        Router.handle router
          (env (Protocol.Load (`Inline (Wio.to_string test_workload))))
      in
      if Protocol.response_ok reply || attempts = 0 then reply
      else begin
        (* The first load can race the followers' first dial: quorum is
           not reachable for a few hundred ms. The load is
           content-addressed, so retrying is safe. *)
        Unix.sleepf 0.2;
        go (attempts - 1)
      end
    in
    go 20
  in
  if not (Protocol.response_ok load_reply) then
    raise
      (Nemesis_timeout
         (Printf.sprintf "initial load never acked: %s"
            (Json.to_string load_reply)));
  current_digest :=
    (match json_str load_reply "digest" with Some d -> d | None -> "");
  ignore
    (Router.handle router
       (env (Protocol.Solve { digest = !current_digest; params })));
  for _ = 1 to config.updates_per_phase do
    ignore (update_via_router ())
  done;
  wait_until ~what:"initial replication" caught_up;
  note "boot: %d updates acked, journals level at %s" (List.length !acked)
    (match Service.journal_last_index nodes.(0).svc with
    | Some i -> string_of_int i
    | None -> "?");
  (* --- fault schedule --- *)
  let heals = ref 0 in
  let revivals = ref 0 in
  let direct_attacks = ref 0 in
  let direct_attacks_acked = ref 0 in
  let recovery_ms = ref [] in
  let set_router_link i script =
    Faulty.set_plan nodes.(i).req_proxy (fun ~conn:_ -> script);
    Faulty.sever nodes.(i).req_proxy
  in
  let set_rep_link i j script =
    let p = rep_proxy_exn i j in
    Faulty.set_plan p (fun ~conn:_ -> script);
    Faulty.sever p
  in
  let isolate i =
    set_router_link i blackhole_script;
    for j = 0 to replicas - 1 do
      if j <> i then begin
        set_rep_link i j blackhole_script;
        set_rep_link j i blackhole_script
      end
    done
  in
  let heal_all () =
    incr heals;
    Array.iteri (fun i _ -> set_router_link i Faulty.clean) nodes;
    for i = 0 to replicas - 1 do
      for j = 0 to replicas - 1 do
        if i <> j then set_rep_link i j Faulty.clean
      done
    done
  in
  let leader_idx () =
    let head = idx_of_name (router_head ()) in
    if head >= 0 then head else 0
  in
  let followers_of leader =
    List.filter (fun i -> i <> leader) (List.init replicas Fun.id)
  in
  (* The first three phases cover the three required shapes in a seeded
     order; extra phases re-draw from the same pool. *)
  let base_kinds = [| `Isolate_leader; `Asym_link; `Isolate_follower |] in
  let kind_of_phase p =
    if p < 3 then begin
      (* A seeded Fisher-Yates of the three mandatory shapes, fixed for
         the whole run. *)
      let order = Array.copy base_kinds in
      let shuffle_rng = Rng.create (config.seed + 7919) in
      for k = 2 downto 1 do
        let j = Rng.int shuffle_rng (k + 1) in
        let tmp = order.(k) in
        order.(k) <- order.(j);
        order.(j) <- tmp
      done;
      order.(p)
    end
    else base_kinds.(Rng.int rng 3)
  in
  let steady () =
    (* Keep traffic flowing; failures here are recorded, not fatal —
       they are what the invariants adjudicate at the end. *)
    for _ = 1 to config.updates_per_phase do
      tick ();
      ignore (update_via_router ());
      ignore
        (Router.handle router
           (env (Protocol.Solve { digest = !current_digest; params })))
    done
  in
  let recover_updates ~t0 =
    (* Drive ticks until an update goes through again; the elapsed time
       is the headline recovery number. *)
    let start = Clock.now_ns () in
    let rec go () =
      if Clock.seconds_since start > 60. then
        raise (Nemesis_timeout "updates never recovered after a partition");
      tick ();
      match update_via_router () with
      | Ok _ -> recovery_ms := (now_ms () -. t0) :: !recovery_ms
      | Error _ ->
          Unix.sleepf 0.1;
          go ()
    in
    go ()
  in
  for phase = 0 to config.partitions - 1 do
    tick ();
    let leader = leader_idx () in
    (match kind_of_phase phase with
    | `Isolate_leader ->
        note "phase %d: isolating leader %s" phase nodes.(leader).node_name;
        isolate leader;
        let t0 = now_ms () in
        (* The severed leader still believes: hit it directly, as a
           client with a stale address would. Quorum acks must refuse. *)
        incr direct_attacks;
        let e =
          env
            (Protocol.Update
               {
                 digest = !current_digest;
                 params;
                 deltas = "mcss-deltas 1\nrate 1 999.0\n";
               })
        in
        if Protocol.response_ok (handle_env nodes.(leader).svc e) then
          incr direct_attacks_acked;
        recover_updates ~t0;
        note "phase %d: recovered through %s" phase (router_head ());
        steady ();
        heal_all ();
        incr revivals;
        (* The healed node comes back claiming leadership; the router
           must fence it and the controllers re-point it at the winner. *)
        wait_until ~what:"stale leader demoted" (fun () ->
            tick ();
            Service.role nodes.(leader).svc = Service.Follower);
        note "phase %d: stale leader %s fenced at epoch %d" phase
          nodes.(leader).node_name
          (Service.epoch nodes.(leader).svc)
    | `Asym_link ->
        let f =
          let fs = followers_of leader in
          List.nth fs (Rng.int rng (List.length fs))
        in
        note "phase %d: asymmetric link %s -> %s (requests blackholed one way)"
          phase nodes.(f).node_name nodes.(leader).node_name;
        (* Follower -> leader bytes vanish; leader -> follower still
           flows. The follower's hello never lands, so it stalls and its
           acks stop counting toward quorum — the other follower must
           carry it. *)
        set_rep_link f leader
          { Faulty.clean with Faulty.to_server = [ Faulty.Blackhole ] };
        steady ();
        heal_all ()
    | `Isolate_follower ->
        let f =
          let fs = followers_of leader in
          List.nth fs (Rng.int rng (List.length fs))
        in
        note "phase %d: isolating follower %s (pause)" phase
          nodes.(f).node_name;
        isolate f;
        steady ();
        heal_all ());
    tick ();
    wait_until ~timeout_s:60. ~what:"journals to reconverge after heal"
      (fun () ->
        tick ();
        caught_up ())
  done;
  (* --- settle and check --- *)
  tick ();
  wait_until ~timeout_s:60. ~what:"final convergence" (fun () ->
      tick ();
      caught_up ());
  (* Bit-identical plans: the same solve answered from every replica's
     cache, no solver run anywhere. *)
  let plan_digests =
    Array.map
      (fun n ->
        let reply =
          handle_env n.svc
            (env (Protocol.Solve { digest = !current_digest; params }))
        in
        Option.value ~default:("missing@" ^ n.node_name)
          (json_str reply "plan_digest"))
      nodes
  in
  let plan_digests_converged =
    Array.for_all (fun d -> d = plan_digests.(0)) plan_digests
  in
  (* WAL suffixes from the highest base (a fenced node's reset moves its
     base forward) must be bit-identical triples. *)
  let common_base =
    Array.fold_left (fun acc n -> max acc (Journal.read_base n.dir)) 0 nodes
  in
  let suffixes =
    Array.map (fun n -> Service.journal_read_from n.svc ~index:common_base) nodes
  in
  let journals_converged =
    (* Same length, same servable span, and bit-identical
       (index, epoch, payload) triples. An empty suffix everywhere is
       converged too: the reset that raised [common_base] was the last
       append. *)
    caught_up ()
    && (match suffixes.(0) with
       | Error `Resync -> false
       | Ok s0 ->
           Array.for_all
             (function Ok s -> s = s0 | Error `Resync -> false)
             suffixes)
  in
  let final_epoch = Service.epoch nodes.(leader_idx ()).svc in
  (* --- tear down, then audit the journals cold --- *)
  Atomic.set stop_all true;
  Array.iter (fun tgt -> Atomic.set tgt None) targets;
  Array.iter
    (fun n ->
      ignore
        (Client.with_connection n.req_addr (fun c ->
             Client.request c (Json.Obj [ ("req", Json.String "shutdown") ]))))
    nodes;
  Array.iter (fun d -> Domain.join d) controllers;
  Array.iter (fun n -> Domain.join n.server_dom) nodes;
  Array.iter (fun n -> Replication.stop_leader n.hub) nodes;
  Array.iter (fun n -> Faulty.stop n.req_proxy) nodes;
  Array.iter (Array.iter (Option.iter Faulty.stop)) rep_proxy;
  Array.iter (fun n -> Service.close n.svc) nodes;
  let replays =
    Array.map
      (fun n ->
        let j, replay =
          Journal.open_
            { (Journal.default_config ~dir:n.dir) with Journal.fsync = false }
        in
        Journal.close j;
        replay.Journal.records)
      nodes
  in
  let verify_clean =
    Array.for_all
      (fun n ->
        let v = Journal.verify ~dir:n.dir in
        v.Journal.v_corrupt_records = 0
        && v.Journal.v_trailing_bytes = 0
        && v.Journal.v_epoch_regressions = 0)
      nodes
  in
  (* Invariant 1: across every surviving journal, each epoch has at most
     one distinct origin among journaled updates — no two leaders
     accepted writes in the same epoch. *)
  let epoch_origins : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  Array.iter
    (fun records ->
      List.iter
        (fun (epoch, payload) ->
          match Record.of_string payload with
          | Some (Record.Update { origin; _ }) ->
              let origin = Option.value ~default:"?" origin in
              let cur =
                Option.value ~default:[] (Hashtbl.find_opt epoch_origins epoch)
              in
              if not (List.mem origin cur) then
                Hashtbl.replace epoch_origins epoch (origin :: cur)
          | _ -> ())
        records)
    replays;
  let single_writer =
    Hashtbl.fold (fun _ origins acc -> acc && List.length origins <= 1)
      epoch_origins true
  in
  (* Invariant 2: every acknowledged update survives on every replica. *)
  let no_acked_lost =
    List.for_all
      (fun a -> Array.for_all (fun records -> journal_has records a) replays)
      !acked
  in
  let counter obs name = Counter.value (Registry.counter obs ~help:"" name) in
  let sum_nodes name =
    Array.fold_left (fun acc n -> acc + counter n.obs name) 0 nodes
  in
  let sorted = List.sort compare !recovery_ms in
  let recovery_pct = Mcss_workload.Stats.nearest_rank (Array.of_list sorted) in
  let r =
    {
      r_seed = config.seed;
      r_replicas = replicas;
      r_partitions = config.partitions;
      r_heals = !heals;
      r_stale_leader_revivals = !revivals;
      r_updates_sent = !updates_sent;
      r_updates_acked = List.length !acked;
      r_updates_unacked = !updates_unacked;
      r_direct_attacks = !direct_attacks;
      r_direct_attacks_acked = !direct_attacks_acked;
      r_final_epoch = final_epoch;
      r_auto_promotions = counter router_obs "serve.router.auto_promotions";
      r_fenced_demotions = counter router_obs "serve.router.fenced_demotions";
      r_not_leader_reroutes =
        counter router_obs "serve.router.not_leader_reroutes";
      r_divergent_tails = sum_nodes "serve.replication.divergent_tails";
      r_truncated_records = sum_nodes "serve.replication.truncated_records";
      r_recovery_ms = sorted;
      r_recovery_p50_ms = recovery_pct 0.50;
      r_recovery_p95_ms = recovery_pct 0.95;
      r_single_writer_per_epoch = single_writer;
      r_no_acked_update_lost = no_acked_lost;
      r_journals_converged = journals_converged;
      r_plan_digests_converged = plan_digests_converged;
      r_journals_verify_clean = verify_clean;
      r_notes = List.rev !notes;
    }
  in
  note "done: %d/%d updates acked, %d promotions, %d demotions, passed=%b"
    r.r_updates_acked r.r_updates_sent r.r_auto_promotions r.r_fenced_demotions
    (passed r);
  r
