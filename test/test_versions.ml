(* The service's version store (lib/serve/versions.ml), through the
   service: a state-machine test against a model that keeps every
   version in full, and the journals past builds left behind. *)

module Json = Mcss_json.Json
module Protocol = Mcss_serve.Protocol
module Service = Mcss_serve.Service
module Journal = Mcss_serve.Journal
module Workload = Mcss_workload.Workload
module Delta = Mcss_engine.Delta
module Delta_io = Mcss_engine.Delta_io
module Churn = Mcss_dynamic.Churn
module Rng = Mcss_prng.Rng

let config ?(snapshot_every = 2) dir =
  {
    Service.default_config with
    Service.journal =
      Some { (Journal.default_config ~dir) with Journal.snapshot_every; fsync = false };
  }

let request ?(extra = []) verb digest =
  Json.to_string
    (Json.Obj
       (("req", Json.String verb) :: ("digest", Json.String digest) :: ("tau", Json.Int 50)
       :: ("bc_events", Json.Int 10_000) :: extra))

let field key reply = Option.bind (Json.member key reply) Json.to_string_opt

let resident svc =
  Option.bind
    (Json.member "workloads_resident" (Service.handle_line svc {|{"req":"stats"}|}))
    Json.to_int_opt

(* ----- the model ----- *)

(* Indices pick from what exists when the operation runs: a workload of
   the case's pool, a loaded root, or an acked digest. *)
type op =
  | Load of int
  | Solve of int
  | Update of int * int  (** Base, churn seed. *)
  | Read of int
  | Expired_read of int  (** A read whose deadline has passed. *)
  | Restart  (** Close, then replay the journal. *)
  | Resync  (** A follower installs the service's [sync_state]. *)

let op_to_string = function
  | Load i -> Printf.sprintf "load %d" i
  | Solve i -> Printf.sprintf "solve %d" i
  | Update (i, s) -> Printf.sprintf "update %d/%d" i s
  | Read i -> Printf.sprintf "read %d" i
  | Expired_read i -> Printf.sprintf "expired-read %d" i
  | Restart -> "restart"
  | Resync -> "resync"

let op_gen =
  QCheck.Gen.(
    let idx = int_bound 1000 in
    frequency
      [
        (1, map (fun i -> Load i) idx);
        (1, map (fun i -> Solve i) idx);
        (6, map2 (fun i s -> Update (i, s)) idx (int_bound 1_000_000));
        (3, map (fun i -> Read i) idx);
        (2, map (fun i -> Expired_read i) idx);
        (1, return Restart);
        (1, return Resync);
      ])

type model = {
  workloads : (string, Workload.t) Hashtbl.t;  (** Every version, in full. *)
  plans : (string, string) Hashtbl.t;  (** Acked digest -> plan digest. *)
  mutable roots : string list;
  mutable acked : string list;  (** In the order first acked. *)
  mutable runs : int;  (** Solver runs the live service should have made. *)
}

let nth l i = List.nth l (i mod List.length l)

(* Every acked digest answers its acked plan from the cache, without a
   solver run, and at most the roots and the newest version are in
   memory. *)
let serves_acked name m svc =
  List.iter
    (fun d ->
      let r = Service.handle_line svc (request "solve" d) in
      if field "plan_digest" r <> Hashtbl.find_opt m.plans d
         || Json.member "cached" r <> Some (Json.Bool true)
      then Alcotest.failf "%s: %s did not answer its acked plan: %s" name d (Json.to_string r))
    m.acked

let check_invariants name m svc ~runs =
  if Service.solver_runs svc <> runs then
    Alcotest.failf "%s: %d solver runs, wanted %d" name (Service.solver_runs svc) runs;
  match resident svc with
  | Some n when n <= List.length m.roots + 1 -> ()
  | n ->
      Alcotest.failf "%s: %s workloads resident over %d roots" name
        (match n with Some n -> string_of_int n | None -> "?")
        (List.length m.roots)

let run_ops pool ops =
  Helpers.with_dir ~prefix:"mcss-versions" (fun dir ->
      let svc = ref (Service.create ~config:(config dir) ()) in
      let m =
        { workloads = Hashtbl.create 16; plans = Hashtbl.create 16; roots = []; acked = []; runs = 0 }
      in
      let ack d p =
        if not (Hashtbl.mem m.plans d) then m.acked <- m.acked @ [ d ];
        Hashtbl.replace m.plans d p
      in
      let step op =
        let name = op_to_string op in
        (match op with
        | Load i ->
            let w = pool.(i mod Array.length pool) in
            let d = Service.load_workload !svc w in
            Hashtbl.replace m.workloads d w;
            if not (List.mem d m.roots) then m.roots <- m.roots @ [ d ]
        | Solve i when m.roots <> [] -> (
            let d = nth m.roots i in
            let r = Service.handle_line !svc (request "solve" d) in
            match (field "plan_digest" r, Hashtbl.find_opt m.plans d) with
            | Some p, Some acked when p = acked -> ()
            | Some p, None ->
                m.runs <- m.runs + 1;
                ack d p
            | _ -> Alcotest.failf "%s: %s" name (Json.to_string r))
        | Update (i, seed) when m.acked <> [] -> (
            let d = nth m.acked i in
            let w = Hashtbl.find m.workloads d in
            let rng = Rng.create seed in
            let ds =
              Churn.tick rng (Churn.scaled 0.05) w
              @ [ Delta.Rate_change { topic = Rng.int rng (Workload.num_topics w); rate = 7. } ]
            in
            let r =
              Service.handle_line !svc
                (request "update" d ~extra:[ ("deltas", Json.String (Delta_io.to_string ds)) ])
            in
            let w' = Delta.apply w ds in
            match (field "digest" r, field "plan_digest" r) with
            | Some d', Some p when d' = Service.digest_of_workload w' ->
                Hashtbl.replace m.workloads d' w';
                ack d' p
            | _ -> Alcotest.failf "%s from %s: %s" name d (Json.to_string r))
        | Read i when m.acked <> [] ->
            let d = nth m.acked i in
            let r = Service.handle_line !svc (request "solve" d) in
            if field "plan_digest" r <> Hashtbl.find_opt m.plans d then
              Alcotest.failf "%s of %s: %s" name d (Json.to_string r)
        | Expired_read i when m.acked <> [] -> (
            let d = nth m.acked i in
            let r =
              Service.handle_line !svc
                (request "solve" d ~extra:[ ("deadline_ms", Json.Float 1e-6) ])
            in
            match Protocol.response_error r with
            | Some (Some Protocol.Timeout, _) -> ()
            | None when field "plan_digest" r = Hashtbl.find_opt m.plans d -> ()
            | _ -> Alcotest.failf "%s of %s: %s" name d (Json.to_string r))
        | Restart -> (
            Service.close !svc;
            svc := Service.create ~config:(config dir) ();
            m.runs <- 0;
            match Service.replay_stats !svc with
            | Some r when r.Service.records_skipped = 0 -> ()
            | Some r -> Alcotest.failf "%s: %d records skipped" name r.Service.records_skipped
            | None -> Alcotest.failf "%s: no replay" name)
        | Resync ->
            Helpers.with_dir ~prefix:"mcss-versions-follower" (fun fdir ->
                let base, epoch, state = Service.sync_state !svc in
                let follower =
                  Service.create ~config:(config ~snapshot_every:0 fdir) ~role:Service.Follower ()
                in
                (match Service.reset_to_snapshot follower ~base ~epoch state with
                | Ok () -> ()
                | Error e -> Alcotest.failf "%s: %s" name e);
                serves_acked name m follower;
                check_invariants (name ^ " (follower)") m follower ~runs:0;
                Service.close follower)
        | Solve _ | Update _ | Read _ | Expired_read _ -> ());
        check_invariants name m !svc ~runs:m.runs
      in
      List.iter step ops;
      serves_acked "the end" m !svc;
      check_invariants "the end" m !svc ~runs:m.runs;
      Service.close !svc;
      true)

let prop_model =
  Helpers.qtest ~count:200 "version store = a model that keeps every version"
    QCheck.(
      make
        ~print:(fun (seed, ops) ->
          Printf.sprintf "pool seed %d: %s" seed (String.concat "; " (List.map op_to_string ops)))
        Gen.(pair (int_bound 1_000_000) (list_size (int_range 1 30) op_gen)))
    (fun (seed, ops) ->
      let rng = Rng.create seed in
      let pool =
        Array.init 3 (fun _ ->
            Helpers.random_workload rng ~num_topics:(3 + Rng.int rng 10)
              ~num_subscribers:(3 + Rng.int rng 20) ~max_rate:50 ~max_interests:5)
      in
      run_ops pool (Load 0 :: Solve 0 :: ops))

(* ----- journals from past builds ----- *)

(* test/journals: the test runs in dune's copy of test/, or from the
   repository root. *)
let fixtures = if Sys.file_exists "journals" then "journals" else Filename.concat "test" "journals"

let copy_dir src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let ic = open_in_bin (Filename.concat src f) in
      let data = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin (Filename.concat dst f) in
      output_string oc data;
      close_out oc)
    (Sys.readdir src)

(* A copy of the fixture's journal replays with nothing skipped, and
   every digest the build acked answers the plan digest it acked, from
   the cache, without a solver run. *)
let test_fixture name () =
  let dir = Filename.concat fixtures name in
  let acked =
    In_channel.with_open_text (Filename.concat dir "acked") In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun l ->
           match String.split_on_char ' ' l with [ d; p ] -> Some (d, p) | _ -> None)
  in
  Helpers.check_int "acked replies" 13 (List.length acked);
  Helpers.with_dir ~prefix:"mcss-fixture" (fun tmp ->
      let journal = Filename.concat tmp "journal" in
      Unix.mkdir tmp 0o755;
      copy_dir (Filename.concat dir "journal") journal;
      let svc = Service.create ~config:(config ~snapshot_every:0 journal) () in
      (match Service.replay_stats svc with
      | Some r -> Helpers.check_int "records skipped" 0 r.Service.records_skipped
      | None -> Alcotest.fail "no replay stats");
      List.iter
        (fun (d, p) ->
          let r =
            Service.handle_line svc (Printf.sprintf {|{"req":"solve","digest":"%s","tau":50}|} d)
          in
          Alcotest.(check (option string)) ("plan of " ^ d) (Some p) (field "plan_digest" r);
          Alcotest.(check bool) ("cached " ^ d) true (Json.member "cached" r = Some (Json.Bool true)))
        acked;
      Helpers.check_int "solver runs" 0 (Service.solver_runs svc);
      Service.close svc)

let suite =
  prop_model
  :: List.map
       (fun name -> Alcotest.test_case ("journal fixture " ^ name) `Quick (test_fixture name))
       [ "46e699f-default"; "46e699f-snapshot2"; "7dfba08-default"; "7dfba08-snapshot2" ]
