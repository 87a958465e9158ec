module Workload = Mcss_workload.Workload
module Wio = Mcss_workload.Wio
module Instance = Mcss_pricing.Instance
module Cost_model = Mcss_pricing.Cost_model
module Problem = Mcss_core.Problem
module Solver = Mcss_core.Solver
module Allocation = Mcss_core.Allocation
module Plan_io = Mcss_core.Plan_io
module Engine = Mcss_engine.Engine
module Delta_io = Mcss_engine.Delta_io
module Failure_model = Mcss_resilience.Failure_model
module Orchestrator = Mcss_resilience.Orchestrator
module Sla = Mcss_resilience.Sla
module Registry = Mcss_obs.Registry
module Counter = Mcss_obs.Metric.Counter
module Gauge = Mcss_obs.Metric.Gauge
module Histogram = Mcss_obs.Metric.Histogram
module Clock = Mcss_obs.Clock
module Sink = Mcss_obs.Sink

type config = {
  cache_capacity : int;
  max_in_flight : int;
  default_deadline_ms : float option;
  journal : Journal.config option;
  breaker : Breaker.config;
  name : string;
  quorum_acks : int;
  quorum_timeout_ms : float;
}

let default_config =
  {
    cache_capacity = 128;
    max_in_flight = 4;
    default_deadline_ms = None;
    journal = None;
    breaker = Breaker.default_config;
    name = "node";
    quorum_acks = 1;
    quorum_timeout_ms = 2000.;
  }

(* A cached plan: the full solver result (so chaos drills can replay the
   allocation) plus the money view, which depends only on the params the
   plan is keyed under, plus the canonical plan text the journal stores
   and the digest clients use to compare plans across restarts. *)
type plan = {
  result : Solver.result;
  bandwidth_gb : float;
  solve_seconds : float;
  text : string;
  plan_digest : string;
}

(* A cache entry remembers what it was solved for, so a snapshot can
   re-journal it and a degraded reply can disclose the served params. *)
type entry = { digest : string; params : Protocol.solve_params; plan : plan }

type replay_stats = {
  workloads_recovered : int;
  plans_recovered : int;
  updates_replayed : int;
  records_skipped : int;
  wal_truncated_bytes : int;
  corrupt_records : int;
  dropped_frames : int;
}

(* A leader journals its own ops and (via [journal_hook]) feeds them to
   the replication hub; a follower's journal is a verbatim mirror of the
   leader's record sequence, so local ops must never append to it — only
   {!apply_replicated} writes it. *)
type role = Leader | Follower

type journal_event = Appended of { index : int; epoch : int; payload : string }

(* Leader outcome shared with single-flight followers. A late solve
   ([M_late]) is a timeout for the leader but the plan was cached, so
   followers treat it as a hit. *)
type miss_outcome =
  | M_plan of entry
  | M_late of entry * string
  | M_shed
  | M_err of solve_error

and solve_error = E of Protocol.error_code * string

(* A workload's digest text, kept so that the next update's text can
   copy the rows it shares: [text.[0, len)], whose rows section starts at
   [rows_at] and has subscriber [v]'s row end at [rows_at + ends.(v)].
   [spare] and [spare_ends] are the other pair of buffers, the one the
   next rendering writes into; the two pairs trade places per update. *)
type rendering = {
  rendered : Workload.t;
  text : Bytes.t;
  len : int;
  rows_at : int;
  ends : int array;
  spare : Bytes.t;
  spare_ends : int array;
}

(* The engine behind the most recent update, kept for the next one,
   with the digest rendering of its workload. *)
type resident = {
  entry : entry;
  model : Cost_model.t;
  engine : Engine.t;
  rendering : rendering;
}

type t = {
  config : config;
  obs : Registry.t;
  cache : entry Plan_cache.t;
  gate : Admission.t;
  breaker : Breaker.t;
  sf : miss_outcome Single_flight.t;
  workloads : (string, Workload.t) Hashtbl.t;
  fallback : (string, entry) Hashtbl.t;
      (** Last solved plan per workload digest — what degraded replies
          serve. Written only by {!keep_entry} (as [workloads] is only
          by {!keep_workload}). Never evicted: each entry holds its plan
          text and solver result, O(pairs), and every [update] adds one
          (as it adds one workload to [workloads]); only a follower's
          snapshot resync clears them. *)
  lock : Mutex.t;  (** Guards [workloads], [fallback], [obs] updates, and the mutable fields. *)
  journal : Journal.t option;
  journal_lock : Mutex.t;
      (** Serialises appends and snapshots. Lock order: [journal_lock]
          then [lock]; never the reverse. *)
  update_lock : Mutex.t;
      (** Serialises [update] requests end to end (engine adoption, delta
          application, publication, journaling) so concurrent updates
          against the same digest cannot interleave their WAL ops.
          Taken before [journal_lock] and [lock], never inside them. *)
  mutable resident : resident option;
      (** The engine that produced the most recent update's entry,
          {!Engine.canonicalize}d: exactly what [Engine.of_plan] builds
          from that entry. The next update whose base entry is that
          entry ([==]) applies its deltas to it instead of re-adopting
          the plan. Guarded by [lock]; taken and put back only under
          [update_lock]. *)
  started_ns : int64;
  mutable draining : bool;
  mutable requests : int;
  mutable solver_run_count : int;
  mutable degraded_served : int;
  mutable replay : replay_stats option;
  mutable role : role;
  mutable volatile_epoch : int;
      (** Fencing epoch when the service has no journal to persist it
          in; shadowed by the journal's epoch otherwise. *)
  mutable journal_hook : (journal_event -> unit) option;
      (** Called under [journal_lock] right after a leader-side append,
          with the record's absolute index and frame epoch. The
          replication hub hangs its fan-out here; it must not block. *)
  mutable commit_gate : (index:int -> (unit, string) result) option;
      (** Blocks until the record at [index] is fsynced on a quorum (the
          replication hub installs this). Consulted outside
          [journal_lock], only when [quorum_acks > 1]. *)
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let obs t = t.obs
let draining t = locked t (fun () -> t.draining)
let cache_stats t = Plan_cache.stats t.cache
let solver_runs t = locked t (fun () -> t.solver_run_count)
let breaker t = t.breaker
let replay_stats t = locked t (fun () -> t.replay)
let role t = locked t (fun () -> t.role)
let role_to_string = function Leader -> "leader" | Follower -> "follower"
let set_journal_hook t hook = locked t (fun () -> t.journal_hook <- hook)
let set_commit_gate t gate = locked t (fun () -> t.commit_gate <- gate)

let epoch t =
  match t.journal with
  | Some j -> Journal.epoch j
  | None -> locked t (fun () -> t.volatile_epoch)

(* Raise (never lower) this node's fencing epoch. *)
let adopt_epoch t e =
  match t.journal with
  | Some j -> Journal.set_epoch j e
  | None -> locked t (fun () -> if e > t.volatile_epoch then t.volatile_epoch <- e)

(* ----- content digests ----- *)

external format_float : string -> float -> string = "caml_format_float"

(* Whether [%.17g] renders [x] as exactly its integer's digits: an
   integral float below 1e15 with a clear sign bit (traces' rates are
   integral). *)
let prints_as_int x = Float.is_integer x && x < 1e15 && not (Float.sign_bit x)

(* [Printf.sprintf "%.17g" x], through the primitive [Printf]'s [%g]
   calls. *)
let g17 x = if prints_as_int x then string_of_int (int_of_float x) else format_float "%.17g" x

(* An append-only byte writer that grows by doubling. *)
type out = { mutable b : Bytes.t; mutable n : int }

let reserve o k =
  if o.n + k > Bytes.length o.b then begin
    let b = Bytes.create (max (o.n + k) (2 * Bytes.length o.b)) in
    Bytes.blit o.b 0 b 0 o.n;
    o.b <- b
  end

let put_char o c =
  reserve o 1;
  Bytes.unsafe_set o.b o.n c;
  o.n <- o.n + 1

let put_string o s =
  let l = String.length s in
  reserve o l;
  Bytes.unsafe_blit_string s 0 o.b o.n l;
  o.n <- o.n + l

let rec width n = if n < 10 then 1 else 1 + width (n / 10)

(* Write [n >= 0]'s digits right-aligned to end at index [i]. *)
let rec fill_digits b i n =
  Bytes.unsafe_set b i (Char.unsafe_chr (48 + (n mod 10)));
  if n >= 10 then fill_digits b (i - 1) (n / 10)

(* [string_of_int n] then [c], for [n >= 0]. *)
let put_int_then o n c =
  let w = width n in
  reserve o (w + 1);
  fill_digits o.b (o.n + w - 1) n;
  Bytes.unsafe_set o.b (o.n + w) c;
  o.n <- o.n + w + 1

let put_row o row =
  for i = 0 to Array.length row - 1 do
    put_int_then o (Array.unsafe_get row i) ' '
  done;
  put_char o '\n'

(* The digest is the MD5 of a canonical rendering of the workload's
   semantic content (rates at [%.17g], interests sorted as Workload
   stores them), so it is independent of Wio formatting details like
   comments or float spelling in the source file. Those bytes are pinned:
   journals and served digests name workloads by them.

   Given the rendering of an earlier workload, every run of rows that
   are physically the earlier workload's ([==], as [Delta.apply] shares
   each untouched row) is one blit of its bytes, and only touched and
   new rows are rendered; rows are immutable, so a shared row renders
   the same. The new text is written into that rendering's spare
   buffers, which the returned rendering hands back as its own spare. *)
let render ?prev w =
  let num_topics = Workload.num_topics w
  and num_subscribers = Workload.num_subscribers w in
  (* Buffers sized to the text with some room, so that the next updates,
     which grow the workload a little, reuse them: the previous text's
     length, or an estimate (8 bytes a rate) when there is none. The
     writer grows past either when it must. *)
  let o =
    match prev with
    | Some p ->
        if Bytes.length p.spare >= p.len + (p.len / 32) then { b = p.spare; n = 0 }
        else { b = Bytes.create (p.len + (p.len / 8)); n = 0 }
    | None ->
        {
          b =
            Bytes.create
              (64 + (8 * num_topics)
              + (Workload.num_pairs w * (width num_topics + 1))
              + num_subscribers);
          n = 0;
        }
  in
  let ends =
    match prev with
    | Some p when Array.length p.spare_ends >= num_subscribers -> p.spare_ends
    | _ -> Array.make (num_subscribers + (num_subscribers / 32) + 16) 0
  in
  put_string o "mcss-workload-digest 1\n";
  put_int_then o num_topics ' ';
  put_int_then o num_subscribers '\n';
  Array.iter
    (fun r ->
      if prints_as_int r then put_int_then o (int_of_float r) '\n'
      else begin
        put_string o (format_float "%.17g" r);
        put_char o '\n'
      end)
    (Workload.event_rates w);
  let rows_at = o.n in
  let shared =
    match prev with
    | None -> 0
    | Some p -> min num_subscribers (Workload.num_subscribers p.rendered)
  in
  let v = ref 0 in
  while !v < num_subscribers do
    let v0 = !v in
    (match prev with
    | Some p when v0 < shared && Workload.interests w v0 == Workload.interests p.rendered v0 ->
        while !v < shared && Workload.interests w !v == Workload.interests p.rendered !v do
          incr v
        done;
        let from = if v0 = 0 then 0 else p.ends.(v0 - 1) in
        let len = p.ends.(!v - 1) - from in
        let shift = o.n - rows_at - from in
        reserve o len;
        Bytes.blit p.text (p.rows_at + from) o.b o.n len;
        o.n <- o.n + len;
        for u = v0 to !v - 1 do
          ends.(u) <- p.ends.(u) + shift
        done
    | _ ->
        put_row o (Workload.interests w v0);
        ends.(v0) <- o.n - rows_at;
        incr v)
  done;
  let digest = Digest.to_hex (Digest.subbytes o.b 0 o.n) in
  ( digest,
    {
      rendered = w;
      text = o.b;
      len = o.n;
      rows_at;
      ends;
      spare = (match prev with Some p -> p.text | None -> Bytes.empty);
      spare_ends = (match prev with Some p -> p.ends | None -> [||]);
    } )

let digest_of_workload w = fst (render w)

let find_workload t digest = locked t (fun () -> Hashtbl.find_opt t.workloads digest)

(* The ladder name a requested config name solves under: "parallel" is
   the default config (see {!resolve_config}), every other name is its
   own. *)
let ladder_name name =
  if name = "parallel" then fst (List.find (fun (_, c) -> c = Solver.default) Solver.ladder)
  else name

(* Keyed on the ladder name, so "parallel" and the default config's own
   name, which give the same plan, share one entry and one solver run. *)
let cache_key digest (params : Protocol.solve_params) =
  String.concat ""
    [
      digest; "|tau="; g17 params.Protocol.tau; "|instance="; params.Protocol.instance;
      "|bc="; (match params.Protocol.bc_events with None -> "default" | Some x -> g17 x);
      "|config="; ladder_name params.Protocol.config;
    ]

let cached_plan t ~digest params =
  List.assoc_opt (cache_key digest params) (Plan_cache.to_list t.cache)
  |> Option.map (fun e -> e.plan.result)

(* ----- problems ----- *)

(* A config name and the domains its solves run on. "parallel" is the
   default config on every recommended domain (the plan is the same at
   any domain count); everything else resolves through the solver's own
   ladder, on one domain, so server and CLI name configurations
   identically. *)
let resolve_config name =
  if name = "parallel" then Some (Solver.default, Domain.recommended_domain_count ())
  else Option.map (fun c -> (c, 1)) (Solver.config_of_name name)

let problem_for w (params : Protocol.solve_params) =
  match Instance.find params.Protocol.instance with
  | None ->
      Error
        (E (Protocol.Bad_request,
            Printf.sprintf "unknown instance type %S" params.Protocol.instance))
  | Some instance -> (
      let model = Cost_model.ec2_2014 ~instance () in
      match
        Problem.of_pricing ?capacity_events:params.Protocol.bc_events ~workload:w
          ~tau:params.Protocol.tau model
      with
      | p -> Ok (model, p)
      | exception Invalid_argument m -> Error (E (Protocol.Bad_request, m)))

(* ----- the registry -----

   The only writers of [workloads], [fallback] and the plan cache
   ({!reset_to_snapshot} aside, which empties all three): solves,
   updates, startup replay and replication all register through these
   two. *)

(* Register [w] under [digest]; whether the digest was new. *)
let keep_workload t digest w =
  locked t (fun () ->
      let fresh = not (Hashtbl.mem t.workloads digest) in
      Hashtbl.replace t.workloads digest w;
      fresh)

(* Cache [e] under its key and make it its digest's degraded-reply
   fallback. *)
let keep_entry t (e : entry) =
  Plan_cache.add t.cache (cache_key e.digest e.params) e;
  locked t (fun () -> Hashtbl.replace t.fallback e.digest e)

let plan_record t ({ digest; params; plan } : entry) =
  let r = plan.result in
  Record.Plan
    { origin = Some t.config.name; digest; params; plan = plan.text;
      bandwidth = r.Solver.bandwidth; bandwidth_gb = plan.bandwidth_gb; cost = r.Solver.cost;
      stage1_s = r.Solver.stage1_seconds; stage2_s = r.Solver.stage2_seconds;
      solve_s = plan.solve_seconds }

(* ----- the incremental engine behind [update] ----- *)

(* The plan entry an update starts from: the live cache, or the
   never-evicted fallback when it was solved under the same params.
   [lookup] is [Plan_cache.find] for a client's update and
   [Plan_cache.promote] for a replayed one, which is not cache traffic. *)
let base_entry t ~lookup ~key ~digest =
  match lookup t.cache key with
  | Some e -> Some e
  | None -> (
      match locked t (fun () -> Hashtbl.find_opt t.fallback digest) with
      | Some e when cache_key e.digest e.params = key -> Some e
      | _ -> None)

(* Journal replay, and the live path when its base is not the resident
   entry, adopt the entry's own plan: [Engine.of_plan] copies the
   allocation in Plan_io's order, so the engine starts from the fleet a
   decode of the entry's text would build, whether the entry came from
   the solver, a replayed plan record or an earlier update. That (which
   the resident engine matches by canonicalising), plus the engine's
   determinism, is what makes the recorded [new_digest] reproducible
   after a crash. *)
let engine_of_entry ~w (e : entry) =
  match problem_for w e.params with
  | Error err -> Error err
  | Ok (model, p) ->
      let config, domains =
        Option.value ~default:(Solver.default, 1)
          (resolve_config e.params.Protocol.config)
      in
      let r = e.plan.result in
      Ok
        ( model,
          Engine.of_plan ~config ~domains
            {
              Engine.problem = p;
              selection = r.Solver.selection;
              allocation = r.Solver.allocation;
            } )

(* Snapshot the engine as a cache entry keyed by [digest], the evolved
   workload's (the caller computes it once). The allocation is an
   {!Allocation.copy}: detached from the live engine and identical to
   what a restart decodes from [text]. *)
let entry_of_engine ~model ~digest ~(params : Protocol.solve_params)
    ~solve_seconds eng =
  let p = Engine.problem eng in
  let live = Engine.plan eng in
  let text = Plan_io.to_string live.Engine.allocation in
  let allocation =
    Allocation.copy
      ~event_rates:(Workload.event_rates p.Problem.workload)
      live.Engine.allocation
  in
  let num_vms = Allocation.num_vms allocation in
  let bandwidth = Allocation.total_load allocation in
  let result =
    {
      Solver.selection = live.Engine.selection;
      allocation;
      num_vms;
      bandwidth;
      cost = Problem.cost p ~vms:num_vms ~bandwidth;
      stage1_seconds = 0.;
      stage2_seconds = 0.;
    }
  in
  let plan =
    {
      result;
      bandwidth_gb = Cost_model.gb_of_events model bandwidth;
      solve_seconds;
      text;
      plan_digest = Digest.to_hex (Digest.string text);
    }
  in
  { digest; params; plan }

(* Re-run a journaled update: the evolved entry and workload. [None]
   when the record no longer replays (base plan missing, deltas
   malformed, infeasible, ...). *)
let replayed_update t ~w ~digest ~(params : Protocol.solve_params) ~deltas =
  match
    base_entry t ~lookup:Plan_cache.promote ~key:(cache_key digest params) ~digest
  with
  | None -> None
  | Some e -> (
      try
        let ds = Delta_io.of_string deltas in
        match engine_of_entry ~w e with
        | Error _ -> None
        | Ok (model, eng) ->
            ignore (Engine.apply eng ds);
            let w' = (Engine.problem eng).Problem.workload in
            let digest = digest_of_workload w' in
            Some (entry_of_engine ~model ~digest ~params ~solve_seconds:0. eng, w')
      with _ -> None)

type applied = Loaded | Planned | Updated | Skipped

(* Rebuild service state from one journal record. Registers directly
   (no re-journaling). Raises nothing: any malformed or orphaned record
   is [Skipped]. Each registry touch takes [t.lock] on its own, so the
   same code serves startup replay and live application of a leader's
   replication stream on a follower. *)
let apply_record t line =
  match Record.of_string line with
  | None -> Skipped
  | Some (Record.Load { digest; wio; _ }) -> (
      match Wio.of_string wio with
      (* Trust-but-verify: a record whose payload no longer hashes to
         its digest would orphan every plan keyed under it — drop it
         rather than serve mislabeled state. *)
      | w when digest_of_workload w = digest ->
          ignore (keep_workload t digest w);
          Loaded
      | _ -> Skipped
      | exception Wio.Parse_error _ -> Skipped)
  | Some (Record.Plan r) -> (
      match find_workload t r.digest with
      | None -> Skipped (* plan for a workload we never recovered *)
      | Some w -> (
          match Plan_io.of_string ~workload:w r.plan with
          | exception Plan_io.Parse_error _ -> Skipped
          | allocation, selection ->
              let result =
                { Solver.selection; allocation; num_vms = Allocation.num_vms allocation;
                  bandwidth = r.bandwidth; cost = r.cost;
                  stage1_seconds = r.stage1_s; stage2_seconds = r.stage2_s }
              in
              let plan =
                { result; bandwidth_gb = r.bandwidth_gb; solve_seconds = r.solve_s;
                  text = r.plan; plan_digest = Digest.to_hex (Digest.string r.plan) }
              in
              keep_entry t { digest = r.digest; params = r.params; plan };
              Planned))
  | Some (Record.Update r) -> (
      match find_workload t r.digest with
      | None -> Skipped
      | Some w -> (
          match
            replayed_update t ~w ~digest:r.digest ~params:r.params ~deltas:r.deltas
          with
          | Some (e, w') when e.digest = r.new_digest ->
              (* The update record alone carries the evolved workload:
                 register it here. (Journals written before updates
                 stopped journaling a load op for it replay the same;
                 the replace is a no-op.) *)
              ignore (keep_workload t e.digest w');
              keep_entry t e;
              Updated
          | Some _ ->
              (* Replay landed on a different digest than the live run
                 recorded: the record cannot be trusted (corruption or a
                 non-deterministic engine) — drop it rather than serve
                 mislabeled state. *)
              Skipped
          | None -> Skipped))

(* Everything needed to rebuild the registry and cache from scratch:
   loads first (plan replay looks its workload up), then plans with the
   cache's LRU entries last so replaying reproduces the recency order.
   Fallback-only plans (evicted from the cache but still served by
   degraded replies) go before the cache so they cannot evict live
   entries on replay. *)
let full_state t =
  let origin = Some t.config.name in
  let cached = List.map snd (Plan_cache.to_list t.cache) in
  let loads, fallback_only =
    locked t (fun () ->
        let seen = Hashtbl.create 64 in
        List.iter
          (fun e -> Hashtbl.replace seen (cache_key e.digest e.params) ())
          cached;
        ( Hashtbl.fold
            (fun digest w acc ->
              Record.Load { origin; digest; wio = Wio.to_string w } :: acc)
            t.workloads [],
          Hashtbl.fold
            (fun _ e acc ->
              if Hashtbl.mem seen (cache_key e.digest e.params) then acc
              else e :: acc)
            t.fallback [] ))
  in
  List.map Record.to_string (loads @ List.map (plan_record t) (fallback_only @ cached))

(* Append one op; when the WAL has grown past the configured threshold,
   fold it into a fresh snapshot while still holding [journal_lock] so
   concurrent appends cannot interleave with the truncation. Returns the
   record's absolute index so callers can gate the reply on a quorum
   ack. On a follower this is a no-op: its journal mirrors the leader's
   record sequence and only {!apply_replicated} may write it. *)
let journal_append t record =
  match t.journal with
  | None -> None
  | Some j when role t = Leader ->
      let op = Record.to_string record in
      Mutex.lock t.journal_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.journal_lock)
        (fun () ->
          Journal.append j op;
          let index = Journal.last_index j in
          let epoch = Journal.last_epoch j in
          (match locked t (fun () -> t.journal_hook) with
          | None -> ()
          | Some hook -> hook (Appended { index; epoch; payload = op }));
          if Journal.snapshot_due j then Journal.snapshot j (full_state t);
          Some index)
  | Some _ -> None

(* Wait (outside every lock) for [index] to be fsynced by a quorum. With
   no gate installed or [quorum_acks <= 1] replication stays async. *)
let await_commit t = function
  | None -> Ok ()
  | Some index -> (
      if t.config.quorum_acks <= 1 then Ok ()
      else
        match locked t (fun () -> t.commit_gate) with
        | None -> Ok ()
        | Some gate -> (
            match gate ~index with
            | Ok () -> Ok ()
            | Error m ->
                Counter.inc
                  (Registry.counter t.obs
                     ~help:"Writes refused for lack of a replication quorum"
                     "serve.replication.no_quorum");
                Error m))

let register_workload t w =
  let digest = digest_of_workload w in
  (* Re-loading known content is a no-op on disk too. *)
  let index =
    if keep_workload t digest w then
      journal_append t
        (Record.Load { origin = Some t.config.name; digest; wio = Wio.to_string w })
    else None
  in
  (digest, index)

let load_workload t w = fst (register_workload t w)

(* ----- replication support ----- *)

let journal_last_index t =
  match t.journal with None -> None | Some j -> Some (Journal.last_index j)

let journal_read_from t ~index =
  match t.journal with
  | None -> Error `Resync
  | Some j -> Journal.read_from j ~index

(* A consistent (base index, full state) pair for shipping to a
   follower that is too far behind for an incremental tail. Holding
   [journal_lock] pins the index while the state is rendered; a plan
   published but not yet journaled may slip into the state and also
   arrive later as a streamed record — replay is replace-semantics, so
   the duplicate is harmless. *)
let sync_state t =
  match t.journal with
  | None -> invalid_arg "Service.sync_state: service has no journal"
  | Some j ->
      Mutex.lock t.journal_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.journal_lock)
        (fun () -> (Journal.last_index j, Journal.epoch j, full_state t))

let journal_epoch_at t ~index =
  match t.journal with None -> None | Some j -> Journal.epoch_at j ~index

let journal_last_epoch t =
  match t.journal with None -> None | Some j -> Some (Journal.last_epoch j)

(* Apply one record of the leader's stream on a follower: run it through
   the same replay path a restart uses, then mirror it into the local
   journal (folding into a snapshot when due, exactly like a leader).
   The index must be the successor of the follower's [last_index] —
   a gap or a rewind means this stream no longer matches the local
   journal and the caller must resync. Records that no longer replay
   (orphaned plans, malformed ops) are still mirrored: the journal
   tracks the leader's history, not local applicability. *)
let apply_replicated t ~index ~epoch payload =
  match t.journal with
  | None -> Error "service has no journal to replicate into"
  | Some _ when role t = Leader ->
      (* A leader mirroring someone else's stream is exactly the
         split-brain that fencing exists to prevent; the follow loop
         stops on promotion, so hitting this means a race it must lose. *)
      Error "refusing replicated record: this node is a leader"
  | Some j ->
      Mutex.lock t.journal_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.journal_lock)
        (fun () ->
          let expected = Journal.last_index j + 1 in
          if index <> expected then
            Error
              (Printf.sprintf
                 "replication gap: record %d arrived but journal is at %d" index
                 (expected - 1))
          else begin
            let applied = apply_record t payload in
            Journal.append ~epoch j payload;
            Counter.inc
              (Registry.counter t.obs ~help:"Leader records applied via replication"
                 "serve.replication.applied");
            if applied = Skipped then
              Counter.inc
                (Registry.counter t.obs
                   ~help:"Replicated records mirrored but not applicable locally"
                   "serve.replication.skipped");
            if Journal.snapshot_due j then Journal.snapshot j (full_state t);
            Ok ()
          end)

(* Full resync: replace journal and in-memory state with a leader
   snapshot. After the call [journal_last_index t = Some base] and the
   service answers exactly as a fresh process that replayed the
   leader's journal would. *)
let reset_to_snapshot t ~base ~epoch payloads =
  match t.journal with
  | None -> Error "service has no journal to replicate into"
  | Some _ when role t = Leader -> Error "refusing snapshot reset: this node is a leader"
  | Some j ->
      Mutex.lock t.journal_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.journal_lock)
        (fun () ->
          (* Any local records past the incoming base are a divergent
             un-acked tail (written under a now-fenced epoch); the
             install discards them — count what was thrown away. *)
          let divergent = Journal.last_index j - base in
          if divergent > 0 then
            Counter.add
              (Registry.counter t.obs
                 ~help:"Divergent un-acked records truncated on resync"
                 "serve.replication.truncated_records")
              divergent;
          Journal.install_snapshot j ~base ~epoch payloads;
          Plan_cache.clear t.cache;
          locked t (fun () ->
              t.resident <- None;
              Hashtbl.reset t.workloads;
              Hashtbl.reset t.fallback);
          List.iter (fun line -> ignore (apply_record t line)) payloads;
          Counter.inc
            (Registry.counter t.obs ~help:"Full snapshot resyncs installed"
               "serve.replication.resyncs");
          Ok ())

(* Promotion always lands on an epoch strictly above everything this
   node has seen; the router passes the cluster-wide maximum plus one so
   it also fences every leader the router knows about. An already-
   leading node does not re-bump (a replayed promote must not burn
   epochs) but still adopts [epoch] when it is ahead. *)
let promote ?epoch t =
  let requested = Option.value ~default:0 epoch in
  let was = locked t (fun () ->
      let was = t.role in
      t.role <- Leader;
      was)
  in
  (match t.journal with
  | Some j ->
      if was = Follower then
        Journal.set_epoch j (max (Journal.epoch j + 1) requested)
      else Journal.set_epoch j requested
  | None ->
      locked t (fun () ->
          t.volatile_epoch <-
            (if was = Follower then max (t.volatile_epoch + 1) requested
             else max t.volatile_epoch requested)));
  if was = Follower then
    Counter.inc
      (Registry.counter t.obs ~help:"Follower-to-leader promotions"
         "serve.replication.promotions");
  was = Follower

(* Fenced step-down: only an epoch strictly ahead of ours may demote us.
   Returns whether the node was leading. *)
let demote t ~epoch:e =
  if e <= epoch t then
    Error
      (Printf.sprintf "demote fenced: epoch %d is not ahead of local epoch %d" e
         (epoch t))
  else begin
    adopt_epoch t e;
    let was = locked t (fun () ->
        let was = t.role in
        t.role <- Follower;
        t.resident <- None;
        was)
    in
    if was = Leader then
      Counter.inc
        (Registry.counter t.obs ~help:"Leader-to-follower fenced demotions"
           "serve.replication.demotions");
    Ok (was = Leader)
  end

let create ?obs ?(config = default_config) ?(role = Leader) ?replay_to () =
  let obs = match obs with Some r -> r | None -> Registry.create () in
  let journal, journal_replay =
    match config.journal with
    | None -> (None, None)
    | Some jc ->
        let j, replay = Journal.open_ ~obs jc in
        (Some j, Some replay)
  in
  let t =
    {
      config;
      obs;
      cache = Plan_cache.create ~capacity:config.cache_capacity;
      gate = Admission.create ~max_in_flight:config.max_in_flight;
      breaker = Breaker.create config.breaker;
      sf = Single_flight.create ();
      workloads = Hashtbl.create 8;
      fallback = Hashtbl.create 8;
      lock = Mutex.create ();
      journal;
      journal_lock = Mutex.create ();
      update_lock = Mutex.create ();
      resident = None;
      started_ns = Clock.now_ns ();
      draining = false;
      requests = 0;
      solver_run_count = 0;
      degraded_served = 0;
      replay = None;
      role;
      volatile_epoch = 0;
      journal_hook = None;
      commit_gate = None;
    }
  in
  (match journal_replay with
  | None -> ()
  | Some r ->
      let records =
        (* Point-in-time replay: stop after the first [replay_to]
           recovered records (snapshot records come first, then WAL). *)
        match replay_to with
        | None -> r.Journal.records
        | Some n ->
            List.filteri (fun i _ -> i < n) r.Journal.records
      in
      let applied =
        List.fold_left (fun acc (_epoch, line) -> apply_record t line :: acc) [] records
      in
      let count kind = List.length (List.filter (( = ) kind) applied) in
      t.replay <-
        Some
          {
            workloads_recovered = count Loaded;
            plans_recovered = count Planned;
            updates_replayed = count Updated;
            records_skipped = count Skipped;
            wal_truncated_bytes = r.Journal.truncated_bytes;
            corrupt_records = r.Journal.corrupt_records;
            dropped_frames = r.Journal.dropped_frames;
          });
  t

let close t =
  locked t (fun () -> t.resident <- None);
  match t.journal with
  | None -> ()
  | Some j ->
      Mutex.lock t.journal_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.journal_lock)
        (fun () -> Journal.close j)

(* ----- metrics plumbing (all under the service lock) ----- *)

(* An endpoint's name and its metric names, built once. *)
type endpoint = { name : string; requests : string; errors : string; latency : string }

let endpoint name =
  {
    name;
    requests = "serve.requests." ^ name;
    errors = "serve.errors." ^ name;
    latency = "serve.latency_seconds." ^ name;
  }

let record_request t ~endpoint ~ok ~seconds =
  locked t (fun () ->
      t.requests <- t.requests + 1;
      Counter.inc
        (Registry.counter t.obs ~help:"Requests handled, by endpoint" endpoint.requests);
      if not ok then
        Counter.inc
          (Registry.counter t.obs ~help:"Error replies, by endpoint" endpoint.errors);
      Histogram.observe
        (Registry.histogram t.obs ~help:"Request latency by endpoint (seconds)"
           endpoint.latency)
        seconds)

let record_solver_run t ~seconds ~(r : Solver.result) =
  locked t (fun () ->
      t.solver_run_count <- t.solver_run_count + 1;
      Counter.inc
        (Registry.counter t.obs ~help:"Solver executions (cache misses)"
           "serve.solver.runs");
      Histogram.observe
        (Registry.histogram t.obs ~help:"End-to-end solver time (seconds)"
           "serve.solver.seconds")
        seconds;
      Histogram.observe
        (Registry.histogram t.obs ~help:"Stage-1 time of served solves (seconds)"
           "serve.solver.stage1_seconds")
        r.Solver.stage1_seconds;
      Histogram.observe
        (Registry.histogram t.obs ~help:"Stage-2 time of served solves (seconds)"
           "serve.solver.stage2_seconds")
        r.Solver.stage2_seconds)

let record_update t ~seconds ~resolved ~resident =
  locked t (fun () ->
      Counter.inc
        (Registry.counter t.obs ~help:"Incremental updates applied"
           "serve.updates.applied");
      if resident then
        Counter.inc
          (Registry.counter t.obs
             ~help:"Updates applied to the resident engine of the previous update"
             "serve.updates.resident");
      if resolved then
        Counter.inc
          (Registry.counter t.obs
             ~help:"Updates answered by a drift-triggered full re-solve"
             "serve.updates.resolved");
      Histogram.observe
        (Registry.histogram t.obs
           ~help:"Engine delta-application time (seconds)"
           "serve.update.apply_seconds")
        seconds)

let record_degraded t ~served =
  locked t (fun () ->
      if served then begin
        t.degraded_served <- t.degraded_served + 1;
        Counter.inc
          (Registry.counter t.obs
             ~help:"Stale plans served while the solver circuit was open"
             "serve.degraded.served")
      end
      else
        Counter.inc
          (Registry.counter t.obs
             ~help:"Sheds with no previously solved plan to degrade to"
             "serve.degraded.no_fallback"))

let breaker_state_value = function
  | Breaker.Closed -> 0.
  | Breaker.Half_open -> 1.
  | Breaker.Open -> 2.

let refresh_gauges t =
  let cs = Plan_cache.stats t.cache in
  let breaker_state = Breaker.state t.breaker in
  locked t (fun () ->
      let set name help v = Gauge.set (Registry.gauge t.obs ~help name) v in
      set "serve.cache.hits" "Plan-cache hits since start" (float_of_int cs.Plan_cache.hits);
      set "serve.cache.misses" "Plan-cache misses since start"
        (float_of_int cs.Plan_cache.misses);
      set "serve.cache.evictions" "Plan-cache evictions since start"
        (float_of_int cs.Plan_cache.evictions);
      set "serve.cache.entries" "Plans currently cached"
        (float_of_int cs.Plan_cache.entries);
      set "serve.cache.hit_ratio" "hits / (hits + misses)" (Plan_cache.hit_ratio cs);
      set "serve.inflight_solves" "Solver runs currently in flight"
        (float_of_int (Admission.in_flight t.gate));
      set "serve.overload_rejections" "Requests shed by the admission gate"
        (float_of_int (Admission.rejected t.gate));
      set "serve.workloads_resident" "Workloads registered"
        (float_of_int (Hashtbl.length t.workloads));
      set "serve.breaker.state" "Solver circuit: 0 closed, 1 half-open, 2 open"
        (breaker_state_value breaker_state);
      set "serve.breaker.opens" "Times the solver circuit opened"
        (float_of_int (Breaker.opens t.breaker));
      set "serve.breaker.closes" "Times the solver circuit closed"
        (float_of_int (Breaker.closes t.breaker));
      set "serve.breaker.rejections" "Solve attempts refused by the open circuit"
        (float_of_int (Breaker.rejections t.breaker));
      match t.journal with
      | None -> ()
      | Some j ->
          set "serve.journal.wal_records" "Records in the write-ahead log"
            (float_of_int (Journal.wal_records j));
          set "serve.journal.snapshots" "Snapshots taken since start"
            (float_of_int (Journal.snapshots_taken j)))

(* ----- solving ----- *)

(* Publish a freshly solved plan: plan cache, degraded-reply fallback,
   and the journal (in that order — a plan visible to clients before it
   is durable only costs a re-solve after a crash, never a wrong answer). *)
let publish t (e : entry) =
  keep_entry t e;
  (* Solves are idempotent (deterministic + content-addressed), so their
     plan records replicate asynchronously even under quorum acks. *)
  ignore (journal_append t (plan_record t e))

(* The cache-miss path, run by exactly one single-flight leader per key.
   The admission gate is taken before the breaker is consulted: a
   half-open probe, once admitted, must actually run the solver so its
   success/failure verdict is meaningful. *)
let miss t ~digest ~w ~(params : Protocol.solve_params) ~deadline =
  match resolve_config params.Protocol.config with
  | None ->
      M_err
        (E (Protocol.Bad_request,
            Printf.sprintf "unknown solver config %S" params.Protocol.config))
  | Some (config, domains) -> (
      match problem_for w params with
      | Error e -> M_err e
      | Ok (model, p) ->
          if Admission.expired deadline then
            M_err (E (Protocol.Timeout, "deadline exceeded before solve started"))
          else
            let run () =
              if not (Breaker.admit t.breaker) then M_shed
              else
                let t0 = Clock.now_ns () in
                match Solver.solve ~config ~domains p with
                | r ->
                    let seconds = Clock.seconds_since t0 in
                    let text = Plan_io.to_string r.Solver.allocation in
                    let plan =
                      {
                        result = r;
                        bandwidth_gb =
                          Cost_model.gb_of_events model r.Solver.bandwidth;
                        solve_seconds = seconds;
                        text;
                        plan_digest = Digest.to_hex (Digest.string text);
                      }
                    in
                    let e = { digest; params; plan } in
                    record_solver_run t ~seconds ~r;
                    publish t e;
                    if Admission.expired deadline then begin
                      (* The solver blew the budget: that is the failure
                         mode the breaker exists for. *)
                      Breaker.failure t.breaker;
                      M_late
                        ( e,
                          Printf.sprintf
                            "solve finished after the deadline (%.0f ms late); \
                             plan cached for a retry"
                            (-.Admission.remaining_ms deadline) )
                    end
                    else begin
                      Breaker.success t.breaker;
                      M_plan e
                    end
                | exception Problem.Infeasible m ->
                    (* The solver did its job; the instance has no
                       feasible plan. Not a breaker failure. *)
                    Breaker.success t.breaker;
                    M_err (E (Protocol.Infeasible, m))
                | exception Invalid_argument m ->
                    Breaker.success t.breaker;
                    M_err (E (Protocol.Bad_request, m))
                | exception exn ->
                    Breaker.failure t.breaker;
                    M_err (E (Protocol.Internal, Printexc.to_string exn))
            in
            (match Admission.with_slot t.gate run with
            | Some m -> m
            | None ->
                M_err
                  (E (Protocol.Overloaded,
                      Printf.sprintf "solver gate full (%d in flight)"
                        (Admission.max_in_flight t.gate)))))

type obtained =
  | Served of plan * bool  (* plan, cached *)
  | Degr of entry * string  (* fallback served under an open circuit *)
  | Failed of solve_error

(* Turn a shed into a degraded answer when any plan for this digest was
   ever solved (this run or a journaled predecessor). *)
let shed t ~digest =
  let fb = locked t (fun () -> Hashtbl.find_opt t.fallback digest) in
  match fb with
  | Some e ->
      record_degraded t ~served:true;
      Degr (e, "solver circuit open; serving last solved plan")
  | None ->
      record_degraded t ~served:false;
      Failed
        (E (Protocol.Degraded,
            "solver circuit open and no previously solved plan for this digest"))

(* Obtain a plan for (digest, params): from the cache, or by running the
   solver — once per key across concurrent requests (single-flight) —
   under the admission gate and the circuit breaker. *)
let obtain_plan t ~digest ~w ~(params : Protocol.solve_params) ~deadline =
  let key = cache_key digest params in
  match Plan_cache.find t.cache key with
  | Some e -> Served (e.plan, true)
  | None -> (
      match
        Single_flight.run t.sf ~key (fun () ->
            miss t ~digest ~w ~params ~deadline)
      with
      | Single_flight.Leader (M_plan e) -> Served (e.plan, false)
      | Single_flight.Leader (M_late (_, msg)) ->
          Failed (E (Protocol.Timeout, msg))
      | Single_flight.Leader M_shed -> shed t ~digest
      | Single_flight.Leader (M_err e) -> Failed e
      | Single_flight.Follower (M_plan e) | Single_flight.Follower (M_late (e, _))
        ->
          (* The leader solved it while we waited: a shared hit. *)
          Served (e.plan, true)
      | Single_flight.Follower M_shed -> shed t ~digest
      | Single_flight.Follower (M_err err) -> (
          (* The leader may still have cached a plan (e.g. it raced an
             eviction); prefer the cache over inheriting its error. *)
          match Plan_cache.find t.cache key with
          | Some e -> Served (e.plan, true)
          | None -> Failed err))

let plan_fields digest (params : Protocol.solve_params) plan ~cached =
  let r = plan.result in
  [
    ("digest", Json.String digest);
    ("cached", Json.Bool cached);
    ("tau", Json.Float params.Protocol.tau);
    ("instance", Json.String params.Protocol.instance);
    ("config", Json.String params.Protocol.config);
    ("vms", Json.Int r.Solver.num_vms);
    ("bandwidth_events", Json.Float r.Solver.bandwidth);
    ("bandwidth_gb", Json.Float plan.bandwidth_gb);
    ("cost_usd", Json.Float r.Solver.cost);
    ("plan_digest", Json.String plan.plan_digest);
    ("stage1_s", Json.Float r.Solver.stage1_seconds);
    ("stage2_s", Json.Float r.Solver.stage2_seconds);
    ("solve_s", Json.Float (if cached then 0. else plan.solve_seconds));
  ]

(* A degraded reply carries the served plan's own params in the usual
   fields (the client must know what it actually got) and discloses what
   was asked for in [requested_tau]. *)
let degraded_fields (requested : Protocol.solve_params) (e : entry) ~reason =
  plan_fields e.digest e.params e.plan ~cached:true
  @ [
      ("degraded", Json.Bool true);
      ("degraded_reason", Json.String reason);
      ("requested_tau", Json.Float requested.Protocol.tau);
    ]

(* ----- endpoints ----- *)

let uptime_s t = Clock.seconds_since t.started_ns

let handle_health t ~id =
  let status = if draining t then "draining" else "serving" in
  Protocol.ok_response ~id
    [
      ("status", Json.String status);
      ("service", Json.String "mcss-plan-server");
      ("role", Json.String (role_to_string (role t)));
      ("epoch", Json.Int (epoch t));
      ("last_index", Json.Int (Option.value ~default:0 (journal_last_index t)));
      ("version", Json.String (Build_info.to_string ()));
      ("pid", Json.Int (Unix.getpid ()));
      ("uptime_s", Json.Float (uptime_s t));
    ]

let handle_load t ~id source =
  if draining t then
    Protocol.error_response ~id ~code:Protocol.Draining
      ~message:"server is draining; no new workloads" ()
  else
    let parse_result =
      match source with
      | `Path path -> (
          match Wio.load path with
          | w -> Ok w
          | exception Sys_error m -> Error m
          | exception Wio.Parse_error m -> Error (path ^ ": " ^ m))
      | `Inline text -> (
          match Wio.of_string text with
          | w -> Ok w
          | exception Wio.Parse_error m -> Error m)
    in
    match parse_result with
    | Error m -> Protocol.error_response ~id ~code:Protocol.Bad_request ~message:m ()
    | Ok w -> (
        let digest, index = register_workload t w in
        match await_commit t index with
        | Error m ->
            Protocol.error_response ~id ~code:Protocol.No_quorum
              ~message:
                ("workload journaled locally but not quorum-replicated: " ^ m)
              ()
        | Ok () ->
            Protocol.ok_response ~id
              [
                ("digest", Json.String digest);
                ("topics", Json.Int (Workload.num_topics w));
                ("subscribers", Json.Int (Workload.num_subscribers w));
                ("pairs", Json.Int (Workload.num_pairs w));
                ("total_event_rate", Json.Float (Workload.total_event_rate w));
              ])

let with_workload t ~id digest f =
  match find_workload t digest with
  | None ->
      Protocol.error_response ~id ~code:Protocol.Unknown_digest
        ~message:(Printf.sprintf "no workload loaded under digest %s" digest)
        ()
  | Some w -> f w

let reply_of_error ~id (E (code, message)) =
  Protocol.error_response ~id ~code ~message ()

let handle_solve t ~id ~deadline ~digest ~params =
  with_workload t ~id digest (fun w ->
      match obtain_plan t ~digest ~w ~params ~deadline with
      | Served (plan, cached) ->
          Protocol.ok_response ~id (plan_fields digest params plan ~cached)
      | Degr (e, reason) ->
          Protocol.ok_response ~id (degraded_fields params e ~reason)
      | Failed e -> reply_of_error ~id e)

(* The live [update] path. The base plan comes from the cache (or the
   fallback, or — on a miss — a breaker/admission-gated cold solve via
   {!obtain_plan}, exactly like [solve]); the engine adopts it and folds
   the deltas in incrementally, the evolved workload is registered in
   memory under its own content digest (digested once), the evolved plan
   is published under that digest, and the delta batch is journaled as
   one WAL op — the only record the update appends, so its WAL cost
   grows with the batch, not the workload. Serialised end to end
   by [update_lock]: updates are rare control-plane traffic, and the
   ordering of their WAL ops must match the order their effects were
   published in. *)
let run_update t ~id ~deadline ~digest ~(params : Protocol.solve_params) ~w
    ~deltas ~ds =
  let key = cache_key digest params in
  let base =
    match base_entry t ~lookup:Plan_cache.find ~key ~digest with
    | Some e -> Ok e
    | None -> (
        match obtain_plan t ~digest ~w ~params ~deadline with
        | Served (plan, _cached) -> Ok { digest; params; plan }
        | Degr _ ->
            (* Applying deltas to some other params' plan would evolve a
               plan nobody asked about — same stance as [chaos]. *)
            Error
              (E (Protocol.Degraded,
                  "solver circuit open; update needs a plan solved at the \
                   requested parameters"))
        | Failed e -> Error e)
  in
  match base with
  | Error e -> reply_of_error ~id e
  | Ok e -> (
      if Admission.expired deadline then
        Protocol.error_response ~id ~code:Protocol.Timeout
          ~message:"deadline exceeded before the update was applied" ()
      else
        (* Empty the slot first: a batch that raises leaves no engine
           behind, half-applied or not. *)
        let resident =
          locked t (fun () ->
              let r = t.resident in
              t.resident <- None;
              r)
        in
        let reused, adopted =
          match resident with
          | Some r when r.entry == e -> (true, Ok (r.model, r.engine))
          | _ -> (false, engine_of_entry ~w e)
        in
        (* Even a branch's base shares rows with the last rendering. *)
        let prev = Option.map (fun r -> r.rendering) resident in
        match adopted with
        | Error err -> reply_of_error ~id err
        | Ok (model, eng) -> (
            let t0 = Clock.now_ns () in
            match Engine.apply eng ds with
            | stats -> (
                let apply_s = Clock.seconds_since t0 in
                (* Back to what [Engine.of_plan e'] builds, so the next
                   update answers the same from this engine as journal
                   replay does from [e']. *)
                Engine.canonicalize eng;
                let w' = (Engine.problem eng).Problem.workload in
                let new_digest, rendering = render ?prev w' in
                let e' =
                  entry_of_engine ~model ~digest:new_digest ~params
                    ~solve_seconds:apply_s eng
                in
                (* Register and publish, then journal: the update record
                   alone is durable state, since replay and replication
                   re-derive [w'] and [e'] from the deltas. *)
                ignore (keep_workload t new_digest w');
                keep_entry t e';
                locked t (fun () ->
                    if t.role = Leader then
                      t.resident <- Some { entry = e'; model; engine = eng; rendering });
                let index =
                  journal_append t
                    (Record.Update
                       { origin = Some t.config.name; digest; params; deltas; new_digest })
                in
                record_update t ~seconds:apply_s ~resolved:stats.Engine.resolved
                  ~resident:reused;
                match await_commit t index with
                | Error m ->
                    Protocol.error_response ~id ~code:Protocol.No_quorum
                      ~message:
                        ("update applied and journaled locally but not \
                          quorum-replicated; it may be truncated if this \
                          leader is fenced: " ^ m)
                      ()
                | Ok () ->
                Protocol.ok_response ~id
                  (plan_fields new_digest params e'.plan ~cached:false
                  @ [
                      ("previous_digest", Json.String digest);
                      ("deltas_applied", Json.Int (List.length ds));
                      ("apply_s", Json.Float apply_s);
                      ("resolved", Json.Bool stats.Engine.resolved);
                      ("dirty_subscribers", Json.Int stats.Engine.dirty_subscribers);
                      ("pairs_kept", Json.Int stats.Engine.pairs_kept);
                      ("pairs_added", Json.Int stats.Engine.pairs_added);
                      ("pairs_removed", Json.Int stats.Engine.pairs_removed);
                      ("pairs_evicted", Json.Int stats.Engine.pairs_evicted);
                      ("vms_added", Json.Int stats.Engine.vms_added);
                      ("vms_removed", Json.Int stats.Engine.vms_removed);
                    ]))
            | exception Invalid_argument m ->
                Protocol.error_response ~id ~code:Protocol.Bad_request ~message:m ()
            | exception Problem.Infeasible m ->
                Protocol.error_response ~id ~code:Protocol.Infeasible ~message:m ()))

let handle_update t ~id ~deadline ~digest ~params ~deltas =
  if role t = Follower then
    (* A follower's state is a mirror of the leader's journal; a local
       update would fork it. The router sends updates leader-only. *)
    Protocol.error_response ~id ~code:Protocol.Not_leader
      ~message:"this replica is a follower; send updates to the shard leader" ()
  else if draining t then
    Protocol.error_response ~id ~code:Protocol.Draining
      ~message:"server is draining; no new updates" ()
  else
    with_workload t ~id digest (fun w ->
        match Delta_io.of_string deltas with
        | exception Delta_io.Parse_error m ->
            Protocol.error_response ~id ~code:Protocol.Bad_request ~message:m ()
        | [] ->
            Protocol.error_response ~id ~code:Protocol.Bad_request
              ~message:"empty delta batch" ()
        | ds ->
            Mutex.lock t.update_lock;
            Fun.protect
              ~finally:(fun () -> Mutex.unlock t.update_lock)
              (fun () -> run_update t ~id ~deadline ~digest ~params ~w ~deltas ~ds))

let handle_whatif t ~id ~deadline ~digest ~params ~taus =
  with_workload t ~id digest (fun w ->
      let rec sweep acc = function
        | [] -> Ok (List.rev acc)
        | tau :: rest ->
            if Admission.expired deadline then
              Error
                (E (Protocol.Timeout,
                    Printf.sprintf
                      "deadline exceeded after %d of %d points (finished points \
                       are cached)"
                      (List.length acc)
                      (List.length acc + 1 + List.length rest)))
            else
              let params = { params with Protocol.tau } in
              (match obtain_plan t ~digest ~w ~params ~deadline with
              | Served (plan, cached) ->
                  sweep (Json.Obj (plan_fields digest params plan ~cached) :: acc) rest
              | Degr (e, reason) ->
                  (* A sweep under an open circuit still answers: this
                     point is marked degraded, the rest keep going. *)
                  sweep (Json.Obj (degraded_fields params e ~reason) :: acc) rest
              | Failed e -> Error e)
      in
      match sweep [] taus with
      | Ok points ->
          Protocol.ok_response ~id
            [ ("digest", Json.String digest); ("points", Json.List points) ]
      | Error e -> reply_of_error ~id e)

let handle_chaos t ~id ~deadline ~digest ~params ~seed ~epochs ~zones ~faults =
  with_workload t ~id digest (fun w ->
      match obtain_plan t ~digest ~w ~params ~deadline with
      | Failed e -> reply_of_error ~id e
      | Degr _ ->
          (* A drill against some other plan would answer a question
             nobody asked; chaos needs the plan for these exact params. *)
          Protocol.error_response ~id ~code:Protocol.Degraded
            ~message:
              "solver circuit open; chaos drills need a plan solved at the \
               requested parameters"
            ()
      | Served (plan, cached) -> (
          let fleet = plan.result.Solver.num_vms in
          let campaign_result =
            if faults = [] then
              Ok (Failure_model.random ~seed ~num_vms:fleet ~zones ())
            else
              let rec conv acc = function
                | [] -> Ok { Failure_model.seed; faults = List.rev acc }
                | s :: rest -> (
                    match Failure_model.fault_of_string s with
                    | Ok f -> conv (f :: acc) rest
                    | Error m -> Error m)
              in
              conv [] faults
          in
          match campaign_result with
          | Error m ->
              Protocol.error_response ~id ~code:Protocol.Bad_request ~message:m ()
          | Ok campaign -> (
              match problem_for w params with
              | Error e -> reply_of_error ~id e
              | Ok (_model, p) -> (
                  let policy = { Orchestrator.default_policy with Orchestrator.epochs } in
                  (* Passive drill against the cached allocation: other
                     connections keep being served by the other workers
                     while this one spins the simulator. *)
                  match
                    Orchestrator.evaluate ~policy ~zones ~campaign p
                      plan.result.Solver.allocation
                  with
                  | sla ->
                      Protocol.ok_response ~id
                        [
                          ("digest", Json.String digest);
                          ("plan_cached", Json.Bool cached);
                          ("fleet_vms", Json.Int fleet);
                          ("zones", Json.Int zones);
                          ("epochs", Json.Int epochs);
                          ("campaign_seed", Json.Int campaign.Failure_model.seed);
                          ("faults",
                           Json.List
                             (List.map
                                (fun f -> Json.String (Failure_model.fault_to_string f))
                                campaign.Failure_model.faults));
                          ("delivered_fraction",
                           Json.Float sla.Sla.delivered_fraction);
                          ("violation_hours", Json.Float sla.Sla.violation_hours);
                          ("violation_epochs", Json.Int sla.Sla.violation_epochs);
                          ("lost_events", Json.Int sla.Sla.lost_events);
                          ("worst_epoch_violations",
                           Json.Int sla.Sla.worst_epoch_violations);
                        ]
                  | exception Invalid_argument m ->
                      Protocol.error_response ~id ~code:Protocol.Bad_request
                        ~message:m ()))))

let handle_stats t ~id =
  let cs = Plan_cache.stats t.cache in
  let breaker_state = Breaker.state t.breaker in
  let requests, solver_run_count, workloads, degraded_served, replay =
    locked t (fun () ->
        ( t.requests,
          t.solver_run_count,
          Hashtbl.length t.workloads,
          t.degraded_served,
          t.replay ))
  in
  Protocol.ok_response ~id
    ([
       ("uptime_s", Json.Float (uptime_s t));
       ("draining", Json.Bool (draining t));
       ("role", Json.String (role_to_string (role t)));
       ("requests", Json.Int requests);
       ("workloads_resident", Json.Int workloads);
       ("solver_runs", Json.Int solver_run_count);
       ("degraded_served", Json.Int degraded_served);
       ("inflight_solves", Json.Int (Admission.in_flight t.gate));
       ("max_inflight_solves", Json.Int (Admission.max_in_flight t.gate));
       ("overload_rejections", Json.Int (Admission.rejected t.gate));
       ( "cache",
         Json.Obj
           [
             ("capacity", Json.Int (Plan_cache.capacity t.cache));
             ("entries", Json.Int cs.Plan_cache.entries);
             ("hits", Json.Int cs.Plan_cache.hits);
             ("misses", Json.Int cs.Plan_cache.misses);
             ("evictions", Json.Int cs.Plan_cache.evictions);
             ("hit_ratio", Json.Float (Plan_cache.hit_ratio cs));
           ] );
       ( "breaker",
         Json.Obj
           [
             ("state", Json.String (Breaker.state_to_string breaker_state));
             ("opens", Json.Int (Breaker.opens t.breaker));
             ("closes", Json.Int (Breaker.closes t.breaker));
             ("rejections", Json.Int (Breaker.rejections t.breaker));
             ("consecutive_failures",
              Json.Int (Breaker.consecutive_failures t.breaker));
           ] );
     ]
    @ (match t.journal with
      | None -> []
      | Some j ->
          [
            ( "journal",
              Json.Obj
                [
                  ("wal_records", Json.Int (Journal.wal_records j));
                  ("snapshots", Json.Int (Journal.snapshots_taken j));
                  ("base_index", Json.Int (Journal.base_index j));
                  ("last_index", Json.Int (Journal.last_index j));
                  ("epoch", Json.Int (Journal.epoch j));
                  ("last_epoch", Json.Int (Journal.last_epoch j));
                ] );
          ])
    @
    match replay with
    | None -> []
    | Some r ->
        [
          ( "replay",
            Json.Obj
              [
                ("workloads_recovered", Json.Int r.workloads_recovered);
                ("plans_recovered", Json.Int r.plans_recovered);
                ("updates_replayed", Json.Int r.updates_replayed);
                ("records_skipped", Json.Int r.records_skipped);
                ("wal_truncated_bytes", Json.Int r.wal_truncated_bytes);
                ("corrupt_records", Json.Int r.corrupt_records);
                ("dropped_frames", Json.Int r.dropped_frames);
              ] );
        ])

let handle_metrics t ~id =
  refresh_gauges t;
  let body = locked t (fun () -> Sink.prometheus t.obs) in
  Protocol.ok_response ~id
    [
      ("content_type", Json.String "text/plain; version=0.0.4");
      ("body", Json.String body);
    ]

let handle_promote t ~id ~epoch:e =
  let promoted = promote ?epoch:e t in
  Protocol.ok_response ~id
    [
      ("role", Json.String "leader");
      ("promoted", Json.Bool promoted);
      ("epoch", Json.Int (epoch t));
    ]

let handle_demote t ~id ~epoch:e =
  match demote t ~epoch:e with
  | Error m -> Protocol.error_response ~id ~code:Protocol.Bad_request ~message:m ()
  | Ok demoted ->
      Protocol.ok_response ~id
        [
          ("role", Json.String "follower");
          ("demoted", Json.Bool demoted);
          ("epoch", Json.Int (epoch t));
        ]

let handle_shutdown t ~id =
  let served = locked t (fun () -> t.draining <- true; t.requests) in
  Protocol.ok_response ~id
    [ ("draining", Json.Bool true); ("requests_served", Json.Int served) ]

(* ----- dispatch ----- *)

let endpoint_of =
  let health = endpoint "health" and load = endpoint "load" and solve = endpoint "solve"
  and update = endpoint "update" and whatif = endpoint "whatif" and chaos = endpoint "chaos"
  and stats = endpoint "stats" and metrics = endpoint "metrics"
  and promote = endpoint "promote" and demote = endpoint "demote"
  and shutdown = endpoint "shutdown" and drain = endpoint "drain"
  and rehome = endpoint "rehome" and ledger = endpoint "ledger" in
  function
  | Protocol.Health -> health
  | Protocol.Load _ -> load
  | Protocol.Solve _ -> solve
  | Protocol.Update _ -> update
  | Protocol.Whatif _ -> whatif
  | Protocol.Chaos _ -> chaos
  | Protocol.Stats -> stats
  | Protocol.Metrics -> metrics
  | Protocol.Promote _ -> promote
  | Protocol.Demote _ -> demote
  | Protocol.Shutdown -> shutdown
  | Protocol.Drain -> drain
  | Protocol.Rehome _ -> rehome
  | Protocol.Ledger -> ledger

let handle t (env : Protocol.envelope) =
  let id = env.Protocol.id in
  let endpoint = endpoint_of env.Protocol.request in
  let deadline =
    Admission.deadline_of_ms
      (match env.Protocol.deadline_ms with
      | Some _ as d -> d
      | None -> t.config.default_deadline_ms)
  in
  let t0 = Clock.now_ns () in
  let dispatch () =
    match env.Protocol.request with
    | Protocol.Health -> handle_health t ~id
    | Protocol.Load source -> handle_load t ~id source
    | Protocol.Solve { digest; params } -> handle_solve t ~id ~deadline ~digest ~params
    | Protocol.Update { digest; params; deltas } ->
        handle_update t ~id ~deadline ~digest ~params ~deltas
    | Protocol.Whatif { digest; params; taus } ->
        handle_whatif t ~id ~deadline ~digest ~params ~taus
    | Protocol.Chaos { digest; params; seed; epochs; zones; faults } ->
        handle_chaos t ~id ~deadline ~digest ~params ~seed ~epochs ~zones ~faults
    | Protocol.Stats -> handle_stats t ~id
    | Protocol.Metrics -> handle_metrics t ~id
    | Protocol.Promote { epoch } -> handle_promote t ~id ~epoch
    | Protocol.Demote { epoch } -> handle_demote t ~id ~epoch
    | Protocol.Shutdown -> handle_shutdown t ~id
    | Protocol.Drain | Protocol.Rehome _ | Protocol.Ledger ->
        Protocol.error_response ~id ~code:Protocol.Bad_request
          ~message:
            (Printf.sprintf
               "%S is a dataplane control verb: send it to a broker socket \
                (mcss dataplane), not a planning server"
               endpoint.name)
          ()
  in
  let reply =
    match dispatch () with
    | r -> r
    | exception exn ->
        Protocol.error_response ~id ~code:Protocol.Internal
          ~message:(Printexc.to_string exn) ()
  in
  record_request t ~endpoint ~ok:(Protocol.response_ok reply)
    ~seconds:(Clock.seconds_since t0);
  reply

let handle_line t line =
  match Json.parse line with
  | Error m -> Protocol.error_response ~code:Protocol.Bad_request ~message:m ()
  | Ok j -> (
      match Protocol.decode j with
      | Error m ->
          Protocol.error_response ~id:(Json.member "id" j)
            ~code:Protocol.Bad_request ~message:m ()
      | Ok env -> handle t env)
