module Workload = Mcss_workload.Workload
module Wio = Mcss_workload.Wio
module Solver = Mcss_core.Solver
module Registry = Mcss_obs.Registry
module Counter = Mcss_obs.Metric.Counter

type plan = {
  result : Solver.result;
  bandwidth_gb : float;
  solve_seconds : float;
  text : string;
  plan_digest : string;
}

type entry = { digest : string; params : Protocol.solve_params; plan : plan }

external format_float : string -> float -> string = "caml_format_float"

(* [Printf.sprintf "%.17g" x], through the primitive [Printf]'s [%g]
   calls: an integral float below 1e15 with a clear sign bit prints as
   its integer's digits. *)
let g17 x =
  if Float.is_integer x && x < 1e15 && not (Float.sign_bit x) then
    string_of_int (int_of_float x)
  else format_float "%.17g" x

(* "parallel" is the default config (see [Service]'s [resolve_config]);
   every other name is its own. *)
let ladder_name name =
  if name = "parallel" then fst (List.find (fun (_, c) -> c = Solver.default) Solver.ladder)
  else name

let cache_key digest (params : Protocol.solve_params) =
  String.concat ""
    [
      digest; "|tau="; g17 params.Protocol.tau; "|instance="; params.Protocol.instance;
      "|bc="; (match params.Protocol.bc_events with None -> "default" | Some x -> g17 x);
      "|config="; ladder_name params.Protocol.config;
    ]

let plan_record ~origin ({ digest; params; plan } : entry) =
  let r = plan.result in
  Record.Plan
    { origin; digest; params; plan = plan.text;
      bandwidth = r.Solver.bandwidth; bandwidth_gb = plan.bandwidth_gb; cost = r.Solver.cost;
      stage1_s = r.Solver.stage1_seconds; stage2_s = r.Solver.stage2_seconds;
      solve_s = plan.solve_seconds }

(* An update as the journal holds it, O(Δ) — what its deltas were
   applied to, the params, the batch and the digest it made — plus the
   plan digest the update answered with, which a rebuild must
   reproduce. *)
type version = {
  base : base;
  params : Protocol.solve_params;
  deltas : string;
  made : string;
  plan_digest : string;
}

(* The plan of an earlier version, or a solver plan (or one a [plan]
   record carried), which is pinned so that the versions built on it
   stay rebuildable. *)
and base = Derived of version | Solved of entry

(* What the store holds for one digest. A pinned digest is a root, so
   it is never evicted. *)
type record = {
  mutable workload : Workload.t option;  (** [None] once evicted. *)
  mutable fallback : entry option;  (** Goes with the workload. *)
  mutable version : version option;  (** The latest update that made it. *)
  mutable pinned : entry list;  (** One per cache key. *)
}

type t = {
  obs : Registry.t;
  cache : entry Plan_cache.t;
  replay : w:Workload.t -> entry -> deltas:string -> (entry * Workload.t) option;
  records : (string, record) Hashtbl.t;
  mutable history : version list;  (** Every version, newest first. *)
  mutable newest : string option;  (** The resident update-derived digest. *)
  mutable evicted : int;
  mutable rebuilt : int;
  lock : Mutex.t;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let evicted_counter obs =
  Registry.counter obs ~help:"Update-derived versions evicted from memory"
    "serve.versions.evicted"

let rebuilt_counter obs =
  Registry.counter obs ~help:"Evicted versions rebuilt by replaying their update records"
    "serve.versions.rebuilt"

let create ~obs ~lock ~cache ~replay =
  (* Registered up front, so [metrics] shows them at zero. *)
  ignore (evicted_counter obs);
  ignore (rebuilt_counter obs);
  {
    obs; cache; replay; records = Hashtbl.create 8; history = []; newest = None;
    evicted = 0; rebuilt = 0; lock;
  }

let clear t =
  Plan_cache.clear t.cache;
  locked t (fun () ->
      Hashtbl.reset t.records;
      t.history <- [];
      t.newest <- None)

(* Caller holds [t.lock]. *)
let record t digest =
  match Hashtbl.find_opt t.records digest with
  | Some r -> r
  | None ->
      let r = { workload = None; fallback = None; version = None; pinned = [] } in
      Hashtbl.add t.records digest r;
      r

let read t digest f = locked t (fun () -> Option.bind (Hashtbl.find_opt t.records digest) f)
let workload t digest = read t digest (fun r -> r.workload)
let fallback t digest = read t digest (fun r -> r.fallback)

let version t ?key digest =
  read t digest (fun r ->
      match (r.version, key) with
      | Some v, Some key when cache_key digest v.params <> key -> None
      | v, _ -> v)

let keyed key (e : entry) = cache_key e.digest e.params = key

let entry t ~lookup ~key digest =
  match lookup t.cache key with
  | Some e -> Some e
  | None ->
      read t digest (fun r ->
          match r.fallback with
          | Some e when keyed key e -> Some e
          | _ -> List.find_opt (keyed key) r.pinned)

(* Register [w] under [digest]; whether it was not in memory. Without
   [derived] it is a root. With it, it is the newest version, unless a
   pinned plan was solved for it, and the version it replaces is
   evicted: its workload, fallback and cached plans go (a
   [Plan_cache.remove], not a capacity eviction). *)
let keep ?(derived = false) t digest w =
  let fresh, evicted =
    locked t (fun () ->
        let r = record t digest in
        let fresh = r.workload = None in
        r.workload <- Some w;
        if (not derived) || r.pinned <> [] then begin
          if t.newest = Some digest then t.newest <- None;
          (fresh, None)
        end
        else begin
          let evicted = match t.newest with Some d when d <> digest -> t.newest | _ -> None in
          t.newest <- Some digest;
          Option.iter
            (fun d ->
              let old = record t d in
              old.workload <- None;
              old.fallback <- None;
              t.evicted <- t.evicted + 1;
              Counter.inc (evicted_counter t.obs))
            evicted;
          (fresh, evicted)
        end)
  in
  Option.iter
    (fun d ->
      List.iter
        (fun (key, (e : entry)) -> if e.digest = d then Plan_cache.remove t.cache key)
        (Plan_cache.to_list t.cache))
    evicted;
  fresh

let add_root t digest w = keep t digest w

let add_entry t (e : entry) =
  locked t (fun () ->
      match Hashtbl.find_opt t.records e.digest with
      | Some ({ workload = Some _; _ } as r) ->
          Plan_cache.add t.cache (cache_key e.digest e.params) e;
          r.fallback <- Some e
      | _ -> ())

let add_update t ~w (e : entry) ~deltas ((e' : entry), w') =
  let key = cache_key e.digest e.params in
  let derived =
    locked t (fun () ->
        let r = record t e.digest in
        match r.version with
        | Some v when v.plan_digest = e.plan.plan_digest && cache_key v.made v.params = key ->
            Some (Derived v)
        | _ ->
            r.pinned <- e :: List.filter (fun p -> not (keyed key p)) r.pinned;
            None)
  in
  let base =
    match derived with
    | Some b -> b
    | None ->
        ignore (keep t e.digest w);
        Solved e
  in
  let v =
    { base; params = e.params; deltas; made = e'.digest; plan_digest = e'.plan.plan_digest }
  in
  locked t (fun () ->
      (record t v.made).version <- Some v;
      t.history <- v :: t.history);
  ignore (keep ~derived:true t e'.digest w');
  add_entry t e'

(* [v]'s workload and plan, while resident. *)
let resident_version t v =
  let key = cache_key v.made v.params in
  match (workload t v.made, entry t ~lookup:Plan_cache.promote ~key v.made) with
  | Some w, Some e when e.plan.plan_digest = v.plan_digest -> Some (w, e)
  | _ -> None

let rebuild t ?(expired = fun () -> false) v =
  (* The versions to replay, oldest first, and what the oldest applies to. *)
  let rec walk v chain =
    match resident_version t v with
    | Some found -> Ok (found, chain)
    | None -> (
        match v.base with
        | Derived b -> walk b (v :: chain)
        | Solved e -> (
            match workload t e.digest with
            | Some w -> Ok ((w, e), v :: chain)
            | None -> Error (`Internal "the workload of a pinned plan is gone")))
  in
  let rec replay ~first (w, e) = function
    | [] -> Ok (w, e)
    | _ :: _ when (not first) && expired () -> Error `Expired
    | v :: rest -> (
        match t.replay ~w e ~deltas:v.deltas with
        | Some (e', w') when e'.digest = v.made && e'.plan.plan_digest = v.plan_digest ->
            ignore (keep ~derived:true t v.made w');
            add_entry t e';
            locked t (fun () ->
                t.rebuilt <- t.rebuilt + 1;
                Counter.inc (rebuilt_counter t.obs));
            replay ~first:false (w', e') rest
        | _ ->
            Error (`Internal (Printf.sprintf "version %s no longer replays to its plan" v.made)))
  in
  Result.bind (walk v []) (fun (start, chain) -> replay ~first:true start chain)

let records t ~origin =
  let cached = List.map snd (Plan_cache.to_list t.cache) in
  let loads, history, fallback_only =
    locked t (fun () ->
        let seen = Hashtbl.create 64 in
        List.iter (fun (e : entry) -> Hashtbl.replace seen (cache_key e.digest e.params) ()) cached;
        let loads, fallback_only =
          Hashtbl.fold
            (fun digest r (loads, fallback_only) ->
              ( (match r.workload with
                | Some w when t.newest <> Some digest ->
                    Record.Load { origin; digest; wio = Wio.to_string w } :: loads
                | _ -> loads),
                match r.fallback with
                | Some e when not (Hashtbl.mem seen (cache_key e.digest e.params)) ->
                    e :: fallback_only
                | _ -> fallback_only ))
            t.records ([], [])
        in
        (loads, t.history, fallback_only))
  in
  let written = Hashtbl.create 8 in
  let updates =
    List.fold_left
      (fun acc v ->
        let digest = match v.base with Derived b -> b.made | Solved e -> e.digest in
        let update =
          Record.Update { origin; digest; params = v.params; deltas = v.deltas; new_digest = v.made }
        in
        match v.base with
        | Solved e when not (Hashtbl.mem written (cache_key e.digest e.params)) ->
            Hashtbl.replace written (cache_key e.digest e.params) ();
            update :: plan_record ~origin e :: acc
        | _ -> update :: acc)
      [] (List.rev history)
  in
  loads @ List.rev updates @ List.map (plan_record ~origin) (fallback_only @ cached)

type stats = { workloads : int; versions : int; evicted : int; rebuilt : int }

let stats t =
  locked t (fun () ->
      {
        workloads = Hashtbl.fold (fun _ r n -> if r.workload = None then n else n + 1) t.records 0;
        versions = (if t.newest = None then 0 else 1);
        evicted = t.evicted;
        rebuilt = t.rebuilt;
      })
