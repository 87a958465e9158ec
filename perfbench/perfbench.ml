(* The repository's end-to-end benchmark: three workloads that time
   calls into each layer's public functions, with correctness gates.

     perfbench.exe --workload plan|replan|deliver --seed N --seconds S
                   --trace 0|1 [--smoke] [--mcss PATH] [--work DIR]

   [plan] is the cold pipeline a [mcss solve --save-plan] pays plus the
   decode a server pays to adopt the plan; [replan] drives the planning
   service in-process with churn updates and cache-hit reads; [deliver]
   pumps a paced open-loop publication schedule through a 2-broker
   fleet running as its own [mcss dataplane] process. See README.md.

   The last stdout line is one JSON object: [correct], [attempted],
   [failed] and [metrics]. With [--trace 0] the metrics are the
   end-to-end set; with [--trace 1] the run measures one untraced and
   one traced window and reports the per-layer set, including the
   tracing overhead (traced minus untraced, per end-to-end metric). *)

module Clock = Mcss_obs.Clock
module Registry = Mcss_obs.Registry
module Span = Mcss_obs.Span
module Gc_phase = Mcss_obs.Gc_phase
module Histogram = Mcss_obs.Metric.Histogram
module Counter = Mcss_obs.Metric.Counter
module Workload = Mcss_workload.Workload
module Wio = Mcss_workload.Wio
module Instance = Mcss_pricing.Instance
module Problem = Mcss_core.Problem
module Solver = Mcss_core.Solver
module Selection = Mcss_core.Selection
module Verifier = Mcss_core.Verifier
module Lower_bound = Mcss_core.Lower_bound
module Plan_io = Mcss_core.Plan_io
module Allocation = Mcss_core.Allocation
module Front = Mcss_front.Front
module Engine = Mcss_engine.Engine
module Delta = Mcss_engine.Delta
module Delta_io = Mcss_engine.Delta_io
module Churn = Mcss_dynamic.Churn
module Service = Mcss_serve.Service
module Journal = Mcss_serve.Journal
module Json = Mcss_serve.Json
module Plan_cache = Mcss_serve.Plan_cache
module Cluster = Mcss_dataplane.Cluster
module Control = Mcss_dataplane.Control
module Ledger = Mcss_dataplane.Ledger
module Publisher = Mcss_dataplane.Publisher
module Pump = Mcss_dataplane.Pump
module Reconcile = Mcss_dataplane.Reconcile
module Subscriber = Mcss_dataplane.Subscriber
module Simulator = Mcss_sim.Simulator
module Fleet = Mcss_broker.Fleet
module Delivery = Mcss_report.Delivery

(* ----- the metric sets ----- *)

(* Every run reports every name of its set, so the two lists are the
   benchmark's schema; a layer a workload does not run reads 0. The
   solve and read medians are measured with the end-to-end figures but
   reported with the layers: on a shared VM they follow the drift of
   memory-bound speed too closely to carry a regression bound (see
   README.md). *)
let end_to_end =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MiB");
    ("plan_cost_usd", "USD");
    ("latency_p50_ms", "ms");
    ("throughput_per_s", "1/s");
    ("cpu_us_per_op", "us");
  ]

(* The end-to-end metrics computed from times, which are reported at
   reference speed ({!Speed}); the traced run also reports them from raw
   times, as [raw.<name>]. *)
let timed_metrics = [ "setup_s"; "latency_p50_ms"; "throughput_per_s"; "cpu_us_per_op" ]

let per_layer =
  [
    ("solve_p50_ms", "ms");
    ("read_p50_us", "us");
    ("env.nproc", "count");
    ("env.solver_domains", "count");
    ("env.brokers", "count");
    ("env.journal_tmpfs", "bool");
    ("env.probe_ms", "ms");
    ("traces.gen_s", "s");
    ("selection.stage1_ms", "ms");
    ("gc.stage1_major_words", "words");
    ("cbp.stage2_ms", "ms");
    ("gc.stage2_major_words", "words");
    ("selection.pairs_selected", "count");
    ("cbp.vms", "count");
    ("lower_bound.gap_pct", "%");
    ("verifier.verify_ms", "ms");
    ("lower_bound.compute_ms", "ms");
    ("plan_io.encode_ms", "ms");
    ("plan_io.decode_ms", "ms");
    ("plan_io.bytes", "bytes");
    ("delta_io.decode_ms", "ms");
    ("engine.of_plan_ms", "ms");
    ("engine.apply_ms", "ms");
    ("engine.served_apply_ms", "ms");
    ("gc.engine_apply_major_words", "words");
    ("engine.dirty_subscribers", "count");
    ("engine.pairs_added", "count");
    ("engine.pairs_removed", "count");
    ("engine.pairs_evicted", "count");
    ("engine.resolves", "count");
    ("service.digest_ms", "ms");
    ("wio.encode_ms", "ms");
    ("service.update_overhead_ms", "ms");
    ("journal.append_ms", "ms");
    ("journal.fsync_s", "s");
    ("journal.wal_bytes_per_update", "bytes");
    ("journal.snapshots", "count");
    ("journal.snapshot_stall_ms", "ms");
    ("service.workloads_resident", "count");
    ("plan_cache.entries", "count");
    ("plan_cache.hit_ratio", "ratio");
    ("json.reply_bytes", "bytes");
    ("replay.sum_ms", "ms");
    ("replay.update_p50_ms", "ms");
    ("tail.latency_p90_ms", "ms");
    ("tail.samples", "count");
    ("cluster.brokers", "count");
    ("cluster.boot_s", "s");
    ("simulator.run_ms", "ms");
    ("simulator.predicted_copies", "count");
    ("publisher.events", "count");
    ("publisher.copies_sent", "count");
    ("publisher.send_failures", "count");
    ("publisher.unrouted", "count");
    ("publisher.lag_ms", "ms");
    ("ledger.delivered", "count");
    ("ledger.dropped", "count");
    ("ledger.skew", "ratio");
    ("fleet.cpu_s", "s");
    ("subscriber.copies", "count");
    ("subscriber.duplicates", "count");
    ("reconcile.max_deviation", "ratio");
    ("subscriber.latency_p95_ms", "ms");
    ("subscriber.latency_p99_ms", "ms");
    ("gate.failed_share", "ratio");
  ]
  @ List.map (fun (n, u) -> ("overhead." ^ n, u)) end_to_end
  @ List.filter_map
      (fun (n, u) -> if List.mem n timed_metrics then Some ("raw." ^ n, u) else None)
      end_to_end

(* ----- small helpers ----- *)

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

let quantile xs q =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      if i >= Array.length a - 1 then a.(Array.length a - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let mean xs = match xs with [] -> 0. | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let timed f =
  let t0 = Clock.now_ns () in
  let x = f () in
  (x, Clock.seconds_since t0)

(* Process CPU (all threads and domains), user + system, seconds. *)
let self_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* [/proc/PID/stat] fields 14 and 15 (utime, stime), in clock ticks of
   the kernel's USER_HZ, which Linux fixes at 100. *)
let proc_cpu pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let after_comm = String.rindex s ')' + 2 in
  let rest = String.sub s after_comm (String.length s - after_comm) in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. 100.

let vmhwm_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' (read_file path))
  in
  Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
      float_of_int kb /. 1024.)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let major_words phase =
  match List.assoc_opt phase (Gc_phase.totals ()) with
  | Some t -> t.Gc_phase.major_words
  | None -> 0.

(* Spans record where the traced window's time goes; [span_ms obs name]
   is the mean wall time per execution of the named span in milliseconds
   (spans are only ever opened at the top level here). *)
let span_ms obs name =
  match Span.find (Span.roots obs) name with
  | Some n when n.Span.count > 0 -> Span.seconds n *. 1e3 /. float_of_int n.Span.count
  | _ -> 0.

let nproc = Domain.recommended_domain_count

let tau = 100.
let instance = Instance.c3_large

(* ----- host speed ----- *)

(* A shared 2-vCPU VM runs the same code at speeds that drift by tens
   of percent, within seconds and for minutes at a time (other tenants
   on the same cores, caches and memory), so raw times of one build
   spread across runs by about as much as the largest regression bound.
   Every timed operation is therefore bracketed by a fixed reference
   task ([probe]), and its time is reported at reference speed:

     scaled = raw *. reference_s /. (mean of the probes just before and
                                     just after it)

   The reference task is the same in every build, so a change that
   makes an operation slower or faster moves the scaled time as it
   moves the raw one, while the host's drift cancels. Raw times are
   reported beside the scaled ones in the per-layer set ([raw.*]). *)
module Speed = struct
  (* About the probe's median time on a 2-vCPU Xeon VM (2 MiB L2 per
     core): scaled times read as that host's milliseconds at that speed. *)
  let reference_s = 0.007

  let walk_len = 1 lsl 20 (* 8 MiB of ints: past L2, as the solver's arrays are *)

  let steps = 1 lsl 15

  let keys = 20_000

  (* Built once, outside any timed window; the task allocates nothing,
     so the program's heap does not change what it costs. *)
  let state =
    lazy
      (let rng = Mcss_prng.Rng.create 42 in
       (* Sattolo's shuffle: one cycle through every slot. *)
       let chain = Array.init walk_len Fun.id in
       for i = walk_len - 1 downto 1 do
         let k = Mcss_prng.Rng.int rng i in
         let t = chain.(i) in
         chain.(i) <- chain.(k);
         chain.(k) <- t
       done;
       (chain, Array.init keys (fun _ -> Mcss_prng.Rng.int rng 1_000_000), Array.make keys 0))

  (* Sort a fixed array of ints, then follow the cycle through 8 MiB
     for 32k steps: mostly branchy compute on L2-resident data, plus some
     dependent loads from memory. A probe weighted towards memory (2^18
     steps) slowed on a noisy host about half as much again as the
     [plan] op did, and so over-corrected it. *)
  let task () =
    let chain, src, dst = Lazy.force state in
    Array.blit src 0 dst 0 keys;
    Array.sort (fun (a : int) b -> compare a b) dst;
    let j = ref 0 in
    for _ = 1 to steps do
      j := chain.(!j)
    done;
    ignore (Sys.opaque_identity !j)

  (* One probe: the median of three runs of the task, in seconds. *)
  let probe () =
    ignore (Lazy.force state);
    let t () = snd (timed task) in
    let a = t () and b = t () and c = t () in
    Float.max (Float.min a b) (Float.min (Float.max a b) c)

  (* Every probe of the run, so its median speed can be reported. *)
  let seen = ref []

  let last = ref None

  let measure () =
    let p = probe () in
    seen := p :: !seen;
    last := Some p;
    p

  (* [bracket f] probes, runs [f], probes again, and returns [f]'s
     result with the factor that scales its times to reference speed.
     The closing probe opens the next bracket when brackets follow each
     other directly. *)
  let bracket f =
    let before = match !last with Some p -> p | None -> measure () in
    let x = f () in
    let after = measure () in
    (x, reference_s /. ((before +. after) /. 2.))

  (* Forget the previous probe: the next bracket opens with its own. *)
  let gap () = last := None

  let median_ms () = median !seen *. 1e3
end

(* [f]'s wall time, raw and at reference speed. *)
let timed_ref f =
  let (x, s), k = Speed.bracket (fun () -> timed f) in
  (x, s, s *. k)

(* The setup a user pays before the first measured operation, done
   [reps] times (earlier results are released) so its median is steady.
   Returns the median seconds at reference speed, the raw median, and
   the last result. *)
let repeated_setup ~reps ~release f =
  let rec go k reported raw last =
    if k = reps then (median reported, median raw, Option.get last)
    else begin
      Option.iter release last;
      Gc.full_major ();
      Speed.gap ();
      let x, s, s_reported = timed_ref f in
      go (k + 1) (s_reported :: reported) (s :: raw) (Some x)
    end
  in
  go 0 [] [] None

(* ----- results ----- *)

type outcome = {
  e2e : (string * float) list;  (** Times at reference speed ({!Speed}). *)
  raw : (string * float) list;  (** The end-to-end metrics from raw times. *)
  layers : (string * float) list;
  attempted : int;
  failed : int;
  errors : string list;  (** Failed gates; empty when correct. *)
}

type ctx = {
  seed : int;
  seconds : float;
  smoke : bool;
  work : string;  (** Scratch directory inside the checkout. *)
  mcss : string;  (** The [mcss] executable the [deliver] fleet runs. *)
}

(* ----- plan: cold planning, closed loop, one client ----- *)

(* What one plan op measured; the plan itself is not kept. *)
type plan_op = {
  latency : float;  (** At reference speed ({!Speed}), as are the next three. *)
  solve_s : float;
  decode_s : float;
  cpu_s : float;
  raw_latency : float;
  raw_cpu_s : float;
  stage1_s : float;
  stage2_s : float;
  cost : float;
  lb_cost : float;
  vms : int;
  pairs_selected : int;
  bytes : int;
  ok : bool;
}

(* One op is Solver.solve -> Verifier.verify -> Lower_bound.compute ->
   Plan_io.to_string -> Plan_io.of_string: the solve-and-save a planner
   pays, plus the decode a server or fleet pays to adopt the plan. *)
let plan_workload ctx ~windows =
  let scale = if ctx.smoke then 0.002 else 0.05 in
  let gen_times = ref [] in
  let setup_s, raw_setup_s, (w, p) =
    repeated_setup ~reps:5 ~release:ignore (fun () ->
        let w, gen_s = timed (fun () -> Front.generate ~seed:ctx.seed `Spotify ~scale) in
        gen_times := gen_s :: !gen_times;
        let _, p = Front.problem_of ~w ~tau ~instance ~scale ~bc_events:None in
        (w, p))
  in
  log "plan: spotify@%g, %d pairs, setup %.3fs" scale (Workload.num_pairs w) setup_s;
  let errors = ref [] in
  let reference = ref None in
  (* An op takes a second or more, longer than the host keeps one speed,
     so each of its five steps is bracketed for the host's speed on its
     own; the op's times are the sums over its steps. *)
  let op obs =
    let latency = ref 0. and cpu_s = ref 0. and raw_latency = ref 0. and raw_cpu_s = ref 0. in
    let step name f =
      let (x, s, c), k =
        Speed.bracket (fun () ->
            let cpu0 = self_cpu () in
            let x, s = timed (fun () -> Span.with_ obs ~name f) in
            (x, s, self_cpu () -. cpu0))
      in
      latency := !latency +. (s *. k);
      cpu_s := !cpu_s +. (c *. k);
      raw_latency := !raw_latency +. s;
      raw_cpu_s := !raw_cpu_s +. c;
      (x, s *. k)
    in
    let r, solve_s = step "solver.solve" (fun () -> Solver.solve ~obs ~domains:1 p) in
    let report, _ =
      step "verifier.verify" (fun () -> Verifier.verify p r.Solver.selection r.Solver.allocation)
    in
    let lb, _ = step "lower_bound.compute" (fun () -> Lower_bound.compute p) in
    let text, _ = step "plan_io.encode" (fun () -> Plan_io.to_string r.Solver.allocation) in
    let (a', _), decode_s = step "plan_io.decode" (fun () -> Plan_io.of_string ~workload:w text) in
    (* Gates, outside the timed op. *)
    let bad = ref [] in
    if not (Verifier.is_valid report) then bad := "plan: verifier violations" :: !bad;
    if Digest.string (Plan_io.to_string a') <> Digest.string text then
      bad := "plan: decode round trip changed the plan digest" :: !bad;
    if lb.Lower_bound.cost > r.Solver.cost *. (1. +. 1e-9) then
      bad := "plan: lower bound above the plan cost" :: !bad;
    (match !reference with
    | None -> reference := Some (r.Solver.cost, r.Solver.num_vms, Digest.string text)
    | Some (c, v, d) ->
        if c <> r.Solver.cost || v <> r.Solver.num_vms || d <> Digest.string text then
          bad := "plan: cost, VM count or plan differ across ops" :: !bad);
    errors := !bad @ !errors;
    {
      latency = !latency; solve_s; decode_s; cpu_s = !cpu_s;
      raw_latency = !raw_latency; raw_cpu_s = !raw_cpu_s;
      stage1_s = r.Solver.stage1_seconds;
      stage2_s = r.Solver.stage2_seconds;
      cost = r.Solver.cost;
      lb_cost = lb.Lower_bound.cost;
      vms = r.Solver.num_vms;
      pairs_selected = r.Solver.selection.Selection.num_pairs;
      bytes = String.length text;
      ok = !bad = [];
    }
  in
  ignore (op Registry.noop) (* warm-up: heap growth and lazy set-up *);
  let window obs =
    let gc1 = major_words "stage1" and gc2 = major_words "stage2" in
    let t0 = Clock.now_ns () in
    let rec loop acc =
      if Clock.seconds_since t0 >= ctx.seconds && List.length acc >= 3 then acc
      else loop (op obs :: acc)
    in
    let ops = loop [] in
    let n = List.length ops and last = List.hd ops in
    let pick f = List.map f ops in
    let sum = List.fold_left ( +. ) 0. in
    let failed = List.length (List.filter (fun o -> not o.ok) ops) in
    let per_op x = x /. float_of_int n in
    let pairs = float_of_int (Workload.num_pairs w * n) in
    let e2e_of ~setup_s lat cpu =
      [
        ("setup_s", setup_s);
        ("peak_rss_mb", vmhwm_mb 0);
        ("plan_cost_usd", last.cost);
        ("latency_p50_ms", median lat *. 1e3);
        ("throughput_per_s", pairs /. sum lat);
        ("cpu_us_per_op", per_op (sum cpu) *. 1e6);
      ]
    in
    let lat = pick (fun o -> o.latency) in
    let e2e =
      e2e_of ~setup_s lat (pick (fun o -> o.cpu_s))
      @ [
          ("solve_p50_ms", median (pick (fun o -> o.solve_s)) *. 1e3);
          ("read_p50_us", median (pick (fun o -> o.decode_s)) *. 1e6);
        ]
    in
    let raw =
      e2e_of ~setup_s:raw_setup_s (pick (fun o -> o.raw_latency)) (pick (fun o -> o.raw_cpu_s))
    in
    let layers =
      [
        ("env.solver_domains", 1.);
        ("traces.gen_s", median !gen_times);
        ("selection.stage1_ms", mean (pick (fun o -> o.stage1_s)) *. 1e3);
        ("cbp.stage2_ms", mean (pick (fun o -> o.stage2_s)) *. 1e3);
        ("gc.stage1_major_words", per_op (major_words "stage1" -. gc1));
        ("gc.stage2_major_words", per_op (major_words "stage2" -. gc2));
        ("selection.pairs_selected", float_of_int last.pairs_selected);
        ("cbp.vms", float_of_int last.vms);
        ("lower_bound.gap_pct", (last.cost -. last.lb_cost) /. last.lb_cost *. 100.);
        ("verifier.verify_ms", span_ms obs "verifier.verify");
        ("lower_bound.compute_ms", span_ms obs "lower_bound.compute");
        ("plan_io.encode_ms", span_ms obs "plan_io.encode");
        ("plan_io.decode_ms", span_ms obs "plan_io.decode");
        ("plan_io.bytes", float_of_int last.bytes);
        ("tail.latency_p90_ms", quantile lat 0.9 *. 1e3);
        ("tail.samples", float_of_int n);
        ("gate.failed_share", float_of_int failed /. float_of_int n);
      ]
    in
    { e2e; raw; layers; attempted = n; failed; errors = [] }
  in
  let results = windows window in
  List.map (fun o -> { o with errors = List.rev !errors }) results

(* ----- replan: the planning service under churn, closed loop ----- *)

(* The traced window replays each served [update] step by step through
   the public calls the service composes, timing every step; the
   replayed plan must also be the served one. *)
type replay = {
  mutable w : Workload.t;
  mutable text : string;  (** Canonical plan text of the current plan. *)
  journal : Journal.t;
  bc : float;
  mutable wal_bytes : int;  (** Journal bytes the last update appended. *)
}

let f17 x = Json.String (Printf.sprintf "%.17g" x)

let replay_step obs rp ~digest:prev_digest deltas_text =
  let step name f = Span.with_ obs ~name f in
  let ds = step "delta_io.decode" (fun () -> Delta_io.of_string deltas_text) in
  let allocation, selection =
    step "plan_io.decode" (fun () -> Plan_io.of_string ~workload:rp.w rp.text)
  in
  let _, problem =
    Front.problem_of ~w:rp.w ~tau ~instance ~scale:1. ~bc_events:(Some rp.bc)
  in
  let eng =
    step "engine.of_plan" (fun () ->
        Engine.of_plan ~config:Solver.default { Engine.problem; selection; allocation })
  in
  ignore (step "engine.apply" (fun () -> Engine.apply eng ds));
  let w' = (Engine.problem eng).Problem.workload in
  (* The service digests the evolved workload twice (to register it and
     to key the evolved plan) and decodes the new plan text back into
     its cache entry. *)
  let digest = step "service.digest" (fun () -> Service.digest_of_workload w') in
  ignore (step "service.digest" (fun () -> Service.digest_of_workload w'));
  let text = step "plan_io.encode" (fun () -> Plan_io.to_string (Engine.plan eng).Engine.allocation) in
  ignore (step "plan_io.decode" (fun () -> Plan_io.of_string ~workload:w' text));
  let load_op =
    step "wio.encode" (fun () ->
        Json.to_string
          (Json.Obj
             [
               ("op", Json.String "load");
               ("origin", Json.String "node");
               ("digest", Json.String digest);
               ("wio", Json.String (Wio.to_string w'));
             ]))
  in
  let update_op =
    Json.to_string
      (Json.Obj
         [
           ("op", Json.String "update");
           ("origin", Json.String "node");
           ("digest", Json.String prev_digest);
           ("tau", f17 tau);
           ("instance", Json.String "c3.large");
           ("config", Json.String Mcss_serve.Protocol.default_params.Mcss_serve.Protocol.config);
           ("bc", f17 rp.bc);
           ("deltas", Json.String deltas_text);
           ("new_digest", Json.String digest);
         ])
  in
  step "journal.append" (fun () ->
      Journal.append rp.journal load_op;
      Journal.append rp.journal update_op);
  rp.wal_bytes <- String.length load_op + String.length update_op + (2 * Journal.header_bytes);
  rp.w <- w';
  rp.text <- text

(* Per update, with the number of times the service runs each step. *)
let replay_steps =
  [ ("delta_io.decode", 1.); ("plan_io.decode", 2.); ("engine.of_plan", 1.);
    ("engine.apply", 1.); ("service.digest", 2.); ("wio.encode", 1.);
    ("plan_io.encode", 1.); ("journal.append", 1.) ]

let json_string name j = Option.bind (Json.member name j) Json.to_string_opt
let json_float name j = Option.bind (Json.member name j) Json.to_float_opt
let json_int name j = Option.bind (Json.member name j) Json.to_int_opt
let json_ok j = Json.member "ok" j = Some (Json.Bool true)

(* One service's life in the [replan] window. *)
type episode = {
  svc : Service.t;
  dir : string;  (** Its journal. *)
  mutable digest : string;  (** Of the current workload. *)
  mutable served : string;  (** Digest of the current served plan. *)
  mutable client_w : Workload.t;  (** What the next churn tick is drawn against. *)
  mutable updates : int;
  oracle : Engine.t;
  replay : replay;
}

(* The window is a sequence of episodes of [episode_len] updates, each on
   a fresh service set up from the same trace. Every update leaves its
   workload and plan resident, so this bounds this process's memory, and
   it keeps the journal below its default snapshot threshold (256
   records, two per update); the traced window reports the stall the
   next snapshot would cost. *)
let replan_workload ctx ~windows =
  let scale = 0.005 and episode_len = if ctx.smoke then 5 else 40 in
  let w = Front.generate ~seed:ctx.seed `Spotify ~scale in
  (* The default capacity, as the service parses it back from the
     request line. *)
  let bc = float_of_string (Json.to_string (Json.Float (Front.bc_events ~scale instance))) in
  let _, p0 = Front.problem_of ~w ~tau ~instance ~scale ~bc_events:(Some bc) in
  let params =
    [ ("tau", Json.Float tau); ("instance", Json.String "c3.large"); ("bc_events", Json.Float bc) ]
  in
  let request verb fields = Json.to_string (Json.Obj (("req", Json.String verb) :: fields)) in
  let errors = ref [] in
  let err m =
    log "%s" m;
    errors := m :: !errors
  in
  (* The oracles' base plan: a benchmark-side cold solve, which must be
     the plan each episode's service solves. *)
  let text0 = Plan_io.to_string (Solver.solve ~domains:1 p0).Solver.allocation in
  let replay_journal, _ =
    Journal.open_ (Journal.default_config ~dir:(Filename.concat ctx.work "replay-journal"))
  in
  let gen_times = ref [] and setup_times = ref [] and episodes = ref 0 in
  let svc_obs = ref Registry.noop in
  (* Set-up: generation + Service.create + load + the first (cold) solve. *)
  let setup () =
    incr episodes;
    let dir = Filename.concat ctx.work (Printf.sprintf "journal-%d" !episodes) in
    let (w, gen_s, svc, load, digest, solve), raw_s, ref_s =
      timed_ref (fun () ->
          let w, gen_s = timed (fun () -> Front.generate ~seed:ctx.seed `Spotify ~scale) in
          let config =
            { Service.default_config with Service.journal = Some (Journal.default_config ~dir) }
          in
          let svc = Service.create ~obs:!svc_obs ~config () in
          let load =
            Service.handle_line svc (request "load" [ ("workload", Json.String (Wio.to_string w)) ])
          in
          let digest = Option.value ~default:"" (json_string "digest" load) in
          let solve =
            Service.handle_line svc (request "solve" (("digest", Json.String digest) :: params))
          in
          (w, gen_s, svc, load, digest, solve))
    in
    gen_times := gen_s :: !gen_times;
    setup_times := (ref_s, raw_s) :: !setup_times;
    if not (json_ok load && json_ok solve) then failwith "replan: set-up load/solve failed";
    if json_string "plan_digest" solve <> Some (Digest.to_hex (Digest.string text0)) then
      err "replan: the benchmark-side cold solve differs from the served plan";
    { svc; dir; digest; served = Digest.to_hex (Digest.string text0); client_w = w; updates = 0;
      (* An engine evolved by the same delta stream as the service: at
         the episode's end its plan must be the served plan and verify. *)
      oracle =
        (let allocation, selection = Plan_io.of_string ~workload:w text0 in
         Engine.of_plan ~config:Solver.default { Engine.problem = p0; selection; allocation });
      replay = { w; text = text0; journal = replay_journal; bc; wal_bytes = 0 } }
  in
  let finish ep =
    let plan = Engine.plan ep.oracle in
    if Digest.to_hex (Digest.string (Plan_io.to_string plan.Engine.allocation)) <> ep.served then
      err "replan: the served plan differs from the engine replay of the delta stream";
    if not (Verifier.is_valid (Verifier.verify plan.Engine.problem plan.Engine.selection plan.Engine.allocation)) then
      err "replan: the replayed plan does not verify";
    Service.close ep.svc;
    rm_rf ep.dir
  in
  let rng = Mcss_prng.Rng.create ((ctx.seed * 7919) + 17) in
  let churn = Churn.scaled 0.05 in
  let reads_per_update = 1000 and cost_at = if ctx.smoke then 3 else 20 in
  (* Cost and peak RSS are read after a fixed number of updates, so they
     do not move with how many updates fit in the window. *)
  let cost_k = ref nan and rss_k = ref nan and updates_done = ref 0 in
  let window obs =
    let traced = Registry.enabled obs in
    if traced then svc_obs := Registry.create ();
    let ep =
      ref
        (if !episodes > 0 then setup ()
         else
           (* The first window repeats the set-up five times, as the
              other workloads do, each on a heap cleared of its garbage. *)
           let ep = ref None in
           for _ = 1 to 5 do
             Option.iter finish !ep;
             Gc.full_major ();
             Speed.gap ();
             ep := Some (setup ())
           done;
           Option.get !ep)
    in
    (* Per step, (at reference speed, raw) seconds. *)
    let lat = ref [] and busy = ref [] and cpu = ref [] in
    let applies = ref [] and overheads = ref [] and reads = ref [] in
    let requests = ref 0 and bad = ref 0 and reply_bytes = ref [] in
    let dirty = ref 0 and added = ref 0 and removed = ref 0 and evicted = ref 0 and resolves = ref 0 in
    let gc_apply = ref 0. and snapshot_lat = ref [] in
    let snaps () =
      List.fold_left
        (fun acc s ->
          match s.Registry.metric with
          | Registry.Counter c when s.Registry.name = "serve.journal.snapshots" -> acc + Counter.value c
          | _ -> acc)
        0 (Registry.samples !svc_obs)
    in
    let snaps0 = snaps () in
    let t0 = Clock.now_ns () in
    let n = ref 0 in
    while Clock.seconds_since t0 < ctx.seconds || !updates_done < cost_at || !n < 3 do
      if !ep.updates = episode_len then begin
        finish !ep;
        ep := setup ()
      end;
      let e = !ep in
      (* One step, bracketed for the host's speed ({!Speed}); the
         update and the read batch are timed inside it. *)
      let (s, rs, cpu_s), k =
        Speed.bracket @@ fun () ->
        let cpu0 = self_cpu () in
        let ds = Churn.tick rng churn e.client_w in
        let deltas_text = Delta_io.to_string ds in
        let line =
          request "update"
            (("digest", Json.String e.digest) :: ("deltas", Json.String deltas_text) :: params)
        in
        let snaps_before = snaps () and gc0 = major_words "engine.apply" in
        let (reply, bytes), s =
          timed (fun () ->
              let r = Service.handle_line e.svc line in
              (r, String.length (Json.to_string r)))
        in
        gc_apply := !gc_apply +. (major_words "engine.apply" -. gc0);
        incr requests;
        incr n;
        incr updates_done;
        e.updates <- e.updates + 1;
        reply_bytes := float_of_int bytes :: !reply_bytes;
        if snaps () > snaps_before then snapshot_lat := s :: !snapshot_lat;
        if not (json_ok reply) then begin
          incr bad;
          err ("replan: update failed: " ^ Json.to_string reply)
        end
        else begin
          let get name = Option.value ~default:0 (json_int name reply) in
          let apply_s = Option.value ~default:nan (json_float "apply_s" reply) in
          applies := apply_s :: !applies;
          overheads := (s -. apply_s) :: !overheads;
          dirty := !dirty + get "dirty_subscribers";
          added := !added + get "pairs_added";
          removed := !removed + get "pairs_removed";
          evicted := !evicted + get "pairs_evicted";
          if Json.member "resolved" reply = Some (Json.Bool true) then incr resolves;
          if !updates_done = cost_at then begin
            cost_k := Option.value ~default:nan (json_float "cost_usd" reply);
            rss_k := vmhwm_mb 0
          end;
          let prev = e.digest in
          e.digest <- Option.value ~default:"" (json_string "digest" reply);
          e.served <- Option.value ~default:"" (json_string "plan_digest" reply);
          ignore (Engine.apply e.oracle ds);
          if traced then begin
            replay_step obs e.replay ~digest:prev deltas_text;
            if Digest.to_hex (Digest.string e.replay.text) <> e.served then
              err "replan: served plan digest differs from the step-by-step replay"
          end
        end;
        e.client_w <- Delta.apply e.client_w ds;
        (* A fixed batch of cache-hit reads of the new digest, timed as a
           batch: single reads are too short to repeat within a tenth. *)
        let read = request "solve" (("digest", Json.String e.digest) :: params) in
        let ok = ref true in
        let (), rs =
          timed (fun () ->
              for _ = 1 to reads_per_update do
                let r = Service.handle_line e.svc read in
                ignore (Json.to_string r);
                if not (json_ok r && Json.member "cached" r = Some (Json.Bool true)) then ok := false
              done)
        in
        requests := !requests + reads_per_update;
        if not !ok then begin
          incr bad;
          err "replan: a cache-hit read failed or missed the cache"
        end;
        (s, rs, self_cpu () -. cpu0)
      in
      lat := (s *. k, s) :: !lat;
      busy := (((s +. rs) *. k), s +. rs) :: !busy;
      cpu := ((cpu_s *. k), cpu_s) :: !cpu;
      reads := (rs *. k /. float_of_int reads_per_update) :: !reads
    done;
    let cs = Service.cache_stats !ep.svc in
    let resident = !ep.updates + 1 in
    let snapshot_stall_ms =
      match !snapshot_lat with
      | [] when traced ->
          (* No snapshot fell inside the window: time the one the
             service would take now, state gathering included. *)
          let _, s =
            timed (fun () ->
                let _, _, state = Service.sync_state !ep.svc in
                Journal.snapshot replay_journal state)
          in
          s *. 1e3
      | [] -> 0.
      | l -> (mean l -. median (List.map snd !lat)) *. 1e3
    in
    finish !ep;
    let fsync_s =
      List.fold_left
        (fun acc s ->
          match s.Registry.metric with
          | Registry.Histogram h when s.Registry.name = "serve.journal.fsync_seconds" ->
              Histogram.mean h
          | _ -> acc)
        0. (Registry.samples !svc_obs)
    in
    let n = float_of_int !n in
    let step_ms = List.map (fun (step, k) -> (step ^ "_ms", span_ms obs step *. k)) replay_steps in
    let sum = List.fold_left ( +. ) 0. in
    let e2e_of pick =
      [
        ("setup_s", median (pick !setup_times));
        ("peak_rss_mb", !rss_k);
        ("plan_cost_usd", !cost_k);
        ("latency_p50_ms", median (pick !lat) *. 1e3);
        ("throughput_per_s", n /. sum (pick !busy));
        ("cpu_us_per_op", sum (pick !cpu) /. n *. 1e6);
      ]
    in
    let e2e =
      e2e_of (List.map fst)
      @ [ ("solve_p50_ms", median !applies *. 1e3); ("read_p50_us", median !reads *. 1e6) ]
    in
    let layers =
      [
        ("env.solver_domains", 1.);
        ("env.journal_tmpfs", 0.);
        ("traces.gen_s", median !gen_times);
        ("engine.served_apply_ms", median !applies *. 1e3);
        ("gc.engine_apply_major_words", !gc_apply /. n);
        ("engine.dirty_subscribers", float_of_int !dirty /. n);
        ("engine.pairs_added", float_of_int !added /. n);
        ("engine.pairs_removed", float_of_int !removed /. n);
        ("engine.pairs_evicted", float_of_int !evicted /. n);
        ("engine.resolves", float_of_int !resolves);
        ("service.update_overhead_ms", median !overheads *. 1e3);
        ("journal.fsync_s", fsync_s);
        ("journal.wal_bytes_per_update", float_of_int !ep.replay.wal_bytes);
        ("journal.snapshots", float_of_int (snaps () - snaps0));
        ("journal.snapshot_stall_ms", snapshot_stall_ms);
        ("service.workloads_resident", float_of_int resident);
        ("plan_cache.entries", float_of_int cs.Plan_cache.entries);
        ("plan_cache.hit_ratio", Plan_cache.hit_ratio cs);
        ("json.reply_bytes", mean !reply_bytes);
        ("replay.sum_ms", List.fold_left (fun acc (_, ms) -> acc +. ms) 0. step_ms);
        ("replay.update_p50_ms", median (List.map snd !lat) *. 1e3);
        ("tail.latency_p90_ms", quantile (List.map fst !lat) 0.9 *. 1e3);
        ("tail.samples", n);
        ("gate.failed_share", float_of_int !bad /. float_of_int !requests);
      ]
      @ step_ms
    in
    { e2e; raw = e2e_of (List.map snd); layers; attempted = !requests; failed = !bad; errors = [] }
  in
  let results = windows window in
  Journal.close replay_journal;
  let errors = List.rev !errors in
  let failed_gates = if errors = [] then 0 else 1 in
  List.map (fun o -> { o with failed = max o.failed failed_gates; errors }) results

(* ----- deliver: the broker dataplane, open loop from one process ----- *)

(* Read the child's stdout until a line containing [marker] appears, or
   fail after [timeout] seconds. *)
let await_line fd ~marker ~timeout =
  let buf = Buffer.create 256 and chunk = Bytes.create 256 in
  let deadline = Unix.gettimeofday () +. timeout in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let rec go () =
    if contains (Buffer.contents buf) marker then ()
    else
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then failwith "deliver: the fleet did not come up in time"
      else
        match Unix.select [ fd ] [] [] left with
        | [], _, _ -> go ()
        | _ ->
            let k = Unix.read fd chunk 0 (Bytes.length chunk) in
            if k = 0 then failwith "deliver: the fleet exited during boot"
            else begin
              Buffer.add_subbytes buf chunk 0 k;
              go ()
            end
  in
  go ()

type fleet = {
  pid : int;
  out : Unix.file_descr;
  cluster : Cluster.t;
  sinks : Subscriber.t;
  result : Solver.result;
  boot_s : float;
}

(* Graceful stop: shut every broker down, then reap the process (killed
   if it has not exited within 10 s). *)
let stop_fleet f =
  Subscriber.close f.sinks;
  List.iter (fun (_, addr) -> ignore (Control.shutdown addr)) (Cluster.live f.cluster);
  let deadline = Unix.gettimeofday () +. 10. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] f.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.02;
        reap ()
    | 0, _ ->
        (try Unix.kill f.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] f.pid)
    | _ -> ()
  in
  reap ();
  Unix.close f.out

let deliver_workload ctx ~windows =
  let scale = if ctx.smoke then 0.0002 else 0.002 in
  let copies_per_s = 85_000. and message_bytes = 200 in
  let w, gen_s = timed (fun () -> Front.generate ~seed:ctx.seed `Spotify ~scale) in
  (* The capacity is set so the plan has exactly two VMs, so the fleet
     (one broker domain per VM) stays within a 2-vCPU box: start at 60%
     of the bandwidth a single VM would carry and nudge until the solver
     opens two. *)
  let problem capacity =
    snd (Front.problem_of ~w ~tau ~instance ~scale ~bc_events:(Some capacity))
  in
  let capacity =
    (* Every event in and every pair's copies out: fits on one VM. *)
    let everything =
      Workload.total_event_rate w
      +. List.fold_left (fun acc v -> acc +. Workload.interest_rate w v) 0.
           (List.init (Workload.num_subscribers w) Fun.id)
    in
    let one_vm = (Solver.solve (problem everything)).Solver.bandwidth in
    let rec fit c k =
      let vms = (Solver.solve (problem c)).Solver.num_vms in
      if vms = 2 || k = 0 then c else fit (if vms > 2 then c *. 1.05 else c *. 0.95) (k - 1)
    in
    fit (Float.round (0.6 *. one_vm)) 40
  in
  let p = problem capacity in
  (* The offered load is fixed in delivery copies per second, whatever
     the seed's trace fans out to: the pace (wall seconds per horizon)
     follows from the copies one horizon predicts. *)
  let pace =
    let one = Simulator.run p (Solver.solve p).Solver.allocation Simulator.default_config in
    float_of_int one.Simulator.totals.Delivery.delivered /. copies_per_s
  in
  (* Relative paths: broker sockets must fit in sun_path wherever the
     checkout lives; the fleet shares this process's working directory. *)
  let dir = Filename.concat ctx.work "fleet" in
  let wl_path = Filename.concat ctx.work "deliver.wl" in
  let plan_path = Filename.concat ctx.work "deliver.plan" in
  let boots = ref 0 in
  let setup () =
    let result = Solver.solve ~domains:1 p in
    Plan_io.save result.Solver.allocation plan_path;
    Wio.save w wl_path;
    rm_rf dir;
    incr boots;
    let log_fd =
      Unix.openfile (Filename.concat ctx.work (Printf.sprintf "fleet-%d.log" !boots))
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    let out, child_out = Unix.pipe ~cloexec:true () in
    let t0 = Clock.now_ns () in
    let pid =
      Unix.create_process ctx.mcss
        [| ctx.mcss; "dataplane"; "-w"; wl_path; "--plan"; plan_path; "--dir"; dir;
           "--tau"; Printf.sprintf "%.17g" tau; "--bc-events"; Printf.sprintf "%.17g" capacity;
           "--message-bytes"; string_of_int message_bytes |]
        Unix.stdin child_out log_fd
    in
    Unix.close child_out;
    Unix.close log_fd;
    match
      await_line out ~marker:"serving" ~timeout:60.;
      let boot_s = Clock.seconds_since t0 in
      let cluster =
        Cluster.attach ~manifest:(Filename.concat dir "fleet.json") result.Solver.allocation
      in
      let sinks =
        Subscriber.create ~num_subscribers:(Workload.num_subscribers w) ~latency_seed:ctx.seed ()
      in
      (match Subscriber.attach_cluster sinks cluster with
      | Ok () -> ()
      | Error m -> failwith ("deliver: sink attach failed: " ^ m));
      { pid; out; cluster; sinks; result; boot_s }
    with
    | f -> f
    | exception e ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        Unix.close out;
        raise e
  in
  let setup_s, raw_setup_s, f = repeated_setup ~reps:9 ~release:stop_fleet setup in
  Fun.protect ~finally:(fun () -> stop_fleet f) @@ fun () ->
  let a = f.result.Solver.allocation in
  let brokers = List.length (Cluster.live f.cluster) in
  log "deliver: spotify@%g, %d pairs, %d brokers, setup %.3fs" scale
    (Workload.num_pairs w) brokers setup_s;
  let errors = ref [] in
  let err m = errors := m :: !errors in
  if brokers <> 2 || brokers > nproc () || brokers <> Allocation.num_vms a then
    err (Printf.sprintf "deliver: %d brokers for a %d-VM plan on %d CPUs" brokers
           (Allocation.num_vms a) (nproc ()));
  (* Solves of the fleet's plan take milliseconds, so they are timed in
     bursts of 17: after set-up (on a heap cleared of its garbage), after
     the warm-up, and after each window, so that their median spans the
     run rather than one moment of it. *)
  let solves = ref [] in
  let solve_burst () =
    let times, k =
      Speed.bracket (fun () -> List.init 17 (fun _ -> snd (timed (fun () -> Solver.solve ~domains:1 p))))
    in
    solves := List.map (fun s -> s *. k) times @ !solves
  in
  Gc.full_major ();
  solve_burst ();
  (* Untimed warm-up: connections, buffers and the brokers' heaps. *)
  let warm_config = { Pump.default_config with Pump.duration = 1. /. pace; pace; latency_seed = ctx.seed } in
  ignore (Pump.run ~config:warm_config ~sinks:f.sinks f.cluster p a);
  Subscriber.close f.sinks;
  solve_burst ();
  (* The window is a run of segments of about 2.5 s each, one [Pump.run]
     apiece, so that each segment's latency and fleet CPU can be
     bracketed for the host's speed ({!Speed}) while the fleet is idle
     between them; the latency is the median of the segments' medians. *)
  let segments = max 1 (int_of_float (ctx.seconds /. 2.5)) in
  let duration = ctx.seconds /. float_of_int segments /. pace in
  let sim, sim_s =
    timed (fun () -> Simulator.run p a { Simulator.default_config with Simulator.duration })
  in
  let predicted = sim.Simulator.totals.Delivery.delivered in
  let window obs =
    let config =
      {
        Pump.default_config with
        Pump.duration;
        pace;
        latency_seed = ctx.seed;
        (* Pump starts its quiesce deadline before publishing, so the
           timeout must cover the whole schedule, not only the drain. *)
        quiesce_timeout = (duration *. pace) +. 10.;
        tolerance = None;
      }
    in
    let addrs = Array.of_list (List.map snd (Cluster.live f.cluster)) in
    let reads = ref [] in
    (* One segment: the paced schedule, with reads beside the traffic
       spread over it (a monitoring systhread of this process polls one
       broker's [ledger] every 20 ms, alternating brokers, a fresh
       connection each), and the fleet's CPU over it. *)
    let segment () =
      let cpu0 = proc_cpu f.pid in
      let stop = Atomic.make false in
      let poller =
        Thread.create
          (fun () ->
            let i = ref 0 in
            while not (Atomic.get stop) do
              (match timed (fun () -> Control.ledger addrs.(!i mod Array.length addrs)) with
              | Ok _, s -> reads := s :: !reads
              | Error m, _ -> err ("deliver: ledger read failed: " ^ m));
              incr i;
              Thread.delay 0.02
            done)
          ()
      in
      let r =
        Fun.protect
          ~finally:(fun () ->
            Atomic.set stop true;
            Thread.join poller)
          (fun () -> Span.with_ obs ~name:"pump.run" (fun () -> Pump.run ~config f.cluster p a))
      in
      (r, proc_cpu f.pid -. cpu0)
    in
    Speed.gap ();
    let runs = List.init segments (fun _ -> Speed.bracket segment) in
    solve_burst ();
    let reports = List.map (fun ((r, _), _) -> r) runs in
    let sum f = List.fold_left (fun acc x -> acc + f x) 0 reports in
    let failed = ref 0 and max_deviation = ref 0. in
    List.iter
      (fun r ->
        let rc =
          Reconcile.run p a ~duration ~tolerance:0. ~measured_unique:r.Pump.unique
            ~ledgers:r.Pump.ledgers ~assignment:(Cluster.assignment f.cluster)
        in
        let unique = Array.fold_left ( + ) 0 r.Pump.unique in
        let missing = max 0 (predicted - unique) + r.Pump.totals.Delivery.dropped in
        failed := !failed + missing;
        max_deviation := Float.max !max_deviation rc.Reconcile.max_deviation;
        if not r.Pump.quiesced then err "deliver: the fleet did not quiesce";
        if not rc.Reconcile.pass then
          err (Printf.sprintf "deliver: reconciliation deviation %g" rc.Reconcile.max_deviation);
        if missing > 0 || r.Pump.publisher.Publisher.send_failures > 0 then
          err (Printf.sprintf "deliver: %d copies missing or dropped, %d send failures"
                 missing r.Pump.publisher.Publisher.send_failures))
      reports;
    let delivered = sum (fun r -> r.Pump.totals.Delivery.delivered) in
    let wall_s = List.fold_left (fun acc r -> acc +. r.Pump.wall_s) 0. reports in
    (* [at k] is the factor applied to a segment whose factor to
       reference speed is [k]: [k] itself, or 1 for raw figures. *)
    let latency ?(at = Fun.id) pick =
      median
        (List.map
           (fun ((r, _), k) -> match r.Pump.latency with Some l -> pick l *. at k *. 1e3 | None -> nan)
           runs)
    in
    let fleet_cpu at = List.fold_left (fun acc ((_, cpu), k) -> acc +. (cpu *. at k)) 0. runs in
    (* The offered load is paced by the wall clock, so throughput is raw. *)
    let e2e_of ~setup_s at =
      [
        ("setup_s", setup_s);
        ("peak_rss_mb", vmhwm_mb f.pid);
        ("plan_cost_usd", f.result.Solver.cost);
        ("latency_p50_ms", latency ~at (fun l -> l.Fleet.p50));
        ("throughput_per_s", float_of_int delivered /. wall_s);
        ("cpu_us_per_op", fleet_cpu at /. float_of_int (max 1 delivered) *. 1e6);
      ]
    in
    let e2e =
      e2e_of ~setup_s Fun.id
      @ [ ("solve_p50_ms", median !solves *. 1e3); ("read_p50_us", median !reads *. 1e6) ]
    in
    let per_broker =
      List.fold_left
        (fun acc r ->
          List.map2 (fun a (l : Ledger.t) -> a +. float_of_int l.Ledger.totals.Delivery.delivered) acc r.Pump.ledgers)
        (List.map (fun _ -> 0.) (List.hd reports).Pump.ledgers) reports
    in
    let pub f = float_of_int (sum (fun r -> f r.Pump.publisher)) in
    let layers =
      [
        ("env.solver_domains", 1.);
        ("env.brokers", float_of_int brokers);
        ("traces.gen_s", gen_s);
        ("cbp.vms", float_of_int f.result.Solver.num_vms);
        ("cluster.brokers", float_of_int brokers);
        ("cluster.boot_s", f.boot_s);
        ("simulator.run_ms", sim_s *. 1e3);
        ("simulator.predicted_copies", float_of_int (predicted * segments));
        ("publisher.events", pub (fun p -> p.Publisher.events));
        ("publisher.copies_sent", pub (fun p -> p.Publisher.copies_sent));
        ("publisher.send_failures", pub (fun p -> p.Publisher.send_failures));
        ("publisher.unrouted", pub (fun p -> p.Publisher.unrouted));
        ("publisher.lag_ms", (wall_s -. (duration *. pace *. float_of_int segments)) *. 1e3);
        ("ledger.delivered", float_of_int delivered);
        ("ledger.dropped", float_of_int (sum (fun r -> r.Pump.totals.Delivery.dropped)));
        ("ledger.skew",
          List.fold_left Float.max 0. per_broker /. Float.max 1. (List.fold_left Float.min infinity per_broker));
        ("fleet.cpu_s", fleet_cpu (fun _ -> 1.));
        ("subscriber.copies", float_of_int (sum (fun r -> r.Pump.copies_received)));
        ("subscriber.duplicates", float_of_int (sum (fun r -> r.Pump.duplicates)));
        ("reconcile.max_deviation", !max_deviation);
        ("subscriber.latency_p95_ms", latency (fun l -> l.Fleet.p95));
        ("subscriber.latency_p99_ms", latency (fun l -> l.Fleet.p99));
        ("tail.samples",
          float_of_int (sum (fun r -> match r.Pump.latency with Some l -> l.Fleet.samples | None -> 0)));
        ("gate.failed_share", float_of_int !failed /. float_of_int (max 1 (predicted * segments)));
      ]
    in
    let raw = e2e_of ~setup_s:raw_setup_s (fun _ -> 1.) in
    { e2e; raw; layers; attempted = max 1 (predicted * segments); failed = !failed; errors = [] }
  in
  let results = windows window in
  List.map (fun o -> { o with errors = List.rev !errors }) results

(* ----- main ----- *)

let usage =
  "perfbench --workload plan|replan|deliver --seed N --seconds S --trace 0|1 \
   [--smoke] [--mcss PATH] [--work DIR]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let smoke = ref false and mcss = ref "_build/default/bin/mcss_cli.exe" in
  let work = ref ".perfbench" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " plan, replan or deliver");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds per window");
      ("--trace", Arg.Set_int trace, " 1: per-layer metrics from a traced window");
      ("--smoke", Arg.Set smoke, " small inputs, for the benchmark's own tests");
      ("--mcss", Arg.Set_string mcss, " the mcss executable (deliver's fleet)");
      ("--work", Arg.Set_string work, " scratch directory (relative, inside the checkout)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (!seconds > 0. && (!trace = 0 || !trace = 1)) then begin
    prerr_endline usage;
    exit 2
  end;
  (* Trace 0: one untraced window. Trace 1: an untraced then a traced
     window on the same set-up; the difference is the tracing overhead. *)
  let windows window =
    if !trace = 0 then [ window Registry.noop ]
    else
      let plain = window Registry.noop in
      [ plain; window (Registry.create ()) ]
  in
  let run =
    match !workload with
    | "plan" -> plan_workload
    | "replan" -> replan_workload
    | "deliver" -> deliver_workload
    | w ->
        prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
        exit 2
  in
  let work = Filename.concat !work (Printf.sprintf "%s-%d" !workload (Unix.getpid ())) in
  mkdir_p work;
  let ctx = { seed = !seed; seconds = !seconds; smoke = !smoke; work; mcss = !mcss } in
  (* The host's speed at the start and end of every run, whether or not
     the workload brackets its operations. *)
  ignore (Speed.measure ());
  let outcomes =
    Fun.protect ~finally:(fun () -> try rm_rf work with _ -> ()) (fun () -> run ctx ~windows)
  in
  ignore (Speed.measure ());
  let last = List.nth outcomes (List.length outcomes - 1) in
  let metrics =
    if !trace = 0 then
      List.map (fun (n, u) -> (n, u, Option.value ~default:nan (List.assoc_opt n last.e2e))) end_to_end
    else
      let plain = List.hd outcomes in
      let env = [ ("env.nproc", float_of_int (nproc ())); ("env.probe_ms", Speed.median_ms ()) ] in
      let raw = List.map (fun (n, v) -> ("raw." ^ n, v)) plain.raw in
      List.map
        (fun (n, u) ->
          let v =
            match List.assoc_opt n (env @ raw @ last.layers @ last.e2e) with
            | Some v -> v
            | None when String.starts_with ~prefix:"overhead." n ->
                let m = String.sub n 9 (String.length n - 9) in
                List.assoc m last.e2e -. List.assoc m plain.e2e
            | None -> 0.
          in
          (n, u, v))
        per_layer
  in
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  let errors = last.errors @ (if finite then [] else [ "a metric is not a finite number" ]) in
  List.iter (fun e -> log "GATE FAILED: %s" e) errors;
  let correct = errors = [] && last.failed = 0 in
  Printf.printf
    "{\"info\": {\"workload\": %S, \"seed\": %d, \"nproc\": %d, \"solver_domains\": 1, \
     \"journal_dir\": %S, \"probe_ms\": %.3f, \"probes\": %d}}\n"
    !workload !seed (nproc ())
    (if !workload = "replan" then Filename.concat work "journal-<episode>" else "none")
    (Speed.median_ms ()) (List.length !Speed.seen);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct last.attempted last.failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n
              (if Float.is_finite v then Printf.sprintf "%.17g" v else "null") u)
          metrics));
  exit (if correct then 0 else 1)
