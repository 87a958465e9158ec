(* lib/obs: metric primitives, histogram quantiles against known
   distributions, span nesting and exception safety, sink round-trips,
   and the zero-allocation guarantee on the disabled hot path. *)

module Registry = Mcss_obs.Registry
module Metric = Mcss_obs.Metric
module Span = Mcss_obs.Span
module Sink = Mcss_obs.Sink
module Json = Mcss_json.Json

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

(* ----- counters and gauges ----- *)

let test_counter () =
  let c = Metric.Counter.make () in
  Alcotest.(check int) "fresh" 0 (Metric.Counter.value c);
  Metric.Counter.inc c;
  Metric.Counter.add c 41;
  Alcotest.(check int) "inc+add" 42 (Metric.Counter.value c)

let test_gauge () =
  let g = Metric.Gauge.make () in
  Metric.Gauge.set g 2.5;
  Metric.Gauge.add g 0.5;
  Alcotest.(check bool) "set+add" true (feq 3.0 (Metric.Gauge.value g))

(* ----- histogram bucket boundaries ----- *)

let test_histogram_boundaries () =
  (* linear 0..1 in 4: bounds 0.25 / 0.5 / 0.75 / 1.0 (upper-inclusive),
     plus the implicit overflow bucket. *)
  let bounds = Metric.Histogram.linear ~lo:0. ~hi:1. ~buckets:4 in
  Alcotest.(check (array (float 1e-9))) "linear bounds"
    [| 0.25; 0.5; 0.75; 1.0 |] bounds;
  let h = Metric.Histogram.make ~buckets:bounds () in
  List.iter (Metric.Histogram.observe h)
    [ 0.25; 0.250001; 0.74; 1.0; 1.5; -3.; nan ];
  (* NaN dropped; -3 lands in the first bucket; 1.5 overflows. *)
  Alcotest.(check int) "count skips NaN" 6 (Metric.Histogram.count h);
  Alcotest.(check (array int)) "bucket assignment"
    [| 2; 1; 1; 1; 1 |] (Metric.Histogram.bucket_counts h);
  Alcotest.(check bool) "min" true (feq (-3.) (Metric.Histogram.min_value h));
  Alcotest.(check bool) "max" true (feq 1.5 (Metric.Histogram.max_value h));
  let e = Metric.Histogram.exponential ~lo:1. ~factor:2. ~buckets:4 in
  Alcotest.(check (array (float 1e-9))) "exponential bounds" [| 1.; 2.; 4.; 8. |] e

let test_histogram_rejects_bad_buckets () =
  Alcotest.check_raises "empty" (Invalid_argument "Histogram.make: no buckets")
    (fun () -> ignore (Metric.Histogram.make ~buckets:[||] ()));
  Alcotest.(check bool) "non-increasing rejected" true
    (match Metric.Histogram.make ~buckets:[| 1.; 1. |] () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ----- quantiles against known distributions ----- *)

let test_quantile_uniform () =
  (* 0.5, 1.5, ..., 99.5 into unit-wide buckets: one sample per bucket,
     so every quantile is recoverable to within one bucket width. *)
  let h =
    Metric.Histogram.make
      ~buckets:(Metric.Histogram.linear ~lo:0. ~hi:100. ~buckets:100)
      ()
  in
  for i = 0 to 99 do
    Metric.Histogram.observe h (float_of_int i +. 0.5)
  done;
  List.iter
    (fun q ->
      let est = Metric.Histogram.quantile h q in
      let exact = 100. *. q in
      Alcotest.(check bool)
        (Printf.sprintf "p%g within one bucket" (100. *. q))
        true
        (Float.abs (est -. exact) <= 1.0 +. 1e-9))
    [ 0.1; 0.25; 0.5; 0.9; 0.95; 0.99 ];
  (* Extremes clamp to the observed min/max, not to bucket edges. *)
  Alcotest.(check bool) "q=0 is min" true
    (feq 0.5 (Metric.Histogram.quantile h 0.));
  Alcotest.(check bool) "q=1 is max" true
    (feq 99.5 (Metric.Histogram.quantile h 1.))

let test_quantile_point_mass () =
  (* All mass at one value: every quantile must collapse onto it because
     interpolation is clamped to the observed min/max. *)
  let h =
    Metric.Histogram.make
      ~buckets:(Metric.Histogram.linear ~lo:0. ~hi:10. ~buckets:10)
      ()
  in
  for _ = 1 to 1000 do
    Metric.Histogram.observe h 7.3
  done;
  List.iter
    (fun q ->
      Alcotest.(check bool)
        (Printf.sprintf "q=%g on point mass" q)
        true
        (feq 7.3 (Metric.Histogram.quantile h q)))
    [ 0.; 0.5; 0.99; 1. ]

let test_quantile_edge_cases () =
  let h = Metric.Histogram.make () in
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (Metric.Histogram.quantile h 0.5));
  Alcotest.(check bool) "mean of empty is nan" true
    (Float.is_nan (Metric.Histogram.mean h));
  Metric.Histogram.observe h 1.0;
  Alcotest.(check bool) "q out of range" true
    (match Metric.Histogram.quantile h 1.5 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ----- registry semantics ----- *)

let test_registry_idempotent () =
  let r = Registry.create () in
  let c1 = Registry.counter r ~help:"h" "a.count" in
  let c2 = Registry.counter r "a.count" in
  Metric.Counter.inc c1;
  Metric.Counter.inc c2;
  Alcotest.(check int) "same cell" 2 (Metric.Counter.value c1);
  Alcotest.(check int) "one sample" 1 (List.length (Registry.samples r));
  Alcotest.(check bool) "kind clash raises" true
    (match Registry.gauge r "a.count" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_registry_noop () =
  Alcotest.(check bool) "noop disabled" false (Registry.enabled Registry.noop);
  let c = Registry.counter Registry.noop "x" in
  Metric.Counter.inc c;
  Alcotest.(check int) "noop has no samples" 0
    (List.length (Registry.samples Registry.noop));
  Alcotest.(check int) "noop has no spans" 0
    (List.length (Registry.span_roots Registry.noop))

(* ----- spans: nesting, ordering, aggregation, exceptions ----- *)

let test_span_nesting () =
  let r = Registry.create () in
  Span.with_ r ~name:"solve" (fun () ->
      Span.with_ r ~name:"stage1" (fun () -> ());
      for _ = 1 to 3 do
        Span.with_ r ~name:"stage2" (fun () -> ())
      done);
  Span.with_ r ~name:"simulate" (fun () -> ());
  let roots = Span.roots r in
  Alcotest.(check (list string)) "root order" [ "solve"; "simulate" ]
    (List.map (fun n -> n.Span.span_name) roots);
  let solve = List.hd roots in
  Alcotest.(check (list string)) "child first-execution order"
    [ "stage1"; "stage2" ]
    (List.map (fun n -> n.Span.span_name) solve.Span.children);
  let stage2 = Option.get (Span.find roots "stage2") in
  Alcotest.(check int) "repeated spans aggregate" 3 stage2.Span.count;
  Alcotest.(check (list string)) "flatten paths"
    [ "solve"; "solve/stage1"; "solve/stage2"; "simulate" ]
    (List.map fst (Span.flatten roots));
  (* Parent duration covers its children. *)
  let child_ns =
    List.fold_left
      (fun acc n -> Int64.add acc n.Span.total_ns)
      0L solve.Span.children
  in
  Alcotest.(check bool) "parent >= sum of children" true
    (solve.Span.total_ns >= child_ns)

let test_span_exception_safe () =
  let r = Registry.create () in
  (try
     Span.with_ r ~name:"outer" (fun () ->
         Span.with_ r ~name:"boom" (fun () -> failwith "expected"))
   with Failure _ -> ());
  let roots = Span.roots r in
  let boom = Option.get (Span.find roots "boom") in
  Alcotest.(check int) "raising span recorded" 1 boom.Span.count;
  (* The stack unwound: a new span lands at the root, not under "outer". *)
  Span.with_ r ~name:"after" (fun () -> ());
  Alcotest.(check (list string)) "stack unwound" [ "outer"; "after" ]
    (List.map (fun n -> n.Span.span_name) (Span.roots r))

(* ----- sink round-trips ----- *)

(* The JSONL bytes are a published format: this registry's output was
   captured before the sink moved onto the shared codec and must not
   change. Span durations are the only non-deterministic values, so
   they are masked after being checked. *)
let pinned_jsonl =
  {|{"type":"counter","name":"events.total","value":7}
{"type":"gauge","name":"cost \"quoted\"\\\n\t\u0001é","value":0.333333333333}
{"type":"gauge","name":"overflow","value":null}
{"type":"histogram","name":"util","count":4,"sum":4.3000001,"min":1e-07,"max":3,"mean":1.075000025,"p50":0.5,"p95":2.6,"p99":2.92,"buckets":[0.5,1,null],"counts":[2,1,1,0]}
{"type":"histogram","name":"empty","count":0,"sum":0,"min":null,"max":null,"mean":null,"p50":null,"p95":null,"p99":null,"buckets":[1e-06,4e-06,1.6e-05,6.4e-05,0.000256,0.001024,0.004096,0.016384,0.065536,0.262144,1.048576,4.194304,16.777216,67.108864,268.435456,1073.741824],"counts":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}
{"type":"span","path":"run","name":"run","count":1,"seconds":_}
{"type":"span","path":"run/inner","name":"inner","count":2,"seconds":_}
{"type":"span","path":"run/inner/leaf","name":"leaf","count":1,"seconds":_}
{"type":"span","path":"other \"x\"","name":"other \"x\"","count":1,"seconds":_}
|}

let test_jsonl_roundtrip () =
  let r = Registry.create () in
  Metric.Counter.add (Registry.counter r ~help:"a counter" "events.total") 7;
  let quoted = "cost \"quoted\"\\\n\t\001\xc3\xa9" in
  Metric.Gauge.set (Registry.gauge r quoted) (1. /. 3.);
  Metric.Gauge.set (Registry.gauge r "overflow") infinity;
  let h = Registry.histogram r ~buckets:[| 0.5; 1.; infinity |] "util" in
  List.iter (Metric.Histogram.observe h) [ 0.4; 0.9; 3.; 1e-7 ];
  ignore (Registry.histogram r "empty");
  Span.with_ r ~name:"run" (fun () ->
      Span.with_ r ~name:"inner" (fun () -> ());
      Span.with_ r ~name:"inner" (fun () -> Span.with_ r ~name:"leaf" (fun () -> ())));
  Span.with_ r ~name:"other \"x\"" (fun () -> ());
  let lines = String.split_on_char '\n' (Sink.jsonl r) in
  (* Every line is one object under the strict shared parser. *)
  let parsed =
    List.filter_map
      (fun line ->
        if line = "" then None
        else
          match Json.parse line with
          | Ok (Json.Obj _ as j) -> Some j
          | Ok _ | Error _ -> Alcotest.failf "not a JSON object: %S" line)
      lines
  in
  let field k j = Option.get (Json.member k j) in
  let by_name name = List.find (fun j -> field "name" j = Json.String name) parsed in
  let spans = List.filter (fun j -> field "type" j = Json.String "span") parsed in
  Alcotest.(check bool) "counter value" true (field "value" (by_name "events.total") = Json.Int 7);
  Alcotest.(check bool) "escaped name survives" true
    (field "value" (by_name quoted) = Json.Float 0.333333333333);
  Alcotest.(check bool) "histogram count" true (field "count" (by_name "util") = Json.Int 4);
  Alcotest.(check bool) "span seconds are non-negative numbers" true
    (List.for_all
       (fun j -> Option.fold ~none:false ~some:(fun x -> x >= 0.) (Json.to_float_opt (field "seconds" j)))
       spans);
  Alcotest.(check (list string)) "span paths"
    [ "run"; "run/inner"; "run/inner/leaf"; "other \"x\"" ]
    (List.map (fun j -> Option.get (Json.to_string_opt (field "path" j))) spans);
  let mask line =
    if String.starts_with ~prefix:{|{"type":"span",|} line then
      String.sub line 0 (String.rindex line ':' + 1) ^ "_}"
    else line
  in
  Alcotest.(check string) "byte-identical to the pinned capture" pinned_jsonl
    (String.concat "\n" (List.map mask lines))

let test_prometheus_shape () =
  let r = Registry.create () in
  Metric.Counter.inc (Registry.counter r ~help:"events" "sim.events");
  let h =
    Registry.histogram r
      ~buckets:(Metric.Histogram.linear ~lo:0. ~hi:1. ~buckets:2)
      "util"
  in
  Metric.Histogram.observe h 0.4;
  Metric.Histogram.observe h 0.9;
  Span.with_ r ~name:"run" (fun () -> ());
  let text = Sink.prometheus r in
  let contains needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" needle) true (contains needle))
    [
      "# TYPE mcss_sim_events counter";
      "mcss_sim_events 1";
      "# TYPE mcss_util histogram";
      "mcss_util_bucket{le=\"+Inf\"} 2";
      "mcss_util_count 2";
      "mcss_span_seconds{path=\"run\"}";
    ];
  (* Cumulative bucket counts must be nondecreasing and end at count. *)
  let last_bucket = ref 0 in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if String.length line > 16 && String.sub line 0 16 = "mcss_util_bucket" then begin
           match String.rindex_opt line ' ' with
           | Some i ->
               let v = int_of_string (String.sub line (i + 1) (String.length line - i - 1)) in
               Alcotest.(check bool) "cumulative nondecreasing" true (v >= !last_bucket);
               last_bucket := v
           | None -> ()
         end);
  Alcotest.(check int) "cumulative ends at count" 2 !last_bucket

(* Exposition-format escaping: a hostile help string or span name must
   come back intact after unescaping, and must never split its line. *)
let prom_unescape ~quote s =
  let buf = Buffer.create (String.length s) in
  let i = ref 0 in
  let n = String.length s in
  while !i < n do
    (if s.[!i] = '\\' && !i + 1 < n then begin
       (match s.[!i + 1] with
       | '\\' -> Buffer.add_char buf '\\'
       | 'n' -> Buffer.add_char buf '\n'
       | '"' when quote -> Buffer.add_char buf '"'
       | c ->
           Buffer.add_char buf '\\';
           Buffer.add_char buf c);
       incr i
     end
     else Buffer.add_char buf s.[!i]);
    incr i
  done;
  Buffer.contents buf

let test_prometheus_escaping_roundtrip () =
  let hostile = "line one\nline two \\ and \"quotes\"" in
  let r = Registry.create () in
  Metric.Counter.inc (Registry.counter r ~help:hostile "esc.counter");
  Span.with_ r ~name:hostile (fun () -> ());
  let text = Sink.prometheus r in
  let lines = String.split_on_char '\n' text in
  (* No payload may have introduced a raw newline: every line is either
     a comment, empty (trailing), or "name{...} value". *)
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        Alcotest.(check bool)
          (Printf.sprintf "sample line %S has a value" line)
          true
          (String.contains line ' '))
    lines;
  let help_line =
    List.find
      (fun l ->
        String.length l > 7
        && String.sub l 0 7 = "# HELP "
        &&
        let rec contains i =
          i + 11 <= String.length l
          && (String.sub l i 11 = "esc_counter" || contains (i + 1))
        in
        contains 0)
      lines
  in
  (* "# HELP mcss_esc_counter <escaped help>" *)
  let escaped_help =
    let after_name =
      let i = String.index_from help_line 7 ' ' in
      String.sub help_line (i + 1) (String.length help_line - i - 1)
    in
    after_name
  in
  Alcotest.(check string) "help string survives the round trip" hostile
    (prom_unescape ~quote:false escaped_help);
  let span_line =
    List.find
      (fun l ->
        String.length l > 24 && String.sub l 0 24 = "mcss_span_seconds{path=\"")
      lines
  in
  let escaped_path =
    let start = 24 in
    let close = String.rindex span_line '"' in
    String.sub span_line start (close - start)
  in
  Alcotest.(check string) "span path label survives the round trip" hostile
    (prom_unescape ~quote:true escaped_path)

let test_console_renders () =
  let r = Registry.create () in
  Metric.Counter.inc (Registry.counter r "a");
  Span.with_ r ~name:"root" (fun () -> Span.with_ r ~name:"kid" (fun () -> ()));
  let text = Sink.console r in
  Alcotest.(check bool) "mentions metric" true
    (String.length text > 0
    &&
    let contains needle =
      let nl = String.length needle and tl = String.length text in
      let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
      go 0
    in
    contains "a" && contains "span tree:" && contains "kid");
  Alcotest.(check string) "empty registry has a fallback" "(no metrics recorded)\n"
    (Sink.console (Registry.create ()))

(* ----- the zero-allocation regression gate ----- *)

let test_noop_hot_path_does_not_allocate () =
  let c = Registry.counter Registry.noop "hot" in
  let g = Registry.gauge Registry.noop "hotg" in
  let h = Registry.histogram Registry.noop "hoth" in
  (* Warm up so any one-time allocation is out of the way. *)
  for _ = 1 to 100 do
    Metric.Counter.inc c;
    Metric.Gauge.set g 1.0;
    Metric.Histogram.observe h 0.5
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Metric.Counter.inc c;
    Metric.Counter.add c 2;
    Metric.Gauge.set g 2.0;
    Metric.Histogram.observe h 0.25
  done;
  let allocated = Gc.minor_words () -. before in
  (* 40k metric operations; allow a handful of words for the Gc probe
     itself. A boxing bug would show up as >= 2 words per operation. *)
  Alcotest.(check bool)
    (Printf.sprintf "noop hot path allocated %.0f words" allocated)
    true (allocated < 100.)

let test_noop_span_calls_through () =
  let hits = ref 0 in
  let x = Span.with_ Registry.noop ~name:"s" (fun () -> incr hits; 42) in
  Alcotest.(check int) "value returned" 42 x;
  Alcotest.(check int) "thunk ran once" 1 !hits;
  Alcotest.(check int) "nothing recorded" 0
    (List.length (Span.roots Registry.noop))

(* ----- per-phase GC accounting ----- *)

(* Back-to-back calls that allocate the same 60,000 minor words (20,000
   list cells) are charged the same words. Across ten calls minor
   collections fall inside some of them: a count that moved only at a
   collection would charge those calls the whole minor heap and the
   others next to nothing. *)
let test_gc_phase_exact_minor_words () =
  let phase = "test.exact_minor" in
  let charged () =
    match List.assoc_opt phase (Mcss_obs.Gc_phase.totals ()) with
    | Some t -> t.Mcss_obs.Gc_phase.minor_words
    | None -> 0.
  in
  let cells () =
    let l = ref [] in
    for i = 1 to 20_000 do
      l := i :: !l
    done;
    ignore (Sys.opaque_identity !l)
  in
  let words =
    List.init 10 (fun _ ->
        let before = charged () in
        Mcss_obs.Gc_phase.measure phase cells;
        charged () -. before)
  in
  let first = List.hd words in
  Alcotest.(check bool) (Printf.sprintf "at least the cells (%.0f)" first) true (first >= 60_000.);
  List.iteri
    (fun i w -> Alcotest.(check (float 0.)) (Printf.sprintf "call %d" i) first w)
    words

let suite =
  [
    Alcotest.test_case "counter" `Quick test_counter;
    Alcotest.test_case "gauge" `Quick test_gauge;
    Alcotest.test_case "histogram boundaries" `Quick test_histogram_boundaries;
    Alcotest.test_case "histogram rejects bad buckets" `Quick
      test_histogram_rejects_bad_buckets;
    Alcotest.test_case "quantiles: uniform" `Quick test_quantile_uniform;
    Alcotest.test_case "quantiles: point mass" `Quick test_quantile_point_mass;
    Alcotest.test_case "quantiles: edge cases" `Quick test_quantile_edge_cases;
    Alcotest.test_case "registry idempotent" `Quick test_registry_idempotent;
    Alcotest.test_case "registry noop" `Quick test_registry_noop;
    Alcotest.test_case "span nesting and aggregation" `Quick test_span_nesting;
    Alcotest.test_case "span exception safety" `Quick test_span_exception_safe;
    Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "prometheus exposition" `Quick test_prometheus_shape;
    Alcotest.test_case "prometheus escaping round-trip" `Quick
      test_prometheus_escaping_roundtrip;
    Alcotest.test_case "console sink" `Quick test_console_renders;
    Alcotest.test_case "noop hot path zero-alloc" `Quick
      test_noop_hot_path_does_not_allocate;
    Alcotest.test_case "noop span calls through" `Quick test_noop_span_calls_through;
    Alcotest.test_case "gc phase: exact minor words" `Quick test_gc_phase_exact_minor_words;
  ]
