module Table = Mcss_report.Table

(* ----- JSON lines ----- *)

module Json = Mcss_json.Json

let floats xs = Json.List (Array.to_list (Array.map (fun x -> Json.Float x) xs))
let ints xs = Json.List (Array.to_list (Array.map (fun i -> Json.Int i) xs))

let jsonl reg =
  let buf = Buffer.create 4096 in
  let line fields =
    Buffer.add_string buf (Json.to_string (Json.Obj fields));
    Buffer.add_char buf '\n'
  in
  List.iter
    (fun { Registry.name; metric; _ } ->
      match metric with
      | Registry.Counter c ->
          line
            [ ("type", Json.String "counter"); ("name", Json.String name);
              ("value", Json.Int (Metric.Counter.value c)) ]
      | Registry.Gauge g ->
          line
            [ ("type", Json.String "gauge"); ("name", Json.String name);
              ("value", Json.Float (Metric.Gauge.value g)) ]
      | Registry.Histogram h ->
          let f x = Json.Float x in
          line
            [
              ("type", Json.String "histogram");
              ("name", Json.String name);
              ("count", Json.Int (Metric.Histogram.count h));
              ("sum", f (Metric.Histogram.sum h));
              ("min", f (Metric.Histogram.min_value h));
              ("max", f (Metric.Histogram.max_value h));
              ("mean", f (Metric.Histogram.mean h));
              ("p50", f (Metric.Histogram.quantile h 0.5));
              ("p95", f (Metric.Histogram.quantile h 0.95));
              ("p99", f (Metric.Histogram.quantile h 0.99));
              ("buckets", floats (Metric.Histogram.bucket_bounds h));
              ("counts", ints (Metric.Histogram.bucket_counts h));
            ])
    (Registry.samples reg);
  List.iter
    (fun (path, (n : Span.node)) ->
      line
        [
          ("type", Json.String "span");
          ("path", Json.String path);
          ("name", Json.String n.Span.span_name);
          ("count", Json.Int n.Span.count);
          ("seconds", Json.Float (Span.seconds n));
        ])
    (Span.flatten (Span.roots reg));
  Buffer.contents buf

let write_jsonl reg ~path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (jsonl reg))

(* ----- Prometheus text exposition ----- *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let prom_float x =
  if Float.is_nan x then "NaN"
  else if x = infinity then "+Inf"
  else if x = neg_infinity then "-Inf"
  else Printf.sprintf "%.12g" x

(* Exposition-format escaping. HELP text escapes backslash and newline;
   label values additionally escape the double quote. Without this, a
   help string or span path containing a newline or quote splits the
   line and breaks every scraper. *)
let prom_escape ~quote s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '"' when quote -> Buffer.add_string buf "\\\""
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let escape_help = prom_escape ~quote:false
let escape_label = prom_escape ~quote:true

let prometheus reg =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  List.iter
    (fun { Registry.name; help; metric } ->
      let pname = "mcss_" ^ sanitize name in
      if help <> "" then add "# HELP %s %s" pname (escape_help help);
      match metric with
      | Registry.Counter c ->
          add "# TYPE %s counter" pname;
          add "%s %d" pname (Metric.Counter.value c)
      | Registry.Gauge g ->
          add "# TYPE %s gauge" pname;
          add "%s %s" pname (prom_float (Metric.Gauge.value g))
      | Registry.Histogram h ->
          add "# TYPE %s histogram" pname;
          let bounds = Metric.Histogram.bucket_bounds h in
          let counts = Metric.Histogram.bucket_counts h in
          let cum = ref 0 in
          Array.iteri
            (fun i bound ->
              cum := !cum + counts.(i);
              add "%s_bucket{le=\"%s\"} %d" pname (prom_float bound) !cum)
            bounds;
          cum := !cum + counts.(Array.length counts - 1);
          add "%s_bucket{le=\"+Inf\"} %d" pname !cum;
          add "%s_sum %s" pname (prom_float (Metric.Histogram.sum h));
          add "%s_count %d" pname (Metric.Histogram.count h))
    (Registry.samples reg);
  let spans = Span.flatten (Span.roots reg) in
  if spans <> [] then begin
    add "# TYPE mcss_span_seconds gauge";
    List.iter
      (fun (path, (n : Span.node)) ->
        add "mcss_span_seconds{path=\"%s\"} %s" (escape_label path)
          (prom_float (Span.seconds n)))
      spans;
    add "# TYPE mcss_span_count counter";
    List.iter
      (fun (path, (n : Span.node)) ->
        add "mcss_span_count{path=\"%s\"} %d" (escape_label path) n.Span.count)
      spans
  end;
  Buffer.contents buf

(* ----- console ----- *)

let console reg =
  let buf = Buffer.create 4096 in
  let samples = Registry.samples reg in
  if samples <> [] then begin
    let table =
      Table.create
        [ ("metric", Table.Left); ("type", Table.Left); ("value", Table.Right) ]
    in
    List.iter
      (fun { Registry.name; metric; _ } ->
        match metric with
        | Registry.Counter c ->
            Table.add_row table [ name; "counter"; string_of_int (Metric.Counter.value c) ]
        | Registry.Gauge g ->
            Table.add_row table [ name; "gauge"; Table.cell_float ~decimals:3 (Metric.Gauge.value g) ]
        | Registry.Histogram h ->
            let q p = Metric.Histogram.quantile h p in
            Table.add_row table
              [
                name;
                "histogram";
                (if Metric.Histogram.count h = 0 then "(empty)"
                 else
                   Printf.sprintf "n=%d mean=%.3g p50=%.3g p95=%.3g p99=%.3g max=%.3g"
                     (Metric.Histogram.count h) (Metric.Histogram.mean h) (q 0.5) (q 0.95)
                     (q 0.99)
                     (Metric.Histogram.max_value h));
              ])
      samples;
    Buffer.add_string buf (Table.render table)
  end;
  let roots = Span.roots reg in
  if roots <> [] then begin
    if samples <> [] then Buffer.add_char buf '\n';
    Buffer.add_string buf "span tree:\n";
    Buffer.add_string buf (Format.asprintf "%a" Span.pp roots);
    Buffer.add_char buf '\n'
  end;
  if samples = [] && roots = [] then Buffer.add_string buf "(no metrics recorded)\n";
  Buffer.contents buf
