type axis = Linear | Log

type style = Lines | Points | Linespoints

type spec = {
  title : string;
  xlabel : string;
  ylabel : string;
  xaxis : axis;
  yaxis : axis;
  style : style;
  series : (string * string) list;
}

let style_keyword = function
  | Lines -> "lines"
  | Points -> "points"
  | Linespoints -> "linespoints"

(* Minimal escaping for gnuplot double-quoted strings. *)
let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      if c = '"' || c = '\\' then Buffer.add_char buf '\\';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf

let script spec ~output =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "set terminal pngcairo size 800,600\n";
  add "set output \"%s\"\n" (escape output);
  add "set title \"%s\"\n" (escape spec.title);
  add "set xlabel \"%s\"\n" (escape spec.xlabel);
  add "set ylabel \"%s\"\n" (escape spec.ylabel);
  (match spec.xaxis with Log -> add "set logscale x\n" | Linear -> ());
  (match spec.yaxis with Log -> add "set logscale y\n" | Linear -> ());
  add "set key outside\n";
  add "plot";
  List.iteri
    (fun i (label, path) ->
      if i > 0 then add ",";
      add " \"%s\" using 1:2 with %s title \"%s\"" (escape path)
        (style_keyword spec.style) (escape label))
    spec.series;
  add "\n";
  Buffer.contents buf

let save spec ~dir ~name =
  Fs.mkdir_p dir;
  let path = Filename.concat dir (name ^ ".gp") in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (script spec ~output:(name ^ ".png")))
