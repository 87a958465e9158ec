type point = { x : float; y : float }

type t = { name : string; points : point list }

let of_pairs ~name pairs =
  { name; points = List.map (fun (x, y) -> { x; y }) pairs }

let of_int_pairs ~name pairs =
  { name; points = List.map (fun (x, y) -> { x = float_of_int x; y }) pairs }

let to_string s =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "# %s\n# x y\n" s.name);
  List.iter
    (fun { x; y } -> Buffer.add_string buf (Printf.sprintf "%.10g %.10g\n" x y))
    s.points;
  Buffer.contents buf

let save s ~dir =
  Fs.mkdir_p dir;
  let path = Filename.concat dir (s.name ^ ".dat") in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string s))

let save_all series ~dir = List.iter (fun s -> save s ~dir) series
