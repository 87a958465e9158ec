(* Tests for plan persistence. *)

module Workload = Mcss_workload.Workload
module Problem = Mcss_core.Problem
module Allocation = Mcss_core.Allocation
module Selection = Mcss_core.Selection
module Solver = Mcss_core.Solver
module Verifier = Mcss_core.Verifier
module Plan_io = Mcss_core.Plan_io
module Front = Mcss_front.Front
module Engine = Mcss_engine.Engine
module Churn = Mcss_dynamic.Churn

(* The codec as it stood before the flat-array rewrite, copied verbatim:
   the oracle for the differential properties below. *)
module Oracle = struct
  exception Parse_error = Plan_io.Parse_error

  let emit add a =
    add "mcss-plan 1\n";
    add (Printf.sprintf "capacity %.17g\n" (Allocation.capacity a));
    add (Printf.sprintf "vms %d\n" (Allocation.num_vms a));
    Array.iter
      (fun vm ->
        List.iter
          (fun topic ->
            let subs = Allocation.subscribers_of_topic_on vm topic in
            add (Printf.sprintf "place %d %d %d" (Allocation.vm_id vm) topic
                   (List.length subs));
            List.iter (fun v -> add (Printf.sprintf " %d" v)) subs;
            add "\n")
          (Allocation.topics_on vm))
      (Allocation.vms a)

  let to_string a =
    let buf = Buffer.create 4096 in
    emit (Buffer.add_string buf) a;
    Buffer.contents buf

  (* The reader pulls raw lines from a closure so channels and in-memory
     strings parse through the same code. *)
  type reader = { next_raw : unit -> string option; mutable line_num : int }

  let fail r msg = raise (Parse_error (Printf.sprintf "line %d: %s" r.line_num msg))

  let rec next_line r =
    match r.next_raw () with
    | None -> None
    | Some line ->
        r.line_num <- r.line_num + 1;
        let line = String.trim line in
        if line = "" || line.[0] = '#' then next_line r else Some line

  let expect_line r what =
    match next_line r with
    | Some line -> line
    | None -> fail r (Printf.sprintf "unexpected end of file, expected %s" what)

  let parse_int r what s =
    match int_of_string_opt s with
    | Some n -> n
    | None -> fail r (Printf.sprintf "bad %s %S" what s)

  let lines_of_string s =
    let pos = ref 0 in
    let n = String.length s in
    fun () ->
      if !pos >= n then None
      else
        let stop =
          match String.index_from_opt s !pos '\n' with Some i -> i | None -> n
        in
        let line = String.sub s !pos (stop - !pos) in
        pos := stop + 1;
        Some line

  let parse ~workload r =
    (match expect_line r "the header" with
    | "mcss-plan 1" -> ()
    | other -> fail r (Printf.sprintf "expected \"mcss-plan 1\", got %S" other));
    let capacity =
      match String.split_on_char ' ' (expect_line r "capacity") with
      | [ "capacity"; c ] -> (
          match float_of_string_opt c with
          | Some c when c > 0. -> c
          | _ -> fail r (Printf.sprintf "bad capacity %S" c))
      | _ -> fail r "expected \"capacity <float>\""
    in
    let num_vms =
      match String.split_on_char ' ' (expect_line r "vms") with
      | [ "vms"; n ] ->
          let n = parse_int r "VM count" n in
          if n < 0 then fail r "negative VM count" else n
      | _ -> fail r "expected \"vms <int>\""
    in
    let a = Allocation.create ~capacity in
    let vms = Array.init num_vms (fun _ -> Allocation.deploy a) in
    let seen : (int * int, unit) Hashtbl.t = Hashtbl.create 1024 in
    let rec placements () =
      match next_line r with
      | None -> ()
      | Some line -> (
          match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
          | "place" :: vm :: topic :: k :: subs ->
              let vm = parse_int r "VM id" vm in
              if vm < 0 || vm >= num_vms then fail r (Printf.sprintf "VM %d out of range" vm);
              let topic = parse_int r "topic" topic in
              if topic < 0 || topic >= Workload.num_topics workload then
                fail r (Printf.sprintf "topic %d outside the workload" topic);
              let k = parse_int r "count" k in
              if List.length subs <> k then
                fail r (Printf.sprintf "count %d does not match %d subscribers" k
                          (List.length subs));
              let subscribers =
                Array.of_list (List.map (parse_int r "subscriber") subs)
              in
              Array.iter
                (fun v ->
                  if v < 0 || v >= Workload.num_subscribers workload then
                    fail r (Printf.sprintf "subscriber %d outside the workload" v);
                  if not (Array.mem topic (Workload.interests workload v)) then
                    fail r (Printf.sprintf "subscriber %d never subscribed to topic %d" v topic);
                  if Hashtbl.mem seen (topic, v) then
                    fail r (Printf.sprintf "pair (%d, %d) placed twice" topic v);
                  Hashtbl.add seen (topic, v) ())
                subscribers;
              Allocation.place a vms.(vm) ~topic
                ~ev:(Workload.event_rate workload topic)
                ~subscribers ~from:0 ~count:k;
              placements ()
          | _ -> fail r (Printf.sprintf "expected \"place ...\", got %S" line))
    in
    placements ();
    (* Reconstruct the selection implied by the placements. *)
    let per_subscriber = Array.make (Workload.num_subscribers workload) [] in
    Hashtbl.iter (fun (t, v) () -> per_subscriber.(v) <- t :: per_subscriber.(v)) seen;
    let chosen =
      Array.map
        (fun ts ->
          let a = Array.of_list ts in
          Array.sort compare a;
          a)
        per_subscriber
    in
    let selected_rate =
      Array.map
        (Array.fold_left (fun acc t -> acc +. Workload.event_rate workload t) 0.)
        chosen
    in
    let selection =
      {
        Selection.chosen;
        selected_rate;
        num_pairs = Hashtbl.length seen;
        outgoing_rate = Array.fold_left ( +. ) 0. selected_rate;
      }
    in
    (a, selection)

  let of_string ~workload s =
    parse ~workload { next_raw = lines_of_string s; line_num = 0 }
end

let roundtrip p =
  let r = Solver.solve p in
  let path = Filename.temp_file "mcss_plan" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Plan_io.save r.Solver.allocation path;
      let a, s = Plan_io.load ~workload:p.Problem.workload path in
      (r, a, s))

let test_roundtrip_fig1 () =
  let p = Helpers.fig1_problem ~capacity:50. () in
  let r, a, s = roundtrip p in
  Helpers.check_int "VM count" r.Solver.num_vms (Allocation.num_vms a);
  Helpers.check_float "total load" r.Solver.bandwidth (Allocation.total_load a);
  Helpers.check_int "pairs" r.Solver.selection.Selection.num_pairs s.Selection.num_pairs;
  Helpers.check_bool "reloaded plan verifies" true
    (Verifier.is_valid (Verifier.verify p s a))

let parse ~workload content =
  let path = Filename.temp_file "mcss_plan" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> output_string oc content);
      Plan_io.load ~workload path)

let expect_error name ~workload content =
  match parse ~workload content with
  | _ -> Alcotest.failf "%s: expected Parse_error" name
  | exception Plan_io.Parse_error _ -> ()

let test_parse_errors () =
  let w = Helpers.fig1_workload () in
  expect_error "bad header" ~workload:w "mcss-plan 2\n";
  expect_error "bad capacity" ~workload:w "mcss-plan 1\ncapacity -3\nvms 0\n";
  expect_error "vm out of range" ~workload:w
    "mcss-plan 1\ncapacity 50\nvms 1\nplace 2 0 1 0\n";
  expect_error "topic out of range" ~workload:w
    "mcss-plan 1\ncapacity 50\nvms 1\nplace 0 9 1 0\n";
  expect_error "subscriber out of range" ~workload:w
    "mcss-plan 1\ncapacity 50\nvms 1\nplace 0 0 1 9\n";
  expect_error "pair never subscribed" ~workload:w
    "mcss-plan 1\ncapacity 50\nvms 1\nplace 0 0 1 2\n";
  expect_error "duplicate pair" ~workload:w
    "mcss-plan 1\ncapacity 50\nvms 2\nplace 0 0 1 0\nplace 1 0 1 0\n";
  expect_error "count mismatch" ~workload:w
    "mcss-plan 1\ncapacity 50\nvms 1\nplace 0 0 2 0\n"

let test_accepts_comments () =
  let w = Helpers.fig1_workload () in
  let a, s =
    parse ~workload:w "# a plan\nmcss-plan 1\ncapacity 50\nvms 1\n# one pair\nplace 0 1 1 2\n"
  in
  Helpers.check_int "one vm" 1 (Allocation.num_vms a);
  Helpers.check_int "one pair" 1 s.Selection.num_pairs;
  Helpers.check_float "load = 2 ev" 20. (Allocation.total_load a)

let prop_roundtrip_preserves_everything =
  Helpers.qtest ~count:80 "plan save/load preserves fleet, loads and selection"
    Helpers.problem_arbitrary (fun p ->
      let r, a, s = roundtrip p in
      Allocation.num_vms a = r.Solver.num_vms
      && Float.abs (Allocation.total_load a -. r.Solver.bandwidth) < 1e-6
      && s.Selection.chosen = r.Solver.selection.Selection.chosen
      && Verifier.is_valid (Verifier.verify p s a))


let test_rejects_huge_fleets_and_infinite_capacity () =
  let w = Helpers.fig1_workload () in
  let rejects name content =
    match Plan_io.of_string ~workload:w content with
    | _ -> Alcotest.failf "%s: expected Parse_error" name
    | exception Plan_io.Parse_error msg -> msg
  in
  Alcotest.(check string) "vms too large to allocate"
    "line 3: VM count 99999999999999999 exceeds the workload's 5 pairs"
    (rejects "huge vms" "mcss-plan 1\ncapacity 1\nvms 99999999999999999\n");
  Alcotest.(check string) "more VMs than pairs"
    "line 3: VM count 6 exceeds the workload's 5 pairs"
    (rejects "vms > pairs" "mcss-plan 1\ncapacity 50\nvms 6\n");
  (* As many VMs as pairs is still accepted. *)
  ignore (Plan_io.of_string ~workload:w "mcss-plan 1\ncapacity 50\nvms 5\n");
  Alcotest.(check string) "infinite capacity" "line 2: bad capacity \"inf\""
    (rejects "capacity inf" "mcss-plan 1\ncapacity inf\nvms 0\n");
  Alcotest.(check string) "overflowing capacity" "line 2: bad capacity \"1e400\""
    (rejects "capacity 1e400" "mcss-plan 1\ncapacity 1e400\nvms 0\n")

(* The canonical bytes are journaled and digested ([plan_digest]); this
   MD5 was captured before the encoder rewrite and must never move. *)
let test_plan_bytes_pinned () =
  let w = Front.generate ~seed:11 `Spotify ~scale:0.002 in
  let instance = Result.get_ok (Front.resolve_instance "c3.large") in
  let _, p = Front.problem_of ~w ~tau:100. ~instance ~scale:0.002 ~bc_events:None in
  let r = Solver.solve p in
  let text = Plan_io.to_string r.Solver.allocation in
  Helpers.check_int "VMs" 27 r.Solver.num_vms;
  Helpers.check_int "bytes" 103216 (String.length text);
  Alcotest.(check string) "plan digest" "3257a27030f71c19c1b8d0647eb8e2b4"
    (Digest.to_hex (Digest.string text));
  Alcotest.(check string) "oracle encoder agrees" text
    (Oracle.to_string r.Solver.allocation);
  let path = Filename.temp_file "mcss_plan" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Plan_io.save r.Solver.allocation path;
      Alcotest.(check string) "save writes the same bytes" text
        (In_channel.with_open_bin path In_channel.input_all));
  (* Digit-count boundaries and ids no workload has. *)
  let a = Allocation.create ~capacity:0.1 in
  let vm = Allocation.deploy a in
  List.iter
    (fun topic ->
      Allocation.place a vm ~topic ~ev:1.
        ~subscribers:[| 0; 9; 10; 99; 100; 1234567890; max_int; -1; min_int |]
        ~from:0 ~count:9)
    [ 0; 7; 10; 999; max_int; -42 ];
  Alcotest.(check string) "oracle encoder agrees on edge ids" (Oracle.to_string a)
    (Plan_io.to_string a)

(* ----- differential decoder properties ----- *)

let bits = Int64.bits_of_float

let same_floats a b =
  Array.length a = Array.length b && Array.for_all2 (fun x y -> bits x = bits y) a b

let same_selection (s : Selection.t) (o : Selection.t) =
  s.Selection.chosen = o.Selection.chosen
  && same_floats s.Selection.selected_rate o.Selection.selected_rate
  && s.Selection.num_pairs = o.Selection.num_pairs
  && bits s.Selection.outgoing_rate = bits o.Selection.outgoing_rate

(* Text edits in the spirit of a damaged or hand-edited plan file. *)
let mutate rng text =
  let module Rng = Mcss_prng.Rng in
  let n = String.length text in
  let pos () = if n = 0 then 0 else Rng.int rng (n + 1) in
  let insert i s = String.sub text 0 i ^ s ^ String.sub text i (n - i) in
  (* [i, j) of a random token: a maximal run of non-separators. *)
  let token () =
    let i = ref (if n = 0 then 0 else Rng.int rng n) in
    while !i > 0 && text.[!i - 1] <> ' ' && text.[!i - 1] <> '\n' do decr i done;
    let j = ref !i in
    while !j < n && text.[!j] <> ' ' && text.[!j] <> '\n' do incr j done;
    (!i, !j)
  in
  let line_start () =
    let i = ref (pos ()) in
    while !i > 0 && text.[!i - 1] <> '\n' do decr i done;
    !i
  in
  match Rng.int rng 8 with
  | 0 ->
      let i, j = token () in
      let i = if i > 0 && text.[i - 1] = ' ' then i - 1 else i in
      String.sub text 0 i ^ String.sub text j (n - j)
  | 1 ->
      let i, j = token () in
      insert j (" " ^ String.sub text i (j - i))
  | 2 -> (
      let digits = List.filter (fun i -> text.[i] >= '0' && text.[i] <= '9') (List.init n Fun.id) in
      match digits with
      | [] -> text
      | _ ->
          let i = List.nth digits (Rng.int rng (List.length digits)) in
          let b = Bytes.of_string text in
          Bytes.set b i (Char.chr (48 + Rng.int rng 10));
          Bytes.to_string b)
  | 3 -> insert (pos ()) (String.make (1 + Rng.int rng 3) ' ')
  | 4 -> insert (line_start ()) "# a comment 1 2 3\n"
  | 5 -> insert (line_start ()) (if Rng.bool rng then "\n" else " \t \r\n")
  | 6 -> String.sub text 0 (pos ())
  | _ -> insert (pos ()) [| "\t"; "\r"; "\012" |].(Rng.int rng 3)

let solved_plan_text p = Plan_io.to_string (Solver.solve p).Solver.allocation

let mutated_plan_gen =
  QCheck.Gen.(
    let* p = Helpers.problem_gen in
    let* seed = int_bound 1_000_000 in
    let* edits = int_range 0 3 in
    let rng = Mcss_prng.Rng.create seed in
    let text = ref (solved_plan_text p) in
    for _ = 1 to edits do
      text := mutate rng !text
    done;
    return (p.Problem.workload, !text))

let mutated_plan_arbitrary =
  QCheck.make mutated_plan_gen ~print:(fun (_, text) -> String.escaped text)

(* The two rejections the oracle lacks, recognised from the new message
   and re-derived from the text it quotes. *)
let newly_rejected ~workload msg =
  match Scanf.sscanf msg "line %d: VM count %d exceeds the workload's %d pairs%!"
          (fun _ n pairs -> (n, pairs)) with
  | n, pairs -> pairs = Workload.num_pairs workload && n > pairs
  | exception _ -> (
      match Scanf.sscanf msg "line %d: bad capacity %S%!" (fun _ c -> c) with
      | c -> (
          match float_of_string_opt c with
          | Some c -> c > 0. && not (Float.is_finite c)
          | None -> false)
      | exception _ -> false)

let agrees_with_oracle (workload, text) =
  let run f = match f ~workload text with r -> Ok r | exception e -> Error e in
  match (run Plan_io.of_string, run Oracle.of_string) with
  | Ok (a, s), Ok (oa, os) ->
      Plan_io.to_string a = Oracle.to_string oa
      && bits (Allocation.total_load a) = bits (Allocation.total_load oa)
      && same_selection s os
  | Error (Plan_io.Parse_error m), Error (Plan_io.Parse_error om) ->
      m = om || newly_rejected ~workload m
  | Error (Plan_io.Parse_error m), (Ok _ | Error _) -> newly_rejected ~workload m
  | _ -> false

let prop_decoder_matches_oracle =
  Helpers.qtest ~count:500 "decoder = pre-rewrite decoder on mutated plans"
    mutated_plan_arbitrary agrees_with_oracle

(* Runs out of order: each [place] line's subscribers shuffled, or one
   of them repeated at a random position of its line (count bumped). *)
let reorder_runs rng ~repeat text =
  let module Rng = Mcss_prng.Rng in
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let places =
    List.filter (fun i -> String.starts_with ~prefix:"place " lines.(i))
      (List.init (Array.length lines) Fun.id)
  in
  let edit i f =
    match String.split_on_char ' ' lines.(i) with
    | "place" :: vm :: topic :: _ :: subs ->
        let subs = f (Array.of_list subs) in
        lines.(i) <-
          String.concat " "
            ("place" :: vm :: topic :: string_of_int (Array.length subs) :: Array.to_list subs)
    | _ -> ()
  in
  List.iter
    (fun i ->
      edit i (fun subs ->
          for j = Array.length subs - 1 downto 1 do
            let k = Rng.int rng (j + 1) in
            let x = subs.(j) in
            subs.(j) <- subs.(k);
            subs.(k) <- x
          done;
          subs))
    places;
  (if repeat && places <> [] then
     let i = List.nth places (Rng.int rng (List.length places)) in
     edit i (fun subs ->
         let n = Array.length subs in
         let at = Rng.int rng (n + 1) in
         let dup = subs.(Rng.int rng n) in
         Array.init (n + 1) (fun j ->
             if j < at then subs.(j) else if j = at then dup else subs.(j - 1))));
  String.concat "\n" (Array.to_list lines)

let reordered_plan_gen =
  QCheck.Gen.(
    let* p = Helpers.problem_gen in
    let* seed = int_bound 1_000_000 in
    let* repeat = bool in
    let* edits = int_range 0 2 in
    let rng = Mcss_prng.Rng.create seed in
    let text = ref (reorder_runs rng ~repeat (solved_plan_text p)) in
    for _ = 1 to edits do
      text := mutate rng !text
    done;
    return (p.Problem.workload, !text))

let prop_decoder_matches_oracle_on_reordered_runs =
  Helpers.qtest ~count:300 "decoder = pre-rewrite decoder on reordered runs"
    (QCheck.make reordered_plan_gen ~print:(fun (_, text) -> String.escaped text))
    agrees_with_oracle

let test_reordered_runs () =
  let w = Helpers.fig1_workload () in
  (* Topic 1's followers in descending order decode to the same
     selection as the ascending run. *)
  let a, s = Plan_io.of_string ~workload:w "mcss-plan 1\ncapacity 80\nvms 1\nplace 0 1 3 2 1 0\n" in
  let oa, os =
    Oracle.of_string ~workload:w "mcss-plan 1\ncapacity 80\nvms 1\nplace 0 1 3 2 1 0\n"
  in
  Alcotest.(check string) "plan text" (Oracle.to_string oa) (Plan_io.to_string a);
  Helpers.check_bool "selection" true (same_selection s os);
  (* A subscriber repeated inside one run, after a step down. *)
  let text = "mcss-plan 1\ncapacity 80\nvms 1\nplace 0 1 4 2 0 1 0\n" in
  let message f =
    match f ~workload:w text with
    | _ -> Alcotest.fail "expected Parse_error"
    | exception Plan_io.Parse_error m -> m
  in
  Alcotest.(check string) "old decoder's message" (message Oracle.of_string)
    (message Plan_io.of_string);
  Alcotest.(check string) "message" "line 4: pair (1, 0) placed twice"
    (message Plan_io.of_string)

(* Arbitrary byte damage, including ints far past any array size. *)
let garbage_gen =
  QCheck.Gen.(
    let* p = Helpers.problem_gen in
    let* seed = int_bound 1_000_000 in
    let* edits = int_range 1 6 in
    let rng = Mcss_prng.Rng.create seed in
    let module Rng = Mcss_prng.Rng in
    let text = ref (solved_plan_text p) in
    for _ = 1 to edits do
      let t = !text in
      let n = String.length t in
      let i = if n = 0 then 0 else Rng.int rng n in
      let junk =
        match Rng.int rng 4 with
        | 0 -> String.make 1 (Char.chr (Rng.int rng 256))
        | 1 -> "99999999999999999"
        | 2 -> "-1"
        | _ -> "0x7fffffffffffffff"
      in
      text :=
        if Rng.bool rng || n = 0 then String.sub t 0 i ^ junk ^ String.sub t i (n - i)
        else String.sub t 0 i ^ junk ^ String.sub t (i + 1) (n - i - 1)
    done;
    return (p.Problem.workload, !text))

let prop_decoder_raises_only_parse_error =
  Helpers.qtest ~count:300 "decoder raises only Parse_error on garbage"
    (QCheck.make garbage_gen ~print:(fun (_, text) -> String.escaped text))
    (fun (workload, text) ->
      match Plan_io.of_string ~workload text with
      | _ -> true
      | exception Plan_io.Parse_error _ -> true)

(* ----- the decoder against its allocating predecessor ----- *)

(* [p] with every event rate scaled by 1.1, which no float holds
   exactly, so a selected rate summed in another order shows in its
   bits. The capacity grows by more, so every pair still fits. *)
let fractional p =
  let w = p.Problem.workload in
  let workload =
    Workload.create
      ~event_rates:(Array.map (fun ev -> ev *. 1.1) (Workload.event_rates w))
      ~interests:(Array.init (Workload.num_subscribers w) (Workload.interests w))
  in
  Problem.create ~workload ~tau:p.Problem.tau ~capacity:(p.Problem.capacity *. 1.2)
    p.Problem.costs

(* Edits aimed at the decoder's kernels, on one [place] line: an int
   spelled so that only [int_of_string_opt] reads it, a token the
   fallback reads or rejects, separators widened into runs of spaces and
   tabs, a count mismatch together with a bad subscriber token, and an
   out-of-range subscriber (before a bad token or not), so the first
   fault found must be the same one. *)
let kernel_edit rng ~num_subscribers text =
  let module Rng = Mcss_prng.Rng in
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let places =
    List.filter (fun i -> String.starts_with ~prefix:"place " lines.(i))
      (List.init (Array.length lines) Fun.id)
  in
  if places = [] then text
  else begin
    let i = List.nth places (Rng.int rng (List.length places)) in
    let fields = Array.of_list (String.split_on_char ' ' lines.(i)) in
    let n = Array.length fields in
    let field () = 1 + Rng.int rng (n - 1) in
    let subscriber () = if n > 4 then 4 + Rng.int rng (n - 4) else field () in
    let pick a = a.(Rng.int rng (Array.length a)) in
    (match Rng.int rng 5 with
    | 0 -> (
        let j = field () in
        let f = fields.(j) in
        match int_of_string_opt f with
        | Some v when v >= 0 ->
            fields.(j) <-
              (match Rng.int rng 5 with
              | 0 -> "+" ^ f
              | 1 -> Printf.sprintf "0x%x" v
              | 2 -> "00" ^ f
              | 3 -> Printf.sprintf "%019d" v
              | _ -> String.sub f 0 1 ^ "_" ^ String.sub f 1 (String.length f - 1))
        | _ -> ())
    | 1 ->
        fields.(field ()) <-
          pick
            [| "+5"; "0x1f"; "007"; "1_0"; "1000000000000000000"; "9999999999999999999";
               "0000000000000000001"; "-1"; "x" |]
    | 2 ->
        let seps = [| " "; "  "; " \t "; "\t"; "\t\t"; "   " |] in
        let b = Buffer.create 64 in
        if Rng.bool rng then Buffer.add_string b (pick [| " "; "\t"; " \t" |]);
        Array.iteri
          (fun j f ->
            if j > 0 then Buffer.add_string b (pick seps);
            Buffer.add_string b f)
          fields;
        if Rng.bool rng then Buffer.add_string b (pick [| " "; "\t"; "\t " |]);
        fields.(0) <- Buffer.contents b;
        for j = 1 to n - 1 do
          fields.(j) <- ""
        done
    | 3 ->
        if n > 3 then fields.(3) <- string_of_int (n - 4 + 1 + Rng.int rng 2);
        fields.(subscriber ()) <- pick [| "x"; "1x"; "-"; "0x" |]
    | _ ->
        let j = subscriber () in
        fields.(j) <- pick [| string_of_int (num_subscribers + Rng.int rng 3); "-1" |];
        if Rng.bool rng && n > 4 then fields.(4 + Rng.int rng (n - 4)) <- "x");
    lines.(i) <-
      String.concat " " (List.filter (fun f -> f <> "") (Array.to_list fields));
    String.concat "\n" (Array.to_list lines)
  end

(* Both decoders give the same allocation, selection and loads, or the
   same [Parse_error] message. *)
let decodes_like_oracle (workload, text) =
  let run f = match f ~workload text with r -> Ok r | exception Plan_io.Parse_error m -> Error m in
  match (run Plan_io.of_string, run Plan_io_oracle.of_string) with
  | Ok (a, s), Ok (oa, os) ->
      Plan_io.to_string a = Plan_io.to_string oa
      && bits (Allocation.total_load a) = bits (Allocation.total_load oa)
      && same_selection s os
  | Error m, Error om -> m = om
  | Ok _, Error _ | Error _, Ok _ -> false

let kernel_plan_gen =
  QCheck.Gen.(
    let* p = Helpers.problem_gen in
    let* seed = int_bound 1_000_000 in
    let* inexact = bool in
    let* reorder = bool in
    let* edits = int_range 0 3 in
    let module Rng = Mcss_prng.Rng in
    let p = if inexact then fractional p else p in
    let w = p.Problem.workload in
    let rng = Rng.create seed in
    let text = solved_plan_text p in
    let text = ref (if reorder then reorder_runs rng ~repeat:(Rng.bool rng) text else text) in
    for _ = 1 to edits do
      text :=
        if Rng.int rng 3 = 0 then mutate rng !text
        else kernel_edit rng ~num_subscribers:(Workload.num_subscribers w) !text
    done;
    return (w, !text))

let prop_decoder_matches_allocating_oracle =
  Helpers.qtest ~count:500 "decoder = allocating decoder (text, selection bits, errors)"
    (QCheck.make kernel_plan_gen ~print:(fun (_, text) -> String.escaped text))
    decodes_like_oracle

let test_decoder_kernel_cases () =
  let w = Helpers.fig1_workload () in
  let header = "mcss-plan 1\ncapacity 80\nvms 2\n" in
  let decode body =
    match Plan_io.of_string ~workload:w (header ^ body) with
    | a, _ -> Ok (Plan_io.to_string a)
    | exception Plan_io.Parse_error m -> Error m
  in
  List.iter
    (fun body ->
      if not (decodes_like_oracle (w, header ^ body)) then
        Alcotest.failf "decoders disagree on %S" body)
    [
      "place 0 1 3 0 1 2\nplace 1 0 2 0 1\n";
      "place +0 1 3 0 1 2\n";
      "place 0 0x1 3 0 1 2\n";
      "place 0 1 003 0 1 2\n";
      "place 0 1 3 0 1_0 2\n";
      "place 0 1 3 0 1 0000000000000000002\n";
      "place 0 1 3 0 1 9999999999999999999\n";
      "place 0 1 1000000000000000000 0 1 2\n";
      "place  0\t1 3 0 1 2\n";
      "\tplace   0 1    3 0 1 2 \t\n";
      "place 0 1 4 0 x 2\n";
      "place 0 1 3 7 x 2\n";
      "place 0 1 3 7 1 2\n";
      "place 0 1 3 -1 1 2\n";
      "place 0 1 3 2 0 1\nplace 1 1 2 1 0\n";
    ];
  let check body expected =
    Alcotest.(check (result string string)) body expected (decode body)
  in
  check "place 0 1 3 00 +1 0x2\n" (Ok (header ^ "place 0 1 3 0 1 2\n"));
  check "place 0 1 4 0 x 2\n" (Error "line 4: count 4 does not match 3 subscribers");
  check "place 0 1 3 7 x 2\n" (Error "line 4: bad subscriber \"x\"");
  check "place 0 1 3 7 1 2\n" (Error "line 4: subscriber 7 outside the workload");
  check "place 0 1 3 0 1 9999999999999999999\n"
    (Error "line 4: bad subscriber \"9999999999999999999\"")

(* ----- decoded rows shared with the workload ----- *)

(* The workload's rows, interest rates and event rates, deep-copied. *)
let workload_snapshot w =
  let n = Workload.num_subscribers w in
  ( Array.init n (fun v -> Array.copy (Workload.interests w v)),
    Array.init n (Workload.interest_rate w),
    Array.copy (Workload.event_rates w) )

let workload_unchanged w (interests, rates, events) =
  let n = Workload.num_subscribers w in
  n = Array.length interests
  && Array.for_all Fun.id (Array.init n (fun v -> Workload.interests w v = interests.(v)))
  && same_floats (Array.init n (Workload.interest_rate w)) rates
  && same_floats (Workload.event_rates w) events

(* A subscriber whose every interest is placed gets the workload's own
   row and interest rate; decoding, and an engine started from and
   evolved past the decoded plan, never write them. One solve places
   every pair (τ above every interest rate: every row shared), the
   other only some. *)
let test_decode_shares_rows () =
  let rng = Mcss_prng.Rng.create 23 in
  let p =
    fractional
      (Helpers.random_problem rng ~num_topics:30 ~num_subscribers:80 ~max_rate:20
         ~max_interests:8 ~tau:40. ~capacity:400.)
  in
  let every =
    Problem.create ~workload:p.Problem.workload ~tau:1e9 ~capacity:p.Problem.capacity
      p.Problem.costs
  in
  let w = p.Problem.workload in
  let before = workload_snapshot w in
  List.iter
    (fun (name, p, all_shared) ->
      let text = solved_plan_text p in
      let a, s = Plan_io.of_string ~workload:w text in
      let _, os = Plan_io_oracle.of_string ~workload:w text in
      Helpers.check_bool (name ^ ": selection bits") true (same_selection s os);
      let shared = ref 0 in
      for v = 0 to Workload.num_subscribers w - 1 do
        let row = Workload.interests w v in
        if s.Selection.chosen.(v) == row then begin
          incr shared;
          if bits s.Selection.selected_rate.(v) <> bits (Workload.interest_rate w v) then
            Alcotest.failf "%s: subscriber %d's shared rate differs" name v
        end
        else if Array.length s.Selection.chosen.(v) = Array.length row then
          Alcotest.failf "%s: subscriber %d's full row is not shared" name v
      done;
      Helpers.check_bool (name ^ ": some rows shared") true (!shared > 0);
      if all_shared then
        Helpers.check_int (name ^ ": every row shared") (Workload.num_subscribers w) !shared;
      Helpers.check_bool (name ^ ": decode leaves the workload") true
        (workload_unchanged w before);
      let eng = Engine.of_plan { Engine.problem = p; selection = s; allocation = a } in
      for _ = 1 to 3 do
        let deltas = Churn.tick rng (Churn.scaled 0.3) (Engine.problem eng).Problem.workload in
        ignore (Engine.apply eng deltas)
      done;
      Helpers.check_bool (name ^ ": engine leaves the workload") true
        (workload_unchanged w before))
    [ ("every pair", every, true); ("solver plan", p, false) ]

let suite =
  [
    Alcotest.test_case "roundtrip fig1" `Quick test_roundtrip_fig1;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "accepts comments" `Quick test_accepts_comments;
    prop_roundtrip_preserves_everything;
    Alcotest.test_case "rejects huge fleets and infinite capacity" `Quick
      test_rejects_huge_fleets_and_infinite_capacity;
    Alcotest.test_case "plan bytes pinned" `Quick test_plan_bytes_pinned;
    prop_decoder_matches_oracle;
    Alcotest.test_case "reordered runs" `Quick test_reordered_runs;
    prop_decoder_matches_oracle_on_reordered_runs;
    prop_decoder_raises_only_parse_error;
    prop_decoder_matches_allocating_oracle;
    Alcotest.test_case "decoder kernel cases" `Quick test_decoder_kernel_cases;
    Alcotest.test_case "decode shares rows, writes no workload" `Quick test_decode_shares_rows;
  ]
