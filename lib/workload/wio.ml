exception Parse_error of string

let emit add w =
  add (Printf.sprintf "mcss-workload 1\n");
  add (Printf.sprintf "topics %d\n" (Workload.num_topics w));
  add (Printf.sprintf "subscribers %d\n" (Workload.num_subscribers w));
  add "rates\n";
  Array.iter (fun ev -> add (Printf.sprintf "%.17g\n" ev)) (Workload.event_rates w);
  add "interests\n";
  for v = 0 to Workload.num_subscribers w - 1 do
    let tv = Workload.interests w v in
    add (string_of_int (Array.length tv));
    Array.iter (fun t -> add (Printf.sprintf " %d" t)) tv;
    add "\n"
  done

let output oc w = emit (output_string oc) w

let to_string w =
  let buf = Buffer.create 4096 in
  emit (Buffer.add_string buf) w;
  Buffer.contents buf

let save w path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output oc w)

(* The reader pulls raw lines from a closure so channels and in-memory
   strings parse through the same code. *)
type reader = { next_raw : unit -> string option; mutable line_num : int }

let fail r msg = raise (Parse_error (Printf.sprintf "line %d: %s" r.line_num msg))

(* Next non-comment, non-blank line, or None at end of input. *)
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

let expect_keyword_int r keyword =
  let line = expect_line r keyword in
  match String.split_on_char ' ' line with
  | [ k; n ] when k = keyword -> (
      match int_of_string_opt n with
      | Some n -> n
      | None -> fail r (Printf.sprintf "bad integer %S after %s" n keyword))
  | _ -> fail r (Printf.sprintf "expected %S <int>, got %S" keyword line)

let expect_exact r expected =
  let line = expect_line r expected in
  if line <> expected then fail r (Printf.sprintf "expected %S, got %S" expected line)

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

(* [count] items, one per line, read by [item]. The array grows as lines
   arrive rather than being sized from the header's count, so a huge
   count fails at the end of the input instead of in an allocation. *)
let read_items count item =
  let items = ref [||] and n = ref 0 in
  while !n < count do
    let x = item () in
    if !n = Array.length !items then begin
      let fresh = Array.make (max 16 (2 * !n)) x in
      Array.blit !items 0 fresh 0 !n;
      items := fresh
    end;
    !items.(!n) <- x;
    incr n
  done;
  Array.sub !items 0 !n

let parse r =
  expect_exact r "mcss-workload 1";
  let num_topics = expect_keyword_int r "topics" in
  let num_subscribers = expect_keyword_int r "subscribers" in
  if num_topics < 0 || num_subscribers < 0 then fail r "negative count";
  expect_exact r "rates";
  let event_rates =
    read_items num_topics (fun () ->
        let line = expect_line r "an event rate" in
        match float_of_string_opt line with
        | Some ev -> ev
        | None -> fail r (Printf.sprintf "bad event rate %S" line))
  in
  expect_exact r "interests";
  let interests =
    read_items num_subscribers (fun () ->
        let line = expect_line r "an interest list" in
        let fields =
          String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
        in
        match fields with
        | [] -> fail r "empty interest line"
        | k :: topics -> (
            match int_of_string_opt k with
            | None -> fail r (Printf.sprintf "bad interest count %S" k)
            | Some k ->
                if List.length topics <> k then
                  fail r (Printf.sprintf "interest count %d does not match %d topics"
                            k (List.length topics));
                Array.of_list
                  (List.map
                     (fun s ->
                       match int_of_string_opt s with
                       | Some t -> t
                       | None -> fail r (Printf.sprintf "bad topic id %S" s))
                     topics)))
  in
  match Workload.create ~event_rates ~interests with
  | w -> w
  | exception Invalid_argument msg -> fail r msg

let input ic =
  parse { next_raw = (fun () -> In_channel.input_line ic); line_num = 0 }

let of_string s = parse { next_raw = lines_of_string s; line_num = 0 }

let load path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input ic)
