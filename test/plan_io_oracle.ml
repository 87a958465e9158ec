(* The [Mcss_core.Plan_io] decoder as it stood before its per-pair
   kernels stopped allocating, copied verbatim (a recursive tokenizer and
   digit reader built per line and per token, [selected_rate] summed
   with [Array.fold_left]): the oracle for the differential properties
   in [Test_plan_io]. Only the module aliases and the exception rebinding
   below are new. *)

module Workload = Mcss_workload.Workload
module Allocation = Mcss_core.Allocation
module Arena = Mcss_core.Arena
module Selection = Mcss_core.Selection

exception Parse_error = Mcss_core.Plan_io.Parse_error

(* The reader pulls raw lines through [refill] so channels and in-memory
   strings parse through the same code. The current line is the slice
   [pos, stop) of [text]: an in-memory plan is scanned in place, never
   copied line by line. *)
type reader = {
  refill : reader -> bool;
  mutable text : string;
  mutable pos : int;
  mutable stop : int;
  mutable line_num : int;
}

let fail r msg = raise (Parse_error (Printf.sprintf "line %d: %s" r.line_num msg))

(* [String.trim]'s notion of whitespace. *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* Advance to the next line that is neither blank nor a comment,
   trimming it in place; [false] at end of input. *)
let rec next_line r =
  r.refill r
  && begin
       r.line_num <- r.line_num + 1;
       while r.pos < r.stop && is_space r.text.[r.pos] do
         r.pos <- r.pos + 1
       done;
       while r.stop > r.pos && is_space r.text.[r.stop - 1] do
         r.stop <- r.stop - 1
       done;
       if r.pos = r.stop || r.text.[r.pos] = '#' then next_line r else true
     end

let current_line r = String.sub r.text r.pos (r.stop - r.pos)

let expect_line r what =
  if next_line r then current_line r
  else fail r (Printf.sprintf "unexpected end of file, expected %s" what)

let parse_int r what s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> fail r (Printf.sprintf "bad %s %S" what s)

(* The int in [text.[a, b)]: plain decimal digits are read directly, and
   anything else goes through [int_of_string_opt], so the accepted
   language is exactly {!parse_int}'s. *)
let int_at r what a b =
  let text = r.text in
  let rec digits i acc =
    if i = b then acc
    else
      match String.unsafe_get text i with
      | '0' .. '9' as c -> digits (i + 1) ((10 * acc) + Char.code c - 48)
      | _ -> -1
  in
  let n = if b - a <= 18 then digits a 0 else -1 in
  if n >= 0 then n else parse_int r what (String.sub text a (b - a))

(* Per-line scratch, reused across lines: token boundaries (start, stop
   pairs) and the parsed subscriber ids. *)
type scratch = { mutable bounds : int array; mutable subs : int array }

let grow a n =
  if Array.length a >= n then a
  else begin
    let fresh = Array.make (max n (2 * Array.length a)) 0 in
    Array.blit a 0 fresh 0 (Array.length a);
    fresh
  end

(* Split the current line at spaces (runs of spaces are one separator,
   as [String.split_on_char] followed by dropping empty tokens); returns
   the token count. *)
let tokenize r sc =
  let text = r.text and stop = r.stop in
  let rec go i k =
    if i >= stop then k
    else if String.unsafe_get text i = ' ' then go (i + 1) k
    else begin
      let j = ref i in
      while !j < stop && String.unsafe_get text !j <> ' ' do
        incr j
      done;
      sc.bounds <- grow sc.bounds ((2 * k) + 2);
      sc.bounds.(2 * k) <- i;
      sc.bounds.((2 * k) + 1) <- !j;
      go !j (k + 1)
    end
  in
  go r.pos 0

let token_is r sc k s =
  let a = sc.bounds.(2 * k) and b = sc.bounds.((2 * k) + 1) in
  b - a = String.length s && String.sub r.text a (b - a) = s

let parse ~workload r =
  (match expect_line r "the header" with
  | "mcss-plan 1" -> ()
  | other -> fail r (Printf.sprintf "expected \"mcss-plan 1\", got %S" other));
  let capacity =
    match String.split_on_char ' ' (expect_line r "capacity") with
    | [ "capacity"; c ] -> (
        match float_of_string_opt c with
        | Some c when c > 0. && Float.is_finite c -> c
        | _ -> fail r (Printf.sprintf "bad capacity %S" c))
    | _ -> fail r "expected \"capacity <float>\""
  in
  let num_vms =
    match String.split_on_char ' ' (expect_line r "vms") with
    | [ "vms"; n ] ->
        let n = parse_int r "VM count" n in
        if n < 0 then fail r "negative VM count"
        else if n > Workload.num_pairs workload then
          fail r
            (Printf.sprintf "VM count %d exceeds the workload's %d pairs" n
               (Workload.num_pairs workload))
        else n
    | _ -> fail r "expected \"vms <int>\""
  in
  let a = Allocation.create ~capacity in
  let vms = Array.init num_vms (fun _ -> Allocation.deploy a) in
  let num_topics = Workload.num_topics workload in
  let num_subscribers = Workload.num_subscribers workload in
  (* Pair (t, v) of the workload owns byte [slot] of [placed], where
     [slot] holds v in column row t of the transposed interests;
     [counts.(v)] is how many of v's pairs are placed. *)
  let followers =
    Arena.Transpose.create ~width:num_topics ~rows:num_subscribers
      (Workload.interests workload)
  in
  let placed = Bytes.make (Workload.num_pairs workload) '\000' in
  let counts = Array.make num_subscribers 0 in
  let sc = { bounds = Array.make 64 0; subs = Array.make 32 0 } in
  let tok_int what k = int_at r what sc.bounds.(2 * k) sc.bounds.((2 * k) + 1) in
  while next_line r do
    let ntok = tokenize r sc in
    if ntok < 4 || not (token_is r sc 0 "place") then
      fail r (Printf.sprintf "expected \"place ...\", got %S" (current_line r));
    let vm = tok_int "VM id" 1 in
    if vm < 0 || vm >= num_vms then fail r (Printf.sprintf "VM %d out of range" vm);
    let topic = tok_int "topic" 2 in
    if topic < 0 || topic >= num_topics then
      fail r (Printf.sprintf "topic %d outside the workload" topic);
    let k = tok_int "count" 3 in
    if ntok - 4 <> k then
      fail r (Printf.sprintf "count %d does not match %d subscribers" k (ntok - 4));
    sc.subs <- grow sc.subs k;
    for i = 0 to k - 1 do
      sc.subs.(i) <- tok_int "subscriber" (i + 4)
    done;
    Arena.Transpose.iter_run followers topic sc.subs k (fun v slot ->
        if v < 0 || v >= num_subscribers then
          fail r (Printf.sprintf "subscriber %d outside the workload" v);
        if slot < 0 then
          fail r (Printf.sprintf "subscriber %d never subscribed to topic %d" v topic);
        if Bytes.get placed slot <> '\000' then
          fail r (Printf.sprintf "pair (%d, %d) placed twice" topic v);
        Bytes.set placed slot '\001';
        counts.(v) <- counts.(v) + 1);
    Allocation.place a vms.(vm) ~topic
      ~ev:(Workload.event_rate workload topic)
      ~subscribers:sc.subs ~from:0 ~count:k
  done;
  (* Reconstruct the selection implied by the placements: each
     subscriber's placed topics, filled in one ascending-topic pass over
     [placed] (with [counts] reused as the fill cursors), so every row
     comes out id-sorted. *)
  let num_pairs = Array.fold_left ( + ) 0 counts in
  let chosen = Array.map (fun n -> Array.make n 0) counts in
  Array.fill counts 0 num_subscribers 0;
  for t = 0 to num_topics - 1 do
    for slot = Arena.Transpose.start followers t to Arena.Transpose.stop followers t - 1 do
      if Bytes.unsafe_get placed slot <> '\000' then begin
        let v = Arena.Transpose.get followers slot in
        chosen.(v).(counts.(v)) <- t;
        counts.(v) <- counts.(v) + 1
      end
    done
  done;
  let selected_rate =
    Array.map
      (Array.fold_left (fun acc t -> acc +. Workload.event_rate workload t) 0.)
      chosen
  in
  let selection =
    {
      Selection.chosen;
      selected_rate;
      num_pairs;
      outgoing_rate = Array.fold_left ( +. ) 0. selected_rate;
    }
  in
  (a, selection)

let channel_refill ic r =
  match In_channel.input_line ic with
  | None -> false
  | Some line ->
      r.text <- line;
      r.pos <- 0;
      r.stop <- String.length line;
      true

let string_refill s =
  let next = ref 0 in
  fun r ->
    let n = String.length s in
    !next < n
    && begin
         let stop =
           match String.index_from_opt s !next '\n' with Some i -> i | None -> n
         in
         r.pos <- !next;
         r.stop <- stop;
         next := stop + 1;
         true
       end

let input ~workload ic =
  parse ~workload { refill = channel_refill ic; text = ""; pos = 0; stop = 0; line_num = 0 }

let of_string ~workload s =
  parse ~workload { refill = string_refill s; text = s; pos = 0; stop = 0; line_num = 0 }

