module Workload = Mcss_workload.Workload

exception Parse_error of string

(* Plans run to millions of pairs, so the writer renders each int by
   hand into a 21-byte [digits] scratch (up to 19 digits ending at index
   19, with one separator byte on either side) and appends that, rather
   than formatting a string per subscriber. *)
let digit_scratch () = Bytes.create 21

(* Write [n >= 0]'s digits right-aligned to end at index [i]; the first
   one's index. *)
let rec fill_digits digits i n =
  Bytes.unsafe_set digits i (Char.unsafe_chr (48 + (n mod 10)));
  if n < 10 then i else fill_digits digits (i - 1) (n / 10)

(* [' '] then [n]. *)
let add_int digits buf n =
  if n < 0 then Buffer.add_string buf (" " ^ string_of_int n)
  else begin
    let i = fill_digits digits 19 n - 1 in
    Bytes.unsafe_set digits i ' ';
    Buffer.add_subbytes buf digits i (20 - i)
  end

let add_int_then digits buf n c =
  if n < 0 then begin
    Buffer.add_string buf (string_of_int n);
    Buffer.add_char buf c
  end
  else begin
    let i = fill_digits digits 19 n in
    Bytes.unsafe_set digits 20 c;
    Buffer.add_subbytes buf digits i (21 - i)
  end

let emit_header buf a =
  Buffer.add_string buf "mcss-plan 1\n";
  Buffer.add_string buf (Printf.sprintf "capacity %.17g\n" (Allocation.capacity a));
  Buffer.add_string buf (Printf.sprintf "vms %d\n" (Allocation.num_vms a))

let emit_vm digits buf vm =
  let id = Allocation.vm_id vm in
  Allocation.iter_groups vm (fun topic run n ->
      Buffer.add_string buf "place";
      add_int digits buf id;
      add_int digits buf topic;
      add_int digits buf n;
      for i = 0 to n - 1 do
        add_int digits buf (Array.unsafe_get run i)
      done;
      Buffer.add_char buf '\n')

let output oc a =
  let buf = Buffer.create 65536 and digits = digit_scratch () in
  emit_header buf a;
  Allocation.iter_vms a (fun vm ->
      emit_vm digits buf vm;
      Buffer.output_buffer oc buf;
      Buffer.clear buf);
  Buffer.output_buffer oc buf

let to_string a =
  let buf = Buffer.create 4096 and digits = digit_scratch () in
  emit_header buf a;
  Allocation.iter_vms a (emit_vm digits buf);
  Buffer.contents buf

let save a path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output oc a)

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

(* The value of the plain decimal digits [text.[i, b)] after [acc], or
   [-1] at the first byte that is not a digit. *)
let rec digits_at text i b acc =
  if i = b then acc
  else
    match String.unsafe_get text i with
    | '0' .. '9' as c -> digits_at text (i + 1) b ((10 * acc) + Char.code c - 48)
    | _ -> -1

(* The int in [text.[a, b)]: up to 18 plain decimal digits (no
   overflow) are read directly, and anything else goes through
   [int_of_string_opt], so the accepted language is exactly
   {!parse_int}'s. *)
let int_at r what a b =
  let n = if b - a <= 18 then digits_at r.text a b 0 else -1 in
  if n >= 0 then n else parse_int r what (String.sub r.text a (b - a))

(* Per-line scratch, reused across lines: token boundaries (start, stop
   pairs) for the general reader, and the line's ints, [vm; topic;
   count; subscriber ...], for both readers. *)
type scratch = { mutable bounds : int array; mutable ints : int array }

let grow a n =
  if Array.length a >= n then a
  else begin
    let fresh = Array.make (max n (2 * Array.length a)) 0 in
    Array.blit a 0 fresh 0 (Array.length a);
    fresh
  end

(* The ints of a [place] line start at this index of [sc.ints]. *)
let subs_from = 3

(* Store the value of the plain decimal digits from [text.[i]] up to
   the next space (or [stop]), after [acc], in [ints.(n)]; the index
   after them, or [-1] at a byte that is neither a digit nor a space. *)
let rec read_digits text i stop acc ints n =
  if i = stop || String.unsafe_get text i = ' ' then begin
    Array.unsafe_set ints n acc;
    i
  end
  else
    match String.unsafe_get text i with
    | '0' .. '9' as c ->
        read_digits text (i + 1) stop ((10 * acc) + Char.code c - 48) ints n
    | _ -> -1

(* [text] holds [word] from index [i] on; [text] must reach that far. *)
let rec holds text i word j =
  j = String.length word
  || String.unsafe_get text (i + j) = String.unsafe_get word j
     && holds text i word (j + 1)

(* The fused reader: for a line ["place"] then space-separated tokens of
   1 to 18 plain decimal digits (no overflow), at least four of them,
   with the VM in range, the topic in the workload, and a positive count
   that matches the subscribers, store the ints in [sc.ints] and return
   the count. Otherwise [-1]: the general reader then re-reads the line,
   so every message is its own. *)
let read_place r sc ~num_vms ~num_topics =
  let text = r.text and stop = r.stop in
  let i = ref (r.pos + 5) and n = ref 0 in
  if not (stop - r.pos > 5 && text.[r.pos + 5] = ' ' && holds text r.pos "place" 0) then
    i := -1;
  while !i >= 0 && !i < stop do
    if String.unsafe_get text !i = ' ' then incr i
    else begin
      if !n = Array.length sc.ints then sc.ints <- grow sc.ints (!n + 1);
      let b = read_digits text !i stop 0 sc.ints !n in
      i := if b - !i > 18 then -1 else b;
      incr n
    end
  done;
  let ints = sc.ints in
  if
    !i >= 0 && !n > subs_from
    && ints.(0) < num_vms
    && ints.(1) < num_topics
    && ints.(2) = !n - subs_from
  then ints.(2)
  else -1

(* Split the current line at spaces (runs of spaces are one separator,
   as [String.split_on_char] followed by dropping empty tokens); returns
   the token count. *)
let tokenize r sc =
  let text = r.text and stop = r.stop in
  let i = ref r.pos and k = ref 0 in
  while !i < stop do
    if String.unsafe_get text !i = ' ' then incr i
    else begin
      let j = ref !i in
      while !j < stop && String.unsafe_get text !j <> ' ' do
        incr j
      done;
      sc.bounds <- grow sc.bounds ((2 * !k) + 2);
      sc.bounds.(2 * !k) <- !i;
      sc.bounds.((2 * !k) + 1) <- !j;
      i := !j;
      incr k
    end
  done;
  !k

let token_is r sc k s =
  let a = sc.bounds.(2 * k) and b = sc.bounds.((2 * k) + 1) in
  b - a = String.length s && String.sub r.text a (b - a) = s

(* The general reader, for any line the fused one declines: the same
   ints into [sc.ints], or the line's [Parse_error]. *)
let read_place_tokens r sc ~num_vms ~num_topics =
  let tok_int what k = int_at r what sc.bounds.(2 * k) sc.bounds.((2 * k) + 1) in
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
  sc.ints <- grow sc.ints (subs_from + k);
  sc.ints.(0) <- vm;
  sc.ints.(1) <- topic;
  sc.ints.(2) <- k;
  for i = 0 to k - 1 do
    sc.ints.(subs_from + i) <- tok_int "subscriber" (i + 4)
  done;
  k

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
     [counts.(v)] is how many of v's pairs are placed (one spare entry
     at the end: the array becomes the selection's offsets). *)
  let followers =
    Arena.Transpose.create ~width:num_topics ~rows:num_subscribers
      (Workload.interests workload)
  in
  let placed = Bytes.make (Workload.num_pairs workload) '\000' in
  let counts = Array.make (num_subscribers + 1) 0 in
  let sc = { bounds = Array.make 64 0; ints = Array.make 64 0 } in
  while next_line r do
    let k = read_place r sc ~num_vms ~num_topics in
    let k = if k >= 0 then k else read_place_tokens r sc ~num_vms ~num_topics in
    let ints = sc.ints in
    let topic = ints.(1) in
    (* [Arena.Transpose.iter_run]'s merge, inline so that no callback
       runs per pair: each search starts past the previous match, and
       back at the topic's first follower when the run steps down. *)
    let lo = Arena.Transpose.start followers topic
    and hi = Arena.Transpose.stop followers topic in
    let hint = ref lo and prev = ref min_int in
    for i = subs_from to subs_from + k - 1 do
      let v = Array.unsafe_get ints i in
      if v <= !prev then hint := lo;
      prev := v;
      let slot = Arena.Transpose.find followers ~from:!hint ~hi v in
      if v < 0 || v >= num_subscribers then
        fail r (Printf.sprintf "subscriber %d outside the workload" v);
      if slot < 0 then
        fail r (Printf.sprintf "subscriber %d never subscribed to topic %d" v topic);
      if Bytes.unsafe_get placed slot <> '\000' then
        fail r (Printf.sprintf "pair (%d, %d) placed twice" topic v);
      Bytes.unsafe_set placed slot '\001';
      Array.unsafe_set counts v (Array.unsafe_get counts v + 1);
      hint := slot + 1
    done;
    Allocation.place a vms.(ints.(0)) ~topic
      ~ev:(Workload.event_rate workload topic)
      ~subscribers:ints ~from:subs_from ~count:k
  done;
  (* Reconstruct the selection implied by the placements. An exclusive
     prefix sum turns [counts] in place into each slice's start, one
     ascending-topic pass over [placed] scatters every placed pair into
     its subscriber's slice with those starts as the fill cursors (each
     cursor ends at the next slice's start), and one shift down makes
     the cursors the offsets. Each slice comes out id-sorted and its
     rate is summed left to right from 0., as the solver's selections
     are (for a subscriber with every interest placed, the same bits as
     its interest rate). *)
  let num_pairs = ref 0 in
  for v = 0 to num_subscribers - 1 do
    let n = counts.(v) in
    counts.(v) <- !num_pairs;
    num_pairs := !num_pairs + n
  done;
  let num_pairs = !num_pairs in
  let topics = Array.make num_pairs 0 in
  let selected_rate = Array.make num_subscribers 0. in
  for t = 0 to num_topics - 1 do
    let ev = Workload.event_rate workload t in
    for slot = Arena.Transpose.start followers t to Arena.Transpose.stop followers t - 1 do
      if Bytes.unsafe_get placed slot <> '\000' then begin
        let v = Arena.Transpose.get followers slot in
        let c = counts.(v) in
        topics.(c) <- t;
        counts.(v) <- c + 1;
        selected_rate.(v) <- selected_rate.(v) +. ev
      end
    done
  done;
  let offs = counts in
  for v = num_subscribers downto 1 do
    offs.(v) <- offs.(v - 1)
  done;
  offs.(0) <- 0;
  let outgoing_rate = ref 0. in
  for v = 0 to num_subscribers - 1 do
    outgoing_rate := !outgoing_rate +. selected_rate.(v)
  done;
  let selection =
    { Selection.offs; topics; selected_rate; num_pairs; outgoing_rate = !outgoing_rate }
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

(* The index of the first newline in [s.[i, n)], or [n]. *)
let rec line_end s i n =
  if i = n || String.unsafe_get s i = '\n' then i else line_end s (i + 1) n

let string_refill s =
  let next = ref 0 in
  fun r ->
    let n = String.length s in
    !next < n
    && begin
         let stop = line_end s !next n in
         r.pos <- !next;
         r.stop <- stop;
         next := stop + 1;
         true
       end

let input ~workload ic =
  parse ~workload { refill = channel_refill ic; text = ""; pos = 0; stop = 0; line_num = 0 }

let of_string ~workload s =
  parse ~workload { refill = string_refill s; text = s; pos = 0; stop = 0; line_num = 0 }

let load ~workload path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input ~workload ic)
