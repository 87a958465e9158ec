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

(* Rank of [t] in the id-sorted row [row], or [-1]. *)
let rank row t =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let x = Array.unsafe_get row mid in
      if x = t then mid else if x < t then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length row)

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
  (* Pair (t, v) of the workload owns byte [offs.(v) + rank of t in
     T_v] of [placed]; [counts.(v)] is how many of v's pairs are placed. *)
  let offs =
    Arena.Csr.offsets_of_counts
      (Array.init num_subscribers (fun v -> Array.length (Workload.interests workload v)))
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
    for i = 0 to k - 1 do
      let v = sc.subs.(i) in
      if v < 0 || v >= num_subscribers then
        fail r (Printf.sprintf "subscriber %d outside the workload" v);
      let j = rank (Workload.interests workload v) topic in
      if j < 0 then
        fail r (Printf.sprintf "subscriber %d never subscribed to topic %d" v topic);
      let slot = offs.(v) + j in
      if Bytes.get placed slot <> '\000' then
        fail r (Printf.sprintf "pair (%d, %d) placed twice" topic v);
      Bytes.set placed slot '\001';
      counts.(v) <- counts.(v) + 1
    done;
    Allocation.place a vms.(vm) ~topic
      ~ev:(Workload.event_rate workload topic)
      ~subscribers:sc.subs ~from:0 ~count:k
  done;
  (* Reconstruct the selection implied by the placements: each
     subscriber's placed topics, in interest (= id) order. *)
  let chosen =
    Array.init num_subscribers (fun v ->
        let row = Array.make counts.(v) 0 in
        if counts.(v) > 0 then begin
          let n = ref 0 in
          Array.iteri
            (fun j t ->
              if Bytes.get placed (offs.(v) + j) <> '\000' then begin
                row.(!n) <- t;
                incr n
              end)
            (Workload.interests workload v)
        end;
        row)
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
      num_pairs = Array.fold_left ( + ) 0 counts;
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

let load ~workload path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input ~workload ic)
