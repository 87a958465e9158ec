module Workload = Mcss_workload.Workload

exception Parse_error of string

(* Plans run to millions of pairs, so the writer renders each int by
   hand, straight into the output bytes. One walk of the fleet gathers
   every [place] line and its width, so the text is allocated once at
   its final size; each line is then written backward from its end, so
   no int's digits are counted twice. *)

(* The decimal digits of [n], which has at least [d] of them, with [p]
   = 10^d; an int has at most 19. *)
let rec digits_from n p d = if d = 19 || n < p then d else digits_from n (p * 10) (d + 1)

(* The decimal digits of [n >= 0]; below 10^7, as every id of a
   planned workload is, one comparison per power of ten and no branch. *)
let digits_of n =
  if n < 10000000 then
    1 + Bool.to_int (n >= 10) + Bool.to_int (n >= 100) + Bool.to_int (n >= 1000)
    + Bool.to_int (n >= 10000) + Bool.to_int (n >= 100000) + Bool.to_int (n >= 1000000)
  else digits_from n 100000000 8

(* The bytes [' '] then [n] take. *)
let spaced_width n = if n < 0 then 1 + String.length (string_of_int n) else 1 + digits_of n

(* Write [n >= 0]'s digits to end just before [stop]; the first one's
   index. *)
let rec put_digits b stop n =
  let i = stop - 1 in
  Bytes.unsafe_set b i (Char.unsafe_chr (48 + (n mod 10)));
  if n >= 10 then put_digits b i (n / 10) else i

(* Write [' '] then [n] to end just before [stop]; the space's index. *)
let put_int b stop n =
  if n < 0 then begin
    let s = " " ^ string_of_int n in
    let i = stop - String.length s in
    Bytes.blit_string s 0 b i (String.length s);
    i
  end
  else begin
    let i = put_digits b stop n - 1 in
    Bytes.unsafe_set b i ' ';
    i
  end

let header a =
  Printf.sprintf "mcss-plan 1\ncapacity %.17g\nvms %d\n" (Allocation.capacity a)
    (Allocation.num_vms a)

(* The [place] lines of a range of VMs, gathered by one walk of their
   groups: each line's VM id, topic, run, count and width in bytes. *)
type lines = {
  ids : int array;
  topics : int array;
  runs : int array array;
  lens : int array;
  widths : int array;
}

(* The lines of VMs [lo .. hi - 1]; their total width. *)
let lines_of a lo hi =
  let num_lines = ref 0 in
  for id = lo to hi - 1 do
    num_lines := !num_lines + Allocation.num_topics_on (Allocation.vm_at a id)
  done;
  let n = !num_lines in
  let l =
    {
      ids = Array.make n 0;
      topics = Array.make n 0;
      runs = Array.make n [||];
      lens = Array.make n 0;
      widths = Array.make n 0;
    }
  in
  let k = ref 0 and total = ref 0 in
  for id = lo to hi - 1 do
    let fixed = 6 + spaced_width id in
    Allocation.iter_groups (Allocation.vm_at a id) (fun topic run n ->
        let w = ref (fixed + spaced_width topic + spaced_width n) in
        for i = 0 to n - 1 do
          w := !w + spaced_width (Array.unsafe_get run i)
        done;
        l.ids.(!k) <- id;
        l.topics.(!k) <- topic;
        l.runs.(!k) <- run;
        l.lens.(!k) <- n;
        l.widths.(!k) <- !w;
        total := !total + !w;
        incr k)
  done;
  (l, !total)

(* Write [l] from [pos], each line backward from its end. *)
let put_lines b pos l =
  let stop = ref pos in
  for k = 0 to Array.length l.ids - 1 do
    stop := !stop + l.widths.(k);
    Bytes.unsafe_set b (!stop - 1) '\n';
    let run = l.runs.(k) and p = ref (!stop - 1) in
    for i = l.lens.(k) - 1 downto 0 do
      p := put_int b !p (Array.unsafe_get run i)
    done;
    let p = put_int b (put_int b (put_int b !p l.lens.(k)) l.topics.(k)) l.ids.(k) in
    Bytes.blit_string "place" 0 b (p - 5) 5
  done

let output oc a =
  output_string oc (header a);
  let b = ref Bytes.empty in
  for id = 0 to Allocation.num_vms a - 1 do
    let l, n = lines_of a id (id + 1) in
    if Bytes.length !b < n then b := Bytes.create (max n (2 * Bytes.length !b));
    put_lines !b 0 l;
    Stdlib.output oc !b 0 n
  done

let to_string a =
  let head = header a in
  let l, n = lines_of a 0 (Allocation.num_vms a) in
  let b = Bytes.create (String.length head + n) in
  Bytes.blit_string head 0 b 0 (String.length head);
  put_lines b (String.length head) l;
  Bytes.unsafe_to_string b

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

(* The index of [x] in the id-sorted [row.(lo) .. row.(hi - 1)], or
   [-1]. *)
let rec find_sorted (row : int array) x lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) / 2 in
    let y = Array.unsafe_get row mid in
    if y = x then mid else if y < x then find_sorted row x (mid + 1) hi else find_sorted row x lo mid

(* Raise the {!Parse_error} of the first faulty pair in reading order.
   The decoder's checks only tell {e whether} a fault exists, so on
   invalid input this replays the logged [place] lines ([log]: each
   line's number, VM, topic and count) in order, reads each line's
   subscribers back from its group's run in the fleet (lines append to
   their group's run), and checks every pair for range, then interest
   in the topic, then an earlier placement: one byte of marks per
   workload pair, at the pair's place in the subscriber's row. *)
let raise_first_fault ~workload a log =
  let num_subscribers = Workload.num_subscribers workload in
  let row_start = Array.make (num_subscribers + 1) 0 in
  for v = 0 to num_subscribers - 1 do
    row_start.(v + 1) <- row_start.(v) + Array.length (Workload.interests workload v)
  done;
  let placed = Bytes.make row_start.(num_subscribers) '\000' in
  let runs = Hashtbl.create 64 in
  for e = 0 to (Arena.Ibuf.length log / 4) - 1 do
    let line = Arena.Ibuf.get log (4 * e)
    and vm = Arena.Ibuf.get log ((4 * e) + 1)
    and topic = Arena.Ibuf.get log ((4 * e) + 2)
    and k = Arena.Ibuf.get log ((4 * e) + 3) in
    let fail msg = raise (Parse_error (Printf.sprintf "line %d: %s" line msg)) in
    let run, next =
      match Hashtbl.find_opt runs (vm, topic) with
      | Some r -> r
      | None ->
          let on = Allocation.subscribers_of_topic_on (Allocation.vm_at a vm) topic in
          let r = (Array.of_list on, ref 0) in
          Hashtbl.add runs (vm, topic) r;
          r
    in
    for i = !next to !next + k - 1 do
      let v = run.(i) in
      if v < 0 || v >= num_subscribers then
        fail (Printf.sprintf "subscriber %d outside the workload" v);
      let row = Workload.interests workload v in
      let at = find_sorted row topic 0 (Array.length row) in
      if at < 0 then fail (Printf.sprintf "subscriber %d never subscribed to topic %d" v topic);
      let slot = row_start.(v) + at in
      if Bytes.get placed slot <> '\000' then
        fail (Printf.sprintf "pair (%d, %d) placed twice" topic v);
      Bytes.set placed slot '\001'
    done;
    next := !next + k
  done

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
  (* [counts.(v + 1)] is how many of v's pairs are placed; the array
     becomes the selection's offsets. [log] holds each [place] line's
     number, VM, topic and count, for {!raise_first_fault}. *)
  let counts = Array.make (num_subscribers + 1) 0 in
  let log = Arena.Ibuf.create () in
  (* Called once a fault has been seen, so the replay raises. *)
  let fault_found () =
    raise_first_fault ~workload a log;
    failwith "Plan_io: a fault the replay does not find"
  in
  let sc = { bounds = Array.make 64 0; ints = Array.make 64 0 } in
  while next_line r do
    let k = read_place r sc ~num_vms ~num_topics in
    let k =
      if k >= 0 then k
      else
        match read_place_tokens r sc ~num_vms ~num_topics with
        | k -> k
        | exception (Parse_error _ as e) ->
            (* A fault on an earlier line is found first. *)
            raise_first_fault ~workload a log;
            raise e
    in
    let ints = sc.ints in
    let in_range = ref true in
    for i = subs_from to subs_from + k - 1 do
      let v = Array.unsafe_get ints i in
      if v >= 0 && v < num_subscribers then
        Array.unsafe_set counts (v + 1) (Array.unsafe_get counts (v + 1) + 1)
      else in_range := false
    done;
    Allocation.place a vms.(ints.(0)) ~topic:ints.(1)
      ~ev:(Workload.event_rate workload ints.(1))
      ~subscribers:ints ~from:subs_from ~count:k;
    Arena.Ibuf.push log r.line_num;
    Arena.Ibuf.push log ints.(0);
    Arena.Ibuf.push log ints.(1);
    Arena.Ibuf.push log k;
    if not !in_range then fault_found ()
  done;
  (* Reconstruct the selection implied by the placements, subscriber by
     subscriber. An exclusive prefix sum turns [counts.(v + 1)] into v's
     slice start, one walk of the fleet's groups scatters every placed
     topic into its subscriber's slice with those starts as the fill
     cursors (each cursor ends at the next slice's start, so [counts]
     is then the offsets), and each slice is sorted. One merge per
     slice against the id-sorted row [T_v] then finds whether any pair
     is outside [T_v] or placed twice, and sums the slice's rate left to
     right from 0. in ascending topic order, as the solver's selections
     are (for a subscriber with every interest placed, the same bits as
     its interest rate). *)
  let num_pairs = ref 0 in
  for v = 1 to num_subscribers do
    let n = counts.(v) in
    counts.(v) <- !num_pairs;
    num_pairs := !num_pairs + n
  done;
  let num_pairs = !num_pairs in
  let topics = Array.make num_pairs 0 in
  Allocation.iter_vms a (fun vm ->
      Allocation.iter_groups vm (fun topic run n ->
          for i = 0 to n - 1 do
            let c = Array.unsafe_get counts (Array.unsafe_get run i + 1) in
            Array.unsafe_set topics c topic;
            Array.unsafe_set counts (Array.unsafe_get run i + 1) (c + 1)
          done));
  let offs = counts in
  let ev = Workload.event_rates workload in
  let selected_rate = Array.make num_subscribers 0. in
  let outgoing_rate = ref 0. and clean = ref true in
  for v = 0 to num_subscribers - 1 do
    let lo = offs.(v) and hi = offs.(v + 1) in
    if hi - lo > 1 then Workload.sort_ids_sub topics ~pos:lo ~len:(hi - lo);
    let row = Workload.interests workload v in
    let j = ref 0 and prev = ref (-1) and rate = ref 0. in
    for i = lo to hi - 1 do
      let t = Array.unsafe_get topics i in
      while !j < Array.length row && Array.unsafe_get row !j < t do
        incr j
      done;
      if t = !prev || !j = Array.length row || Array.unsafe_get row !j <> t then
        clean := false;
      prev := t;
      rate := !rate +. Array.unsafe_get ev t
    done;
    selected_rate.(v) <- !rate;
    outgoing_rate := !outgoing_rate +. !rate
  done;
  if not !clean then fault_found ();
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
