module Ibuf = struct
  type t = { mutable data : int array; mutable len : int }

  let create ?(capacity = 0) () = { data = Array.make (max capacity 0) 0; len = 0 }
  let length t = t.len

  let check t i =
    if i < 0 || i >= t.len then
      invalid_arg (Printf.sprintf "Arena.Ibuf: index %d out of %d" i t.len)

  let get t i = check t i; t.data.(i)
  let set t i x = check t i; t.data.(i) <- x

  let grow t =
    let cap = Array.length t.data in
    let data = Array.make (if cap = 0 then 16 else 2 * cap) 0 in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data

  let push t x =
    if t.len = Array.length t.data then grow t;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let data t = t.data
  let clear t = t.len <- 0
  let to_array t = Array.sub t.data 0 t.len
end

module Fbuf = struct
  type t = { mutable data : float array; mutable len : int }

  let create ?(capacity = 0) () = { data = Array.make (max capacity 0) 0.; len = 0 }
  let length t = t.len

  let check t i =
    if i < 0 || i >= t.len then
      invalid_arg (Printf.sprintf "Arena.Fbuf: index %d out of %d" i t.len)

  let get t i = check t i; t.data.(i)
  let set t i x = check t i; t.data.(i) <- x
  let add t i x = check t i; t.data.(i) <- t.data.(i) +. x

  let grow t =
    let cap = Array.length t.data in
    let data = Array.make (if cap = 0 then 16 else 2 * cap) 0. in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data

  let push t x =
    if t.len = Array.length t.data then grow t;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let clear t = t.len <- 0

  let sum t =
    let acc = ref 0. in
    for i = 0 to t.len - 1 do
      acc := !acc +. t.data.(i)
    done;
    !acc

  let to_array t = Array.sub t.data 0 t.len
end

module Stamp_set = struct
  type t = { mutable stamps : int array; mutable gen : int }

  (* gen starts at 1 so a fresh 0-filled slab means "nothing present". *)
  let create n =
    if n < 0 then invalid_arg "Arena.Stamp_set.create: negative universe";
    { stamps = Array.make n 0; gen = 1 }

  let capacity t = Array.length t.stamps

  let ensure t n =
    if n > Array.length t.stamps then begin
      let fresh = Array.make (max n (2 * Array.length t.stamps)) 0 in
      Array.blit t.stamps 0 fresh 0 (Array.length t.stamps);
      t.stamps <- fresh
    end

  let mem t i = t.stamps.(i) = t.gen
  let add t i = t.stamps.(i) <- t.gen
  let clear t = t.gen <- t.gen + 1
end

module Int_table = struct
  (* keys: slot state. empty = min_int, tombstone = min_int + 1, else the
     key itself. vals.(i) is meaningful only for live slots. *)
  let empty_slot = min_int
  let tombstone = min_int + 1
  let absent = -1
  let reserved_keys = (empty_slot, tombstone)

  type t = {
    mutable keys : int array;
    mutable vals : int array;
    mutable shift : int;  (* 63 - log2 (capacity) *)
    mutable live : int;  (* live bindings *)
    mutable used : int;  (* live + tombstones *)
  }

  let next_pow2 n =
    let rec go p = if p >= n then p else go (2 * p) in
    go 16

  let shift_of cap =
    let rec log2 c acc = if c <= 1 then acc else log2 (c lsr 1) (acc + 1) in
    63 - log2 cap 0

  let create ?(capacity = 16) () =
    let cap = next_pow2 (max capacity 16) in
    {
      keys = Array.make cap empty_slot;
      vals = Array.make cap 0;
      shift = shift_of cap;
      live = 0;
      used = 0;
    }

  let length t = t.live

  (* Fibonacci hashing: the slot is the top log2(capacity) bits of the
     63-bit product, which every key bit reaches. (The low bits of the
     product only depend on the key's low bits, so keys differing only
     in high bits — [encode_pair]'s topic — would share a probe run.) *)
  let slot_of t key = (key * 0x2545F4914F6CDD1D) lsr t.shift

  let rec probe_find t key i =
    let k = t.keys.(i) in
    if k = key then i
    else if k = empty_slot then -1
    else probe_find t key ((i + 1) land (Array.length t.keys - 1))

  (* The two sentinels are the two smallest ints. *)
  let is_sentinel key = key <= tombstone

  let find t key =
    if is_sentinel key then absent
    else
      let i = probe_find t key (slot_of t key) in
      if i < 0 then absent else t.vals.(i)

  let mem t key = find t key <> absent

  let rec insert_fresh t key v i =
    let k = t.keys.(i) in
    if k = empty_slot || k = tombstone then begin
      if k = empty_slot then t.used <- t.used + 1;
      t.keys.(i) <- key;
      t.vals.(i) <- v;
      t.live <- t.live + 1
    end
    else insert_fresh t key v ((i + 1) land (Array.length t.keys - 1))

  let rehash t cap =
    let old_keys = t.keys and old_vals = t.vals in
    t.keys <- Array.make cap empty_slot;
    t.vals <- Array.make cap 0;
    t.shift <- shift_of cap;
    t.live <- 0;
    t.used <- 0;
    Array.iteri
      (fun i k ->
        if k <> empty_slot && k <> tombstone then
          insert_fresh t k old_vals.(i) (slot_of t k))
      old_keys

  let maybe_grow t =
    let cap = Array.length t.keys in
    if 4 * (t.used + 1) > 3 * cap then
      (* Grow only when mostly live; a tombstone-heavy table rehashes in
         place to shed the dead slots. *)
      rehash t (if 2 * t.live >= t.used then 2 * cap else cap)

  let set t key v =
    if is_sentinel key then invalid_arg "Arena.Int_table.set: reserved key";
    if v = absent then invalid_arg "Arena.Int_table.set: reserved value";
    let i = probe_find t key (slot_of t key) in
    if i >= 0 then t.vals.(i) <- v
    else begin
      maybe_grow t;
      insert_fresh t key v (slot_of t key)
    end

  let remove t key =
    if not (is_sentinel key) then begin
      let i = probe_find t key (slot_of t key) in
      if i >= 0 then begin
        t.keys.(i) <- tombstone;
        t.live <- t.live - 1
      end
    end

  let reset t =
    Array.fill t.keys 0 (Array.length t.keys) empty_slot;
    t.live <- 0;
    t.used <- 0

  let iter f t =
    Array.iteri
      (fun i k -> if k <> empty_slot && k <> tombstone then f k t.vals.(i))
      t.keys

  let map_values_inplace f t =
    Array.iteri
      (fun i k -> if k <> empty_slot && k <> tombstone then t.vals.(i) <- f t.vals.(i))
      t.keys
end

let pair_limit = 1 lsl 31

let encode_pair ~topic ~subscriber =
  if topic < 0 || subscriber < 0 || topic >= pair_limit || subscriber >= pair_limit
  then invalid_arg "Arena.encode_pair: id out of range";
  (topic lsl 31) lor subscriber

let decode_pair key = (key lsr 31, key land (pair_limit - 1))

(* Chunk 0 runs on the calling domain. Its exception, if any, is
   raised only after every spawned domain has been joined. *)
let map_chunks ~domains n f =
  let chunks = max 1 (min domains n) in
  let size = (n + chunks - 1) / chunks in
  let run c = f c (min n (c * size)) (min n ((c + 1) * size)) in
  let spawned = List.init (chunks - 1) (fun c -> Domain.spawn (fun () -> run (c + 1))) in
  let first = match run 0 with x -> Ok x | exception e -> Error e in
  let rest = List.map Domain.join spawned in
  match first with Ok x -> Array.of_list (x :: rest) | Error e -> raise e

module Transpose = struct
  type col = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
  type t = { offs : int array; col : col }

  let id_limit = 1 lsl 31

  (* An entry is kept when it lies in [0, width) and exceeds every
     entry kept before it in its row: the running maximum [last] starts
     at -1. The per-row passes are top-level with every input an
     argument, so their loops read no closure environment. *)
  let count_slice ~width count a lo hi =
    let last = ref (-1) in
    for i = lo to hi - 1 do
      let x = Array.unsafe_get a i in
      if x > !last && x < width then begin
        last := x;
        count.(x) <- count.(x) + 1
      end
    done

  let fill_slice ~width cur (col : col) r a lo hi =
    let last = ref (-1) and r32 = Int32.of_int r in
    for i = lo to hi - 1 do
      let x = Array.unsafe_get a i in
      if x > !last && x < width then begin
        last := x;
        let j = cur.(x) in
        cur.(x) <- j + 1;
        Bigarray.Array1.unsafe_set col j r32
      end
    done

  (* The rows are the slices [data.(offs.(r)) .. data.(offs.(r + 1) - 1)]. *)
  let count_rows (offs, data) ~width count lo hi =
    for r = lo to hi - 1 do
      count_slice ~width count data offs.(r) offs.(r + 1)
    done

  let fill_rows (offs, data) ~width cur col lo hi =
    for r = lo to hi - 1 do
      fill_slice ~width cur col r data offs.(r) offs.(r + 1)
    done

  (* Counting sort over ordered row chunks, one per domain. Each chunk
     counts its kept entries per column row; the counts then become the
     chunk's write cursors in place, laid out in chunk order within each
     column row (chunk c starts where the chunks before it end), and
     each chunk fills its own part of every column row. Rows therefore
     ascend within each column row, and the column is the same at any
     domain count. *)
  let of_slices ?(domains = 1) ~width ~offs data =
    let rows = Array.length offs - 1 in
    if width < 0 then invalid_arg "Arena.Transpose.of_slices: negative width";
    if rows < 0 then invalid_arg "Arena.Transpose.of_slices: empty offsets";
    if rows > id_limit then invalid_arg "Arena.Transpose.of_slices: row index beyond 2^31";
    if offs.(0) < 0 || offs.(rows) > Array.length data then
      invalid_arg "Arena.Transpose.of_slices: offsets leave the data";
    for r = 0 to rows - 1 do
      if offs.(r + 1) < offs.(r) then
        invalid_arg "Arena.Transpose.of_slices: offsets descend"
    done;
    let src = (offs, data) in
    let cursors =
      map_chunks ~domains rows (fun _ lo hi ->
          let count = Array.make width 0 in
          count_rows src ~width count lo hi;
          count)
    in
    let offs = Array.make (width + 1) 0 in
    let total = ref 0 in
    for x = 0 to width - 1 do
      offs.(x) <- !total;
      for c = 0 to Array.length cursors - 1 do
        let cur = cursors.(c) in
        let n = cur.(x) in
        cur.(x) <- !total;
        total := !total + n
      done
    done;
    offs.(width) <- !total;
    let col = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout !total in
    ignore
      (map_chunks ~domains rows (fun c lo hi -> fill_rows src ~width cursors.(c) col lo hi)
        : unit array);
    { offs; col }

  let length t = Bigarray.Array1.dim t.col
  let start t x = t.offs.(x)
  let stop t x = t.offs.(x + 1)
  let get t j = Int32.to_int (Bigarray.Array1.get t.col j)

  let copy_row t x buf =
    let lo = start t x and n = stop t x - start t x in
    let buf = if Array.length buf >= n then buf else Array.make (max n (2 * Array.length buf)) 0 in
    for i = 0 to n - 1 do
      Array.unsafe_set buf i (Int32.to_int (Bigarray.Array1.unsafe_get t.col (lo + i)))
    done;
    buf

  (* The bisection and the gallop behind [find], top-level with every
     input an argument, so that a lookup builds no closure. *)
  let rec bsearch (col : col) x lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let y = Int32.to_int (Bigarray.Array1.unsafe_get col mid) in
      if y = x then mid else if y < x then bsearch col x (mid + 1) hi else bsearch col x lo mid

  (* Probe from, from + 2, from + 6, from + 14, ...: every entry in
     [from, lo) is below [x]. *)
  let rec gallop (col : col) x hi lo step =
    let i = lo + step - 1 in
    if i >= hi then bsearch col x lo hi
    else
      let y = Int32.to_int (Bigarray.Array1.unsafe_get col i) in
      if y < x then gallop col x hi (i + 1) (2 * step)
      else if y = x then i
      else bsearch col x lo i

  let find t ~from ~hi x =
    if from < 0 || hi > Bigarray.Array1.dim t.col then
      invalid_arg "Arena.Transpose.find: range out of bounds";
    gallop t.col x hi from 1

  let iter_run t x run n f =
    let lo = start t x and hi = stop t x in
    let hint = ref lo and prev = ref min_int in
    for i = 0 to n - 1 do
      let r = run.(i) in
      if r <= !prev then hint := lo;
      prev := r;
      let slot = find t ~from:!hint ~hi r in
      if slot >= 0 then hint := slot + 1;
      f r slot
    done
end
