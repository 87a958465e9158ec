(** Flat-array storage for the solver's hot paths.

    Everything here is an unboxed [int array] / [float array] under the
    hood: no per-element records, no boxed floats, no tuple keys. The
    planning core keeps its per-pair and per-VM state in these so a
    full-scale solve (millions of pairs) costs O(pairs) flat words
    instead of O(pairs) heap objects — the difference between the GC
    walking a few slabs and walking tens of millions of boxes.

    All structures are single-writer: each is confined to one domain.
    {!map_chunks} is the one place the planning core spawns domains. *)

module Ibuf : sig
  (** A growable flat [int] buffer (amortised-O(1) push). *)

  type t

  val create : ?capacity:int -> unit -> t
  val length : t -> int
  val get : t -> int -> int
  val set : t -> int -> int -> unit
  val push : t -> int -> unit

  val data : t -> int array
  (** The backing store: its first [length t] entries are the contents,
      to be read, sorted or blitted in place. A push may replace it, so
      take it again after one. *)

  val clear : t -> unit
  (** Forget the contents; keeps the backing store. *)

  val to_array : t -> int array
end

module Fbuf : sig
  (** A growable flat [float] buffer. *)

  type t

  val create : ?capacity:int -> unit -> t
  val length : t -> int
  val get : t -> int -> float
  val set : t -> int -> float -> unit
  val add : t -> int -> float -> unit
  (** [add t i x] is [set t i (get t i +. x)] without double bounds
      checks. *)

  val push : t -> float -> unit
  val clear : t -> unit
  val sum : t -> float
  (** Left-to-right sum of the live elements. *)

  val to_array : t -> float array
end

module Stamp_set : sig
  (** Membership over a dense int universe [0..n) with O(1) [clear]:
      each slot stores the generation stamp at which it was last added,
      so clearing is one counter increment, never a pass over the
      array. The workhorse behind per-subscriber distinct-topic
      sampling and dirty-set tracking, replacing a fresh [Hashtbl] per
      subscriber. *)

  type t

  val create : int -> t
  (** Universe [0..n). *)

  val capacity : t -> int

  val ensure : t -> int -> unit
  (** Grow the universe to at least [n] (existing membership kept). *)

  val mem : t -> int -> bool
  val add : t -> int -> unit
  val clear : t -> unit
end

module Int_table : sig
  (** An open-addressing [int -> int] hash table on two flat arrays
      (linear probing, power-of-two capacity). Any [int] is a key
      except {!reserved_keys}, the two slot sentinels; [absent] is
      returned for missing keys so lookups never allocate an option. A key's home slot is the top bits of a
      multiplicative (Fibonacci) hash, so keys that differ only in
      their high bits — such as {!encode_pair} keys of one subscriber —
      still spread over the table. Deletions use tombstones; the table
      rehashes when live+dead slots pass the load factor. *)

  type t

  val absent : int
  (** [-1]; never a valid value. *)

  val create : ?capacity:int -> unit -> t
  val length : t -> int

  val find : t -> int -> int
  (** The value bound to the key, or {!absent}. *)

  val mem : t -> int -> bool

  val reserved_keys : int * int
  (** [(min_int, min_int + 1)]: the two keys a table cannot hold. {!find}
      and {!mem} report them absent and {!remove} ignores them. *)

  val set : t -> int -> int -> unit
  (** Bind (or rebind) the key. The value must not be {!absent} and the
      key must not be one of {!reserved_keys}; raises [Invalid_argument]
      otherwise. *)

  val remove : t -> int -> unit
  val reset : t -> unit
  val iter : (int -> int -> unit) -> t -> unit
  (** Iterate live bindings in unspecified order. *)

  val map_values_inplace : (int -> int) -> t -> unit
  (** Rewrite every binding's value in place. *)
end

val encode_pair : topic:int -> subscriber:int -> int
(** A (topic, subscriber) pair as one non-negative [int] key for
    {!Int_table} — no tuple allocation per lookup. Supports ids up to
    [2^31 - 1] each, far beyond the full published traces; raises
    [Invalid_argument] beyond that. *)

val decode_pair : int -> int * int
(** Inverse of {!encode_pair} (allocates; for iteration, not hot
    paths). *)

val map_chunks : domains:int -> int -> (int -> int -> int -> 'a) -> 'a array
(** [map_chunks ~domains n f] cuts [[0, n)] into [c = max 1 (min domains
    n)] ordered chunks of [ceil (n / c)] indices (the last ones may be
    shorter, or empty), calls [f i lo hi] on chunk [i] = [[lo, hi)], and
    returns the results in chunk order. Chunk 0 runs on the calling
    domain and every other chunk on a domain of its own, so [f] must
    write only state that its chunk owns. With [c = 1] nothing is
    spawned. If a chunk raises, the exception is re-raised after every
    domain has been joined. *)

module Transpose : sig
  (** The column-major view of int rows: for each value [x] in [0,
      width), the indices of the rows that hold [x], as one ascending
      run of a flat column. Built by one counting sort, O(rows + entries
      + width). The planning core transposes a selection's
      per-subscriber topic slices into per-topic subscriber runs, so a
      placed group [(topic, run)] is checked by
      one forward merge along column row [topic] instead of a binary
      search per pair in each subscriber's row.

      The column holds 4 bytes per entry, on a [Bigarray] outside the
      OCaml heap: a transient index neither is scanned by the GC nor
      raises its heap target. Row indices are therefore limited to
      [2^31]. *)

  type t

  val of_slices : ?domains:int -> width:int -> offs:int array -> int array -> t
  (** [of_slices ~width ~offs data] transposes the flat rows [data.(offs.(r))
      .. data.(offs.(r + 1) - 1)] for [r] in [0, Array.length offs - 1)
      — a selection's CSR layout ([Selection.t]), read in place. From
      each row it keeps the entries that lie in [0, width) and exceed
      every entry kept before them in the row (all of a strictly
      increasing, in-range row); the rest are dropped. Within each
      column row, row indices ascend. [domains] (default 1) counts and
      fills the rows in {!map_chunks} chunks, each writing its own part
      of every column row from per-chunk cursors laid out in chunk
      order, so the column is {e identical} at any domain count. Memory:
      the 4-byte column, [width + 1] offsets and [width] cursors per
      chunk. Raises [Invalid_argument] on a negative width, an empty
      [offs], offsets that descend or leave [data], or more than [2^31]
      rows. *)

  val length : t -> int
  (** Entries kept, over all column rows. *)

  val start : t -> int -> int
  val stop : t -> int -> int
  (** Column row [x] is the slots [[start t x, stop t x)]. *)

  val get : t -> int -> int
  (** The row index in a slot. *)

  val copy_row : t -> int -> int array -> int array
  (** [copy_row t x buf] copies column row [x] to the front of [buf], or
      of a fresh array (twice as long, or just long enough) when [buf]
      is shorter than the column row, and returns the array written.
      Packers reuse one such scratch to hand a topic's group to
      [Allocation.place] as an [int array]. *)

  val find : t -> from:int -> hi:int -> int -> int
  (** [find t ~from ~hi r] is the slot in [[from, hi)] holding [r], or
      [-1]. The slots [[from, hi)] must lie in one column row (so they
      ascend). The search gallops from [from] (probes at [from],
      [from + 2], [from + 6], [from + 14], ...) and then bisects, so
      looking up the rows of an ascending run in turn, each from just
      past the previous match, costs one forward merge along the column
      row ({!iter_run} does this). [find] never looks before [from],
      and a lookup allocates nothing.
      Raises [Invalid_argument] if [[from, hi)] leaves the column. *)

  val iter_run : t -> int -> int array -> int -> (int -> int -> unit) -> unit
  (** [iter_run t x run n f] calls [f r slot] for each [r] of [run.(0)
      .. run.(n - 1)] in order, where [slot] is [r]'s slot in column row
      [x], or [-1] if the row lacks [r]. Each search starts just past
      the previous match, and back at [start t x] whenever the run
      steps down (or repeats an entry), so an ascending run costs one
      forward merge along the column row and any other run is still
      answered exactly. Apart from what [f] does, it allocates nothing
      per lookup. *)
end
