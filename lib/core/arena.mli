(** Flat-array storage for the solver's hot paths.

    Everything here is an unboxed [int array] / [float array] under the
    hood: no per-element records, no boxed floats, no tuple keys. The
    planning core keeps its per-pair and per-VM state in these so a
    full-scale solve (millions of pairs) costs O(pairs) flat words
    instead of O(pairs) heap objects — the difference between the GC
    walking a few slabs and walking tens of millions of boxes.

    All structures are single-writer: they are either confined to one
    domain or handed out as disjoint slices (see {!Csr.build_rows}). *)

module Ibuf : sig
  (** A growable flat [int] buffer (amortised-O(1) push). *)

  type t

  val create : ?capacity:int -> unit -> t
  val length : t -> int
  val get : t -> int -> int
  val set : t -> int -> int -> unit
  val push : t -> int -> unit

  val push_of : t -> src:t -> int -> unit
  (** [push_of t ~src i] appends [src]'s [i]-th element. *)

  val clear : t -> unit
  (** Forget the contents; keeps the backing store. *)

  val sub : t -> pos:int -> len:int -> int array
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
  val push_of : t -> src:t -> int -> unit
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

module Csr : sig
  (** Compressed sparse rows: a partition of [data] into [rows]
      contiguous slices. The canonical flat form of "per-topic
      subscriber lists" and "per-subscriber topic lists". *)

  type t = private { offs : int array;  (** length [rows + 1] *) data : int array }

  val rows : t -> int
  val row_length : t -> int -> int
  val row : t -> int -> int array
  (** A fresh copy of the row (for callers that need a plain array). *)

  val iter_row : t -> int -> (int -> unit) -> unit

  val build_rows :
    rows:int ->
    counts:int array ->
    fill:(write:(row:int -> int -> unit) -> unit) ->
    t
  (** Build from known row sizes. [fill] must call [write ~row x]
      exactly [counts.(row)] times per row; values land in call order
      within each row. Raises [Invalid_argument] if any row is over- or
      under-filled. *)

  val offsets_of_counts : int array -> int array
  (** Exclusive prefix sums, length [n + 1]. *)
end
