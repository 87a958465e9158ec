(** A growable array (amortised O(1) push), used by the allocation data
    structures. OCaml 5.1 predates [Dynarray], so we carry our own minimal
    version. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] out of bounds. *)

val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit

val swap_remove : 'a t -> int -> unit
(** Remove the element at the index by moving the last element into its
    place — O(1), does not preserve order. *)

val find_index : ('a -> bool) -> 'a t -> int option
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val exists : ('a -> bool) -> 'a t -> bool
val to_array : 'a t -> 'a array
val of_array : 'a array -> 'a t
val copy : 'a t -> 'a t
val to_list : 'a t -> 'a list
