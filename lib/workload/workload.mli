(** The pub/sub workload model of the paper (§II-B).

    A workload is the static description the resource allocator consumes:
    a set of topics [T] with per-topic event rates [ev_t], and a set of
    subscribers [V] with interests [T_v ⊆ T]. Users of social pub/sub
    systems are both topics and subscribers, but the model keeps the two id
    spaces separate: topic ids are [0 .. num_topics - 1] and subscriber ids
    are [0 .. num_subscribers - 1].

    Event rates are in events per time unit (the paper uses events/min for
    the worked example and events/10-days for the traces); conversion to
    bytes and money happens in [Mcss_pricing]. *)

type topic = int
type subscriber = int

type t
(** An immutable workload. Construction validates the representation; all
    accessors are O(1) or return shared arrays that must not be mutated. *)

val sort_ids : int array -> unit
(** Sort ids ascending in place: the one int-row sort of the planning
    code (interest rows, selected topics, follower lists). Rows of up
    to {!sort_ids_cutoff} ids are insertion-sorted, longer ones go to
    [Array.sort Int.compare], so no row costs O(k^2). It allocates
    nothing and leaves the same array as [Array.sort compare]. *)

val sort_ids_sub : int array -> pos:int -> len:int -> unit
(** [sort_ids_sub a ~pos ~len] is {!sort_ids} on the slice [a.(pos) ..
    a.(pos + len - 1)], with the same cutoff; the rest of [a] is left
    alone. A slice longer than the cutoff that is not the whole array
    is sorted in a copy, so it allocates [len] words. Raises
    [Invalid_argument] if the slice leaves [a]. *)

val sort_ids_cutoff : int
(** The longest row {!sort_ids} insertion-sorts (32). *)

val create : event_rates:float array -> interests:topic array array -> t
(** [create ~event_rates ~interests] builds a workload with
    [Array.length event_rates] topics and [Array.length interests]
    subscribers. Raises [Invalid_argument] if any event rate is not
    strictly positive (the paper assumes [ev_t > 0]), any interest refers
    to an out-of-range topic, or a subscriber lists the same topic twice.
    Interest arrays are sorted by topic id internally. *)

val unsafe_create :
  ?followers:subscriber array array ->
  event_rates:float array ->
  interests:topic array array ->
  unit ->
  t
(** Like {!create}, but adopts the arrays without copying, sorting, or
    validating them. The caller warrants that every rate is strictly
    positive and every interest array is id-sorted, duplicate-free, in
    range, and never mutated afterwards — sharing arrays from an
    existing workload satisfies this. When [followers] is given it
    seeds the {!followers} cache and must be the exact per-topic
    inverse of [interests], each array sorted by subscriber id. Used by
    the incremental engine's delta application, where re-deriving the
    whole workload per small batch would dominate the apply cost. *)

val unsafe_evolve :
  t ->
  ?followers:subscriber array array ->
  event_rates:float array ->
  interests:topic array array ->
  touched:subscriber list ->
  unit ->
  t
(** [unsafe_evolve base ~event_rates ~interests ~touched ()] is
    [unsafe_create ?followers ~event_rates ~interests ()] for a
    workload grown from [base] in the append-only id space: at least
    [base]'s topics and subscribers, every base subscriber not in
    [touched] (a list without repeats) keeping its interest row, and new
    subscribers appended. [base] is not modified. It re-derives
    {!interest_rate} and {!num_pairs} only for [touched] subscribers, new
    subscribers and the base followers of topics whose rate differs from
    [base]'s — by the same left fold, so every value is bit-identical to
    a from-scratch build. Without cached base followers, a rate change
    re-derives every interest rate. The same unchecked contract as
    {!unsafe_create}. The incremental engine's [Delta.apply] builds
    every evolved workload with it. *)

(** Incremental construction for streaming trace generation: add one
    subscriber at a time, then {!Builder.finish}. Equivalent to
    accumulating all interest arrays and calling {!create}, minus the
    full second copy of the edge list that [create] makes — the builder
    takes ownership of each row (sorting it in place), so peak memory is
    one edge list, not two. *)
module Builder : sig
  type workload := t
  type t

  val create : ?capacity:int -> unit -> t
  (** [capacity] is the expected number of subscribers (the builder
      grows past it by doubling). *)

  val add : t -> topic array -> unit
  (** Append the next subscriber's interests. Takes ownership of the
      array: it is sorted in place and must not be mutated by the
      caller afterwards. Validation happens in {!finish}. *)

  val num_subscribers : t -> int

  val finish : t -> event_rates:float array -> workload
  (** Validate and seal, exactly like {!create} (same
      [Invalid_argument] conditions); [event_rates] is copied. The
      builder must not be reused afterwards (the finished workload
      shares its rows). *)
end

val cached_followers : t -> subscriber array array option
(** The followers index if it has been computed (or seeded) already,
    without forcing it. Lets {!unsafe_create} callers evolve the cache
    incrementally instead of discarding it. Do not mutate. *)

val num_topics : t -> int
val num_subscribers : t -> int

val num_pairs : t -> int
(** Total number of topic–subscriber pairs, [Σ_v |T_v|]. *)

val event_rate : t -> topic -> float
(** [ev_t]. *)

val event_rates : t -> float array
(** The full rate array, indexed by topic. Do not mutate. *)

val interests : t -> subscriber -> topic array
(** [T_v], sorted by topic id. Do not mutate. *)

val followers : t -> topic -> subscriber array
(** [V_t], the subscribers interested in [t], sorted by subscriber id.
    Derived from the interests on first use and cached. Do not mutate. *)

val num_followers : t -> topic -> int

val interest_rate : t -> subscriber -> float
(** [Σ_{t ∈ T_v} ev_t], the total rate a subscriber could ever receive. *)

val total_event_rate : t -> float
(** [Σ_t ev_t]. *)

val tau_v : t -> tau:float -> subscriber -> float
(** The subscriber-specific satisfaction threshold
    [τ_v = min τ (Σ_{t∈T_v} ev_t)] (§II-B). *)

val iter_pairs : t -> (topic -> subscriber -> unit) -> unit
(** Iterate over every (t, v) pair, grouped by subscriber. *)

val subscribers_with_interests : t -> subscriber list
(** Subscribers with at least one interest, ascending. *)

val sample_subscribers : Mcss_prng.Rng.t -> fraction:float -> t -> t
(** A sub-workload keeping each subscriber independently with the given
    probability (topics and rates untouched) — the paper evaluates on
    "about 10% / 1% samples" of its traces, and scaling experiments need
    the same knob. Requires [0 <= fraction <= 1]. Subscriber ids are
    re-densified in the original order. *)

val pp_summary : Format.formatter -> t -> unit
(** One-line summary: topic/subscriber/pair counts and total rate. *)
