(** Workload statistics backing the paper's trace analysis (Appendix D,
    Figs. 8–12): degree distributions, complementary CDFs, subscription
    cardinality, and conditional means. *)

val follower_counts : Workload.t -> int array
(** [|V_t|] per topic (the topic's "#followers"). *)

val interest_counts : Workload.t -> int array
(** [|T_v|] per subscriber (the subscriber's "#followings"). *)

val ccdf_int : int array -> (int * float) list
(** Complementary CDF of an integer sample: for each distinct value [x]
    (ascending), the fraction of samples strictly greater than [x], matching
    the paper's definition CCDF(x) = P(X > x). The empty array yields []. *)

val ccdf_float : float array -> (float * float) list
(** Same for float samples. *)

val subscription_cardinality : Workload.t -> Workload.subscriber -> float
(** SC_v = 100 · (Σ_{t∈T_v} ev_t) / (Σ_{t∈T} ev_t), the percentage of all
    traffic a subscriber receives (§Appendix D, from [6]). *)

val subscription_cardinalities : Workload.t -> float array

val mean_rate_by_followers : Workload.t -> (int * float) list
(** For each distinct follower count (ascending), the mean event rate of
    topics with that many followers — the data behind Fig. 10. *)

val mean_sc_by_interests : Workload.t -> (int * float) list
(** For each distinct interest count (ascending), the mean subscription
    cardinality of subscribers with that many interests — Fig. 12. Only
    subscribers with at least one interest are included. *)

val quantile : float array -> float -> float
(** [quantile xs q] for [0 <= q <= 1]: linear-interpolation quantile of the
    sample. Raises [Invalid_argument] on the empty array or out-of-range
    [q]. Does not mutate its argument. *)

val nearest_rank : float array -> float -> float
(** [nearest_rank xs p]: the nearest-rank percentile, i.e. the
    [ceil (p·n)]-th smallest of the [n] samples, with the rank clamped
    to [[1, n]] (so [p = 0] gives the minimum and [p = 1] the maximum).
    [0.] on the empty sample. Does not mutate its argument. Unlike
    {!quantile} it never interpolates: the result is always a sample. *)

type summary = {
  count : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val summarize : float array -> summary
(** Basic descriptive statistics; raises [Invalid_argument] on empty. *)
