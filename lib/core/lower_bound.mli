(** The cost lower bound of Theorem A.1 / Alg. 5: any solution to an MCSS
    instance costs at least

    [C1(⌈Σ_v max(τ_v, min_{t∈T_v} ev_t) / BC⌉) + C2(Σ_v max(τ_v, min_{t∈T_v} ev_t))]

    — every subscriber needs at least [τ_v] worth of delivery, and when
    even the subscriber's cheapest topic exceeds [τ_v], at least that
    topic's whole rate must be delivered (pairs are all-or-nothing).

    The bound is not necessarily tight: it ignores incoming bandwidth and
    packing constraints entirely. Subscribers without interests
    contribute zero. *)

type t = {
  bandwidth : float;  (** Lower bound on total bandwidth, event units. *)
  vms : int;  (** Lower bound on the number of VMs. *)
  cost : float;  (** [C1 vms + C2 bandwidth]. *)
}

val compute : Problem.t -> t

val gap_pct : cost:float -> t -> float
(** The optimality gap of a plan costing [cost] over the bound, in
    percent: [(cost - lb.cost) / lb.cost · 100]. A zero bound (an
    instance with nothing to deliver) gives [0.], not a division by
    zero. *)
