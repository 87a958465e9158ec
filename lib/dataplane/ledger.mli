(** A broker's delivery ledger — the measured side of reconciliation.
    Every broker process keeps one and serves it over the [ledger]
    control verb; the pump snapshots ledgers before and after a run and
    diffs them, so several runs can share one long-lived fleet.

    Counter semantics (all monotonic since broker boot):

    - [totals.published] — publication copies that arrived on the pub
      socket (the publisher sends one copy per broker hosting the
      topic, so fleet-wide this is ≥ the schedule's event count);
    - [totals.handoffs] — copies that matched at least one locally
      homed pair (the live analogue of the simulator's [vm_ingress]);
    - [totals.delivered] — delivery copies enqueued to attached sinks,
      one per (event, subscriber);
    - [totals.dropped] — copies dropped instead: [dropped_overflow]
      (sink's bounded buffer was full) + [dropped_unattached] (pair
      homed here but no sink attached for it). *)

module Json := Mcss_json.Json

type t = {
  vm : int;  (** Broker id, cluster-scoped. *)
  pairs : int;  (** (topic, subscriber) pairs currently homed here. *)
  draining : bool;
  totals : Mcss_report.Delivery.totals;
  dropped_overflow : int;
  dropped_unattached : int;
  rehomed_in : int;  (** Pairs added by [rehome] since boot. *)
  rehomed_out : int;  (** Pairs removed by [rehome] since boot. *)
  queue_peak_bytes : int;
      (** High-water mark of bytes buffered towards sinks. *)
  max_queue_delay : float;
      (** The queue model's worst (depart - arrival). Not in seconds:
          arrivals are wall-clock seconds, but each handoff is charged
          [(fanout + 1) / BC] horizons of work, so the figure mixes the
          two units and means something only relative to other runs of
          the same fleet. *)
}

val zero : vm:int -> t

val fields : t -> (string * Json.t) list
(** The ledger as reply fields for an [ok] response. *)

val of_json : Json.t -> (t, string) result
(** Decode a [ledger] reply (tolerates extra fields). *)

val diff : before:t -> after:t -> t
(** Counters subtracted ([after - before]); gauges ([pairs],
    [draining], peaks) taken from [after]. The window view one pump run
    contributes. *)

val sum_totals : t list -> Mcss_report.Delivery.totals

val pp : Format.formatter -> t -> unit
