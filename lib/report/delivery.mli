(** The shared delivery/drop accounting schema.

    Two substrates meter the same pub/sub traffic at different levels
    of realism — the counting {!Mcss_sim.Simulator} and the live
    [Mcss_dataplane] broker ledger — and reconciliation compares them.
    Both report this one record, so a comparison is field-by-field on
    identical meanings rather than a per-substrate translation. *)

type totals = {
  published : int;  (** Events generated at the sources. *)
  handoffs : int;
      (** Event-to-VM handoffs: one per (event, VM hosting the topic)
          copy — the routed/ingress count, [>= published] when every
          topic is placed somewhere. *)
  delivered : int;
      (** Event copies handed to subscribers — one per (event, placed
          pair) that actually arrived. *)
  dropped : int;
      (** Event copies that should have reached a subscriber but did
          not: outage losses in the simulator, queue-overflow and
          no-subscriber drops in the live dataplane. *)
}

val zero : totals

val add : totals -> totals -> totals
(** Field-wise sum (merging per-VM or per-window ledgers). *)

val sub : totals -> totals -> totals
(** Field-wise difference — the traffic of a window given cumulative
    snapshots at its ends. *)

val expected : totals -> int
(** [delivered + dropped]: the copies that were owed to subscribers. *)

val fields : totals -> (string * int) list
(** [(name, value)] in declaration order — for JSON or table rendering
    without this library depending on a codec. *)

val pp : Format.formatter -> totals -> unit
(** One line: [published P, handoffs H, delivered D, dropped X]. *)
