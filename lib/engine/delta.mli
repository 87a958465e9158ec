(** Workload change events for dynamic re-provisioning — the paper closes
    by noting the allocator is fast enough to "run periodically to adapt
    to the changes in the event rates, new subscriptions,
    unsubscriptions, etc." (§IV-F); this module is the vocabulary of
    those changes.

    Topic and subscriber ids are stable and append-only: a new topic gets
    id [num_topics], a new subscriber id [num_subscribers]. *)

type t =
  | Subscribe of { subscriber : int; topic : int }
  | Unsubscribe of { subscriber : int; topic : int }
  | Rate_change of { topic : int; rate : float }  (** New absolute rate. *)
  | New_topic of { rate : float }
  | New_subscriber of { interests : int array }

val apply : Mcss_workload.Workload.t -> t list -> Mcss_workload.Workload.t
(** Apply the deltas in order and build the resulting workload. Raises
    [Invalid_argument] on inconsistent deltas: subscribing to an already
    held topic, unsubscribing from an unheld one, referencing ids out of
    range (including ids introduced earlier in the same batch — those are
    valid), or a non-positive rate.

    Cost: the new workload copies the old rate, row and (when cached)
    followers arrays — O(topics + subscribers) — and patches only what
    the batch touched. Interest rates and the pair count are re-derived
    only for touched and new subscribers and for the followers of
    re-rated topics, so a small batch costs no per-pair work. The
    exception is a rate change on a workload whose followers were never
    computed: then every interest rate is re-derived (O(pairs)).
    {!Engine.apply} computes the followers first. *)

val pp : Format.formatter -> t -> unit
