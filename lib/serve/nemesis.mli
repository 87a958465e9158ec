(** A deterministic partition nemesis for the replicated planning
    cluster: a live 3-replica cluster (real sockets, real journals, real
    replication streams) with every link routed through a {!Faulty}
    proxy, attacked by a seeded schedule of network partitions while a
    workload generator keeps a full operation history — then audited
    against the failover invariants.

    The schedule always covers the three shapes that matter:

    - {e leader isolation} — the leader is blackholed from the router
      and from both followers; the router must fence-promote the most
      caught-up follower, and a direct write against the still-running
      stale leader must come back [no_quorum] (quorum acks refuse it).
      The heal revives the stale leader, which the router must demote
      with a fencing epoch;
    - {e asymmetric link} — one follower's bytes toward the leader
      vanish while the reverse direction flows, so its acks stop
      counting and the other follower must carry the quorum;
    - {e follower isolation} — a follower is fully partitioned (a
      pause, as seen from the network) and must resync on heal.

    Invariants checked over the surviving journals after the final heal:

    + {e single writer per epoch} — no two nodes' names appear as
      ["origin"] of journaled updates under the same fencing epoch;
    + {e no acknowledged update lost} — every update the generator saw
      acked survives on {e every} replica (as its delta batch, or as the
      workload state it produced after a snapshot fold/reset);
    + {e journal convergence} — the WAL suffixes from the highest base
      index are bit-identical triples on all replicas;
    + {e plan convergence} — the final solve answers with the same
      [plan_digest] from every replica's cache;
    + {e clean verification} — {!Journal.verify} finds no corruption,
      no trailing bytes, and no epoch regressions anywhere.

    Everything is seeded and in-process (the "network" is loopback
    through {!Faulty}), so a failing run replays exactly. Backs
    [mcss nemesis]. *)

type config = {
  seed : int;  (** Drives victim choice and the phase shuffle. *)
  partitions : int;
      (** Fault phases to run ([>= 3]; the first three are the mandatory
          shapes in a seeded order, extras are drawn from the pool). *)
  updates_per_phase : int;  (** Updates pushed during/after each phase. *)
  quorum_acks : int;  (** Passed to every node (default 2 — majority). *)
  quorum_timeout_ms : float;
  log : string -> unit;
}

val default_config : config
(** seed 42, 3 partitions, 3 updates per phase, quorum 2-of-3, 2 s
    quorum timeout, logging disabled. *)

type report = {
  r_seed : int;
  r_replicas : int;
  r_partitions : int;
  r_heals : int;
  r_stale_leader_revivals : int;
  r_updates_sent : int;
  r_updates_acked : int;
  r_updates_unacked : int;
  r_direct_attacks : int;  (** Writes aimed straight at an isolated leader. *)
  r_direct_attacks_acked : int;  (** Must be 0 — quorum refused them all. *)
  r_final_epoch : int;
  r_auto_promotions : int;
  r_fenced_demotions : int;
  r_not_leader_reroutes : int;
  r_divergent_tails : int;
      (** Epoch-mismatched follower tails the leaders forced through a
          reset (a revived stale leader's un-acked writes being cut). *)
  r_truncated_records : int;
      (** Records actually discarded by those resets when the follower's
          tail extended past the incoming snapshot base. *)
  r_recovery_ms : float list;
      (** Partition injection → first acked update, per leader-loss
          phase, sorted ascending. *)
  r_recovery_p50_ms : float;
  r_recovery_p95_ms : float;
  r_single_writer_per_epoch : bool;
  r_no_acked_update_lost : bool;
  r_journals_converged : bool;
  r_plan_digests_converged : bool;
  r_journals_verify_clean : bool;
  r_notes : string list;  (** Phase-by-phase narration, in order. *)
}

val passed : report -> bool
(** All five invariants hold {e and} at least one automatic promotion
    was observed (the run exercised failover, not just fair weather). *)

val report_to_json : report -> Json.t
(** The [BENCH_partition.json] shape: counters, recovery percentiles,
    and an ["invariants"] object of hard booleans plus ["passed"]. *)

val run : config -> report
(** Build the cluster in a fresh temp directory, run the schedule, audit
    the journals, tear everything down (the temp directory is removed
    even on failure). Raises [Invalid_argument] on a bad config and
    [Nemesis_timeout] when the cluster wedges (which is itself a
    failover bug). Takes tens of seconds: wall-clock includes real probe
    cadences and quorum timeouts. *)

exception Nemesis_timeout of string
