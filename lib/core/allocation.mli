(** The Stage-2 allocation state: a fleet of VMs, each holding
    topic–subscriber pairs, with the paper's bandwidth bookkeeping
    (Eq. 2):

    [bw_b = Σ_{(t,v) on b} ev_t  +  Σ_{t with ≥1 pair on b} ev_t]

    i.e. one outgoing unit per pair plus one incoming unit per distinct
    topic present on the VM. The load is maintained incrementally; the
    verifier recomputes it from scratch to cross-check. *)

type vm
(** One virtual machine. *)

type t
(** A mutable fleet with a fixed per-VM capacity. *)

val create : capacity:float -> t
(** An empty fleet; [capacity] is [BC] in event-rate units. *)

val capacity : t -> float
val num_vms : t -> int
val vms : t -> vm array
(** Snapshot of the fleet, in deployment order. *)

val vm_at : t -> int -> vm
(** The VM with the given deployment index (no bounds check until the
    handle is used). *)

val iter_vms : t -> (vm -> unit) -> unit
(** Visit every VM in deployment order without materialising the
    {!vms} array — the packing inner loops' iteration. *)

val load_of : t -> int -> float
(** [load (vm_at a id)] without building the handle. *)

val free_of : t -> int -> float
(** [free a (vm_at a id)] without building the handle. *)

val deploy : t -> vm
(** Add one empty VM and return it. *)

val vm_id : vm -> int
(** Deployment index, [0]-based. *)

val load : vm -> float
(** Current [bw_b]. *)

val free : t -> vm -> float
(** [capacity - load]. *)

val hosts_topic : vm -> Mcss_workload.Workload.topic -> bool

val num_pairs_on : vm -> int
val num_topics_on : vm -> int

val place_delta : vm -> topic:Mcss_workload.Workload.topic -> ev:float -> count:int -> float
(** The load increase from placing [count] pairs of [topic] on this VM:
    [count·ev], plus [ev] if the topic is not yet present. *)

val max_pairs_that_fit :
  t -> vm -> topic:Mcss_workload.Workload.topic -> ev:float -> eps:float -> int
(** The largest [count] such that [place_delta] fits in the free capacity
    (with [eps] slack); 0 if not even one pair fits. *)

val place :
  t -> vm -> topic:Mcss_workload.Workload.topic -> ev:float ->
  subscribers:Mcss_workload.Workload.subscriber array -> from:int -> count:int -> unit
(** Put pairs [(topic, subscribers.(from)) .. (topic, subscribers.(from + count - 1))]
    on the VM and update its load. Raises [Invalid_argument] if the range
    is out of bounds; does {e not} check capacity (callers check first, so
    algorithmic bugs surface in the verifier rather than being masked). *)

val total_load : t -> float
(** [Σ_b bw_b], the bandwidth term of the objective. *)

val iter_vm_pairs :
  vm ->
  (Mcss_workload.Workload.topic -> Mcss_workload.Workload.subscriber -> unit) -> unit
(** Iterate the pairs on one VM, grouped by topic. *)

val topics_on : vm -> Mcss_workload.Workload.topic list
val subscribers_of_topic_on : vm -> Mcss_workload.Workload.topic -> Mcss_workload.Workload.subscriber list
(** In placement order; [] if the topic is absent. *)

(** {2 Mutation support for dynamic re-provisioning}

    These operations exist for the incremental allocator
    ([Mcss_engine.Engine]): a static two-stage solve never removes
    anything. *)

val remove : t -> vm -> topic:Mcss_workload.Workload.topic -> ev:float ->
  subscriber:Mcss_workload.Workload.subscriber -> bool
(** Remove one pair from the VM, updating its load ([ev] outgoing, plus
    the [ev] incoming if this was the topic's last pair on the VM).
    Returns [false] if the pair was not there. *)

val rebuild_loads : t -> event_rates:float array -> unit
(** Recompute every VM's load from its placements under new event rates —
    used after a rate-change delta invalidates the incremental sums. *)

val compact : t -> t * int array
(** Drop empty VMs. Returns a fresh fleet (placements shared
    structurally) and the mapping from old VM id to new id ([-1] for
    dropped VMs). *)

val copy : ?capacity:float -> event_rates:float array -> t -> t
(** A detached copy with the same VMs and placements, priced under
    [event_rates] (indexed by topic) and [capacity] (default the
    source's). Placements go in {!Plan_io}'s order — VMs by id, topics
    sorted, each topic's subscribers as one run in placement order — so
    [copy a] is the fleet a [Plan_io.to_string]/[of_string] round trip
    builds: the same rendering, the same iteration order and the
    bit-identical loads. O(pairs). *)

val canonicalize : t -> event_rates:float array -> unit
(** Put the fleet, in place, into the state {!copy} [~event_rates]
    would build: each VM's topic table re-made in sorted topic order
    (so hash-order walks such as {!iter_vm_pairs} and {!rebuild_loads}
    see what they see on a copy) and its load and pair count re-summed
    in that order. Subscriber runs are kept, not copied, so the cost is
    O(topic groups), not O(pairs). The incremental engine uses it to
    make a fleet evolved by {!place}/{!remove} indistinguishable from
    the same fleet decoded from its plan text. *)

val find_pair_vm : t -> topic:Mcss_workload.Workload.topic ->
  subscriber:Mcss_workload.Workload.subscriber -> vm option
(** The VM hosting the pair, if any (scans the fleet). *)
