(** The Stage-2 allocation state: a fleet of VMs, each holding
    topic–subscriber pairs, with the paper's bandwidth bookkeeping
    (Eq. 2):

    [bw_b = Σ_{(t,v) on b} ev_t  +  Σ_{t with ≥1 pair on b} ev_t]

    i.e. one outgoing unit per pair plus one incoming unit per distinct
    topic present on the VM. The load is maintained incrementally; the
    verifier recomputes it from scratch to cross-check.

    {2 Layout and walk order}

    Each VM holds one {e topic group} per topic present on it: the
    topic, a run length and an unboxed [int array] run of subscribers.
    Groups are appended in placement order and never kept sorted on
    insert (a Stage-2 solve opens them in expensive-first order); each
    VM instead remembers whether its groups are still in ascending topic
    order. While they are strictly ascending — as on every {!copy} and
    every decoded plan — a topic is found by binary search; the first
    group out of order builds a per-VM {!Arena.Int_table} index from
    topic to group, which the VM keeps.

    {b Every walk} — {!iter_groups}, {!iter_vm_pairs}, {!topics_on},
    {!rebuild_loads}, {!copy} and [Plan_io]'s encoder — visits a VM's
    topics in ascending id order and each topic's subscribers in run
    order. Within a run, {!place} appends and {!remove} moves the run's
    last pair into the hole. A walk over a VM whose groups are out of
    order sorts a scratch view of them and never mutates the fleet, so
    domains may walk one fleet concurrently as long as nobody mutates it.

    Costs, for a VM with [g] groups and [k] pairs of the topic at hand:
    {!hosts_topic}, {!place_delta}, {!max_pairs_that_fit} and the
    lookup in {!place} / {!remove} are one hash probe on an indexed VM
    and O(log g) otherwise; {!place} of [count] pairs is amortised
    O(count), plus O(g) once when it builds the index; {!remove} is
    O(k) (a scan of the run); a walk is O(pairs on the VM), plus
    O(g log g) when the VM's groups are out of order. *)

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
    on the VM and update its load: appended to the topic's run, or a new
    group if the topic is absent. Raises [Invalid_argument] if the range
    is out of bounds, or if [topic] is one of {!Arena.Int_table.reserved_keys}
    ([min_int], [min_int + 1]); any other [int] topic is accepted. Does
    {e not} check capacity (callers check first, so algorithmic bugs
    surface in the verifier rather than being masked). A topic above
    every group of a VM whose topics still ascend (each line of a
    decoded plan) opens its group at the end in O(1) plus the copy of
    the run; any other placement costs a binary search or a hash
    lookup. *)

val total_load : t -> float
(** [Σ_b bw_b], the bandwidth term of the objective. *)

val iter_groups :
  vm -> (Mcss_workload.Workload.topic -> Mcss_workload.Workload.subscriber array -> int -> unit) ->
  unit
(** [iter_groups vm f] calls [f topic run n] once per topic on the VM,
    in ascending topic order; the topic's subscribers are
    [run.(0) .. run.(n - 1)] in run order ([n > 0]). [run] is the fleet's
    own storage, possibly longer than [n]: read it inside [f] only, and
    do not mutate the VM from [f]. *)

val iter_vm_pairs :
  vm ->
  (Mcss_workload.Workload.topic -> Mcss_workload.Workload.subscriber -> unit) -> unit
(** Iterate the pairs on one VM: topics ascending, each topic's
    subscribers in run order. *)

val topics_on : vm -> Mcss_workload.Workload.topic list
(** Ascending. *)

val subscribers_of_topic_on : vm -> Mcss_workload.Workload.topic -> Mcss_workload.Workload.subscriber list
(** In run order; [] if the topic is absent. *)

(** {2 Mutation support for dynamic re-provisioning}

    These operations exist for the incremental allocator
    ([Mcss_engine.Engine]): a static two-stage solve never removes
    anything. *)

val remove : t -> vm -> topic:Mcss_workload.Workload.topic -> ev:float ->
  subscriber:Mcss_workload.Workload.subscriber -> bool
(** Remove one pair from the VM, updating its load ([ev] outgoing, plus
    the [ev] incoming if this was the topic's last pair on the VM). The
    run's last pair moves into the hole. A group emptied this way
    releases its run; its slot is reclaimed once dead slots outnumber
    live ones, or by {!canonicalize}, so churn does not grow a VM.
    Returns [false] if the pair was not there. *)

val rebuild_loads : t -> event_rates:float array -> unit
(** Recompute every VM's load from its placements under new event rates —
    used after a rate-change delta invalidates the incremental sums.
    Each VM's load is summed from 0 as [(n + 1)·ev] per topic, in
    ascending topic order. O(groups), plus the sort of any VM whose
    groups are out of order. *)

val compact : t -> t * int array
(** Drop empty VMs. Returns a fresh fleet and the mapping from old VM id
    to new id ([-1] for dropped VMs). O(VMs): the fresh fleet shares the
    surviving VMs' placements with the source, so the source is consumed
    — mutating or walking it afterwards is unspecified. *)

val copy : ?capacity:float -> event_rates:float array -> t -> t
(** A detached copy with the same VMs and placements, priced under
    [event_rates] (indexed by topic) and [capacity] (default the
    source's). Each VM gets its groups in ascending topic order with
    exact-size runs, and its load summed from 0 as [n·ev + ev] per topic
    in that order — the sum a [Plan_io.to_string]/[of_string] round trip
    builds, so [copy a] renders the same text, walks the same way and
    carries bit-identical loads. O(pairs), plus the sort of any VM whose
    groups are out of order. Never mutates the source. *)

val canonicalize : t -> event_rates:float array -> unit
(** Put the fleet, in place, into the state {!copy} [~event_rates]
    would build: sort any VM whose groups are out of order (dropping
    emptied slots), then re-sum each VM's load and pair count as {!copy}
    does. Subscriber runs are kept, not copied, so the cost is
    O(groups), not O(pairs), and no table is rebuilt. The incremental
    engine uses it to make a fleet evolved by {!place}/{!remove}
    indistinguishable from the same fleet decoded from its plan text. *)

val find_pair_vm : t -> topic:Mcss_workload.Workload.topic ->
  subscriber:Mcss_workload.Workload.subscriber -> vm option
(** The VM hosting the pair, if any: one index probe per VM, then a
    scan of the topic's run. *)
