module Workload = Mcss_workload.Workload
module Registry = Mcss_obs.Registry
module Counter = Mcss_obs.Metric.Counter

type topic_order = Arbitrary | Expensive_first | Heaviest_group_first
type vm_choice = First_fit | Most_free

type options = {
  topic_order : topic_order;
  vm_choice : vm_choice;
  cost_decision : bool;
}

let grouping_only =
  { topic_order = Arbitrary; vm_choice = First_fit; cost_decision = false }

let with_expensive_first = { grouping_only with topic_order = Expensive_first }
let with_most_free = { with_expensive_first with vm_choice = Most_free }
let with_cost_decision = { with_most_free with cost_decision = true }

(* How many whole VMs the group's leftover needs, by the paper's estimate
   ⌈count·ev / BC⌉ (Alg. 7 lines 3 and 17). *)
let estimated_new_vms ~capacity ~ev count =
  if count = 0 then 0 else int_of_float (ceil (float_of_int count *. ev /. capacity))

let cheaper_to_distribute (p : Problem.t) a ~ev ~count ~hosts =
  let capacity = p.Problem.capacity in
  let eps = Problem.epsilon p in
  let cur_bw = Allocation.total_load a in
  let cur_vms = Allocation.num_vms a in
  (* Option 1: fresh VMs only. Each new VM pays one incoming stream. *)
  let new_vms = estimated_new_vms ~capacity ~ev count in
  let new_cost =
    Problem.cost p ~vms:(cur_vms + new_vms)
      ~bandwidth:(cur_bw +. (float_of_int (count + new_vms) *. ev))
  in
  (* Option 2: spread over existing VMs (most-free first), overflow to
     fresh VMs. Simulated on a snapshot of the free capacities. The VM
     ids are sorted on free capacity alone by [Array.sort]; VMs with
     exactly equal room stay in the order its heap sort leaves them. *)
  let free = Array.init cur_vms (Allocation.free_of a) in
  let ids = Array.init cur_vms Fun.id in
  Array.sort (fun i j -> Float.compare free.(j) free.(i)) ids;
  let remaining = ref count in
  let spread_bw = ref 0. in
  Array.iter
    (fun id ->
      if !remaining > 0 then begin
        let already_hosts = hosts (Allocation.vm_at a id) in
        let outgoing_room = (free.(id) +. eps) -. (if already_hosts then 0. else ev) in
        if outgoing_room >= ev then begin
          let k = min !remaining (int_of_float (floor (outgoing_room /. ev))) in
          spread_bw :=
            !spread_bw +. (float_of_int k *. ev)
            +. (if already_hosts then 0. else ev);
          remaining := !remaining - k
        end
      end)
    ids;
  let extra_vms = estimated_new_vms ~capacity ~ev !remaining in
  let spread_cost =
    Problem.cost p ~vms:(cur_vms + extra_vms)
      ~bandwidth:
        (cur_bw +. !spread_bw +. (float_of_int (!remaining + extra_vms) *. ev))
  in
  spread_cost < new_cost

(* Both sorted orders put the larger key first and break ties by
   ascending topic id: a stable sort of the ascending ids, descending on
   the key. Keys are positive (every event rate is, and only nonempty
   topics are ordered), and the IEEE bits of nonnegative floats ascend
   with their value, so the sort is an LSD radix sort on [lnot bits]:
   the 63 low bits of a nonnegative float's pattern hold all of it, and
   [lnot] reverses their unsigned order. One pass counts all eight byte
   digits; each pass then scatters the ids stably by one digit, lowest
   first, reading each id's key from the float array indexed by topic,
   and a digit every key shares is skipped. No comparison, no closure,
   no allocation per id. *)
let radix_passes = 8

(* Byte [d] of topic [t]'s complemented key bits. *)
let digit (key : float array) t d =
  (lnot (Int64.to_int (Int64.bits_of_float (Array.unsafe_get key t))) lsr (8 * d)) land 255

let sort_descending (ids : int array) (key : float array) =
  let n = Array.length ids in
  let counts = Array.make (radix_passes * 256) 0 in
  for i = 0 to n - 1 do
    for d = 0 to radix_passes - 1 do
      let c = (d * 256) + digit key ids.(i) d in
      counts.(c) <- counts.(c) + 1
    done
  done;
  let src = ref ids and dst = ref (Array.make n 0) in
  for d = 0 to radix_passes - 1 do
    let base = d * 256 in
    if n > 0 && counts.(base + digit key !src.(0) d) < n then begin
      let sum = ref 0 in
      for b = base to base + 255 do
        let c = counts.(b) in
        counts.(b) <- !sum;
        sum := !sum + c
      done;
      let si = !src and di = !dst in
      for i = 0 to n - 1 do
        let t = si.(i) in
        let b = base + digit key t d in
        let at = counts.(b) in
        counts.(b) <- at + 1;
        di.(at) <- t
      done;
      src := di;
      dst := si
    end
  done;
  if !src != ids then Array.blit !src 0 ids 0 n

let order topic_order (p : Problem.t) (g : Arena.Transpose.t) =
  let ev = Workload.event_rates p.Problem.workload in
  let size t = Arena.Transpose.stop g t - Arena.Transpose.start g t in
  (* The nonempty topics, counted first so the array is exact. *)
  let n = ref 0 in
  for t = 0 to Array.length ev - 1 do
    if size t > 0 then incr n
  done;
  let ids = Array.make !n 0 in
  n := 0;
  for t = 0 to Array.length ev - 1 do
    if size t > 0 then begin
      ids.(!n) <- t;
      incr n
    end
  done;
  (match topic_order with
  | Arbitrary -> ()
  | Expensive_first -> sort_descending ids ev
  | Heaviest_group_first ->
      sort_descending ids (Array.mapi (fun t ev -> float_of_int (size t) *. ev) ev));
  ids

(* Stage-2 work counts: plain mutable ints on the packing path, flushed
   once per run together with the per-VM residual-capacity histogram. *)
type s2_counts = {
  mutable placements : int;
  mutable whole_group_fits : int;
  mutable decision_distribute : int;
  mutable decision_deploy : int;
  mutable cost_decisions : int;
}

let flush_stage2 obs (p : Problem.t) a ~groups counts =
  let c name help v = Counter.add (Registry.counter obs ~help name) v in
  c "stage2.groups" "Topic groups packed by Stage 2" groups;
  c "stage2.vms_deployed" "VMs opened by Stage 2" (Allocation.num_vms a);
  c "stage2.placements" "Allocation.place calls (pair batches placed)" counts.placements;
  c "stage2.whole_group_fits" "Groups placed whole on the current VM" counts.whole_group_fits;
  c "stage2.decision_distribute" "Groups spread over existing VMs" counts.decision_distribute;
  c "stage2.decision_deploy" "Groups sent straight to fresh VMs" counts.decision_deploy;
  c "stage2.cost_decisions" "Alg. 7 cost comparisons evaluated" counts.cost_decisions;
  if Registry.enabled obs then begin
    let h =
      Registry.histogram obs
        ~buckets:(Mcss_obs.Metric.Histogram.linear ~lo:0.1 ~hi:1.0 ~buckets:10)
        ~help:"Residual capacity fraction per deployed VM" "stage2.vm_residual_frac"
    in
    Array.iter
      (fun vm ->
        Mcss_obs.Metric.Histogram.observe h (Allocation.free a vm /. p.Problem.capacity))
      (Allocation.vms a)
  end

let run ?(obs = Registry.noop) ?(domains = 1) (p : Problem.t) (s : Selection.t) opts =
  let ev_of = Workload.event_rates p.Problem.workload in
  let eps = Problem.epsilon p in
  let counts =
    {
      placements = 0;
      whole_group_fits = 0;
      decision_distribute = 0;
      decision_deploy = 0;
      cost_decisions = 0;
    }
  in
  let a = Allocation.create ~capacity:p.Problem.capacity in
  let g =
    Arena.Transpose.of_slices ~domains ~width:(Array.length ev_of) ~offs:s.Selection.offs
      s.Selection.topics
  in
  let topics = order opts.topic_order p g in
  (* The group being packed, copied out of its column row; [from] is a
     position in it. *)
  let subs = ref [||] in
  let place vm ~topic ~ev ~from ~count =
    Allocation.place a vm ~topic ~ev ~subscribers:!subs ~from ~count;
    counts.placements <- counts.placements + 1
  in
  (* The most recently deployed VM; a whole group that fits goes there. *)
  let current = ref None in
  let deploy_for ~topic ~ev ~from ~hi =
    let from = ref from in
    while !from < hi do
      let vm = Allocation.deploy a in
      current := Some vm;
      let k = Allocation.max_pairs_that_fit a vm ~topic ~ev ~eps in
      if k = 0 then
        raise
          (Problem.Infeasible
             (Printf.sprintf "topic %d: a single pair needs %g bandwidth but BC is %g"
                topic (2. *. ev) p.Problem.capacity));
      let k = min k (hi - !from) in
      place vm ~topic ~ev ~from:!from ~count:k;
      from := !from + k
    done
  in
  (* Spread the group over already-deployed VMs until none can take a
     pair; each VM is picked at most once per topic because we fill it. *)
  let distribute ~topic ~ev ~from ~hi =
    let from = ref from in
    let progress = ref true in
    while !from < hi && !progress do
      (* Scan the fleet by id over the flat residual arrays — no per-pass
         snapshot of the VM handles. Ties in [Most_free] keep the lowest
         id, as the left-to-right fold always did. *)
      let nv = Allocation.num_vms a in
      let fits id =
        Allocation.max_pairs_that_fit a (Allocation.vm_at a id) ~topic ~ev ~eps > 0
      in
      let candidate =
        match opts.vm_choice with
        | First_fit ->
            let rec first id = if id >= nv then -1 else if fits id then id else first (id + 1) in
            first 0
        | Most_free ->
            let best = ref (-1) in
            for id = 0 to nv - 1 do
              if fits id
                 && (!best < 0 || Allocation.free_of a !best < Allocation.free_of a id)
              then best := id
            done;
            !best
      in
      if candidate < 0 then progress := false
      else begin
        let vm = Allocation.vm_at a candidate in
        let k = min (Allocation.max_pairs_that_fit a vm ~topic ~ev ~eps) (hi - !from) in
        place vm ~topic ~ev ~from:!from ~count:k;
        from := !from + k
      end
    done;
    if !from < hi then deploy_for ~topic ~ev ~from:!from ~hi
  in
  Array.iter
    (fun topic ->
      let ev = ev_of.(topic) in
      subs := Arena.Transpose.copy_row g topic !subs;
      let n = Arena.Transpose.stop g topic - Arena.Transpose.start g topic in
      match !current with
      | Some vm
        when Allocation.place_delta vm ~topic ~ev ~count:n <= Allocation.free a vm +. eps ->
          place vm ~topic ~ev ~from:0 ~count:n;
          counts.whole_group_fits <- counts.whole_group_fits + 1
      | _ ->
          let spread =
            Allocation.num_vms a > 0
            && (not opts.cost_decision
               ||
               (counts.cost_decisions <- counts.cost_decisions + 1;
                cheaper_to_distribute p a ~ev ~count:n
                  ~hosts:(fun vm -> Allocation.hosts_topic vm topic)))
          in
          if spread then begin
            counts.decision_distribute <- counts.decision_distribute + 1;
            distribute ~topic ~ev ~from:0 ~hi:n
          end
          else begin
            counts.decision_deploy <- counts.decision_deploy + 1;
            deploy_for ~topic ~ev ~from:0 ~hi:n
          end)
    topics;
  flush_stage2 obs p a ~groups:(Array.length topics) counts;
  a
