(* [Mcss_core.Cbp] and [Mcss_core.Selection.pairs_by_topic] as they
   stood before Stage 2 moved onto the flat topic-major table, copied
   verbatim (per-topic subscriber arrays, [(topic, subs, ev)] tuples
   heap-sorted with polymorphic [compare (-.ev, t)], a tuple snapshot in
   the Alg. 7 estimate): the oracle for the differential property in
   [Test_packing]. Only the module aliases, the [Selection.t] annotation
   in [pairs_by_topic], its first line (which copies the selection's flat
   slices out as the rows the old code read), and its call in [run] are
   new. *)

module Workload = Mcss_workload.Workload
module Problem = Mcss_core.Problem
module Selection = Mcss_core.Selection
module Allocation = Mcss_core.Allocation

(* Counting sort of the selected pairs into per-topic subscriber rows.
   With [domains] > 1 the subscriber range is split into ordered chunks:
   each domain counts its chunk, the per-(topic, domain) counts are
   prefix-summed into disjoint write cursors, and each domain fills its
   own slice of every row — so the rows come out ascending-by-subscriber
   exactly as the sequential pass produces them, at any domain count. *)
let pairs_by_topic ?(domains = 1) (p : Problem.t) (s : Selection.t) =
  let chosen = Array.init (Selection.num_subscribers s) (Selection.row s) in
  let w = p.Problem.workload in
  let nt = Workload.num_topics w in
  let n = Array.length chosen in
  let domains = max 1 (min domains n) in
  let counts = Array.make nt 0 in
  let subs =
    if domains <= 1 then begin
      Array.iter (Array.iter (fun t -> counts.(t) <- counts.(t) + 1)) chosen;
      let subs = Array.map (fun c -> Array.make (max c 1) 0) counts in
      let fill = Array.make nt 0 in
      Array.iteri
        (fun v tv ->
          Array.iter
            (fun t ->
              subs.(t).(fill.(t)) <- v;
              fill.(t) <- fill.(t) + 1)
            tv)
        chosen;
      subs
    end
    else begin
      let chunk = (n + domains - 1) / domains in
      let counts_d = Array.init domains (fun _ -> Array.make nt 0) in
      let each_chunk worker =
        let spawned =
          List.init (domains - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1)))
        in
        worker 0;
        List.iter Domain.join spawned
      in
      each_chunk (fun d ->
          let cd = counts_d.(d) in
          for v = d * chunk to min n ((d + 1) * chunk) - 1 do
            Array.iter (fun t -> cd.(t) <- cd.(t) + 1) chosen.(v)
          done);
      (* Per-row totals, and per-domain counts turned into write cursors:
         domain d starts where domains < d end within each row. *)
      for t = 0 to nt - 1 do
        let base = ref 0 in
        for d = 0 to domains - 1 do
          let c = counts_d.(d).(t) in
          counts_d.(d).(t) <- !base;
          base := !base + c
        done;
        counts.(t) <- !base
      done;
      let subs = Array.map (fun c -> Array.make (max c 1) 0) counts in
      each_chunk (fun d ->
          let cur = counts_d.(d) in
          for v = d * chunk to min n ((d + 1) * chunk) - 1 do
            Array.iter
              (fun t ->
                subs.(t).(cur.(t)) <- v;
                cur.(t) <- cur.(t) + 1)
              chosen.(v)
          done);
      subs
    end
  in
  let nonempty = ref 0 in
  Array.iter (fun c -> if c > 0 then incr nonempty) counts;
  let out = Array.make !nonempty (0, [||]) in
  let i = ref 0 in
  Array.iteri
    (fun t c ->
      if c > 0 then begin
        out.(!i) <- (t, subs.(t));
        incr i
      end)
    counts;
  out

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
     fresh VMs. Simulated on a snapshot of the free capacities. *)
  let slots =
    Array.init cur_vms (fun id -> (Allocation.free_of a id, hosts (Allocation.vm_at a id)))
  in
  Array.sort (fun (fa, _) (fb, _) -> compare fb fa) slots;
  let remaining = ref count in
  let spread_bw = ref 0. in
  Array.iter
    (fun (room, already_hosts) ->
      if !remaining > 0 then begin
        let outgoing_room = (room +. eps) -. (if already_hosts then 0. else ev) in
        if outgoing_room >= ev then begin
          let k = min !remaining (int_of_float (floor (outgoing_room /. ev))) in
          spread_bw :=
            !spread_bw +. (float_of_int k *. ev)
            +. (if already_hosts then 0. else ev);
          remaining := !remaining - k
        end
      end)
    slots;
  let extra_vms = estimated_new_vms ~capacity ~ev !remaining in
  let spread_cost =
    Problem.cost p ~vms:(cur_vms + extra_vms)
      ~bandwidth:
        (cur_bw +. !spread_bw +. (float_of_int (!remaining + extra_vms) *. ev))
  in
  spread_cost < new_cost

let order_groups opts groups =
  match opts.topic_order with
  | Arbitrary -> groups
  | Expensive_first ->
      let groups = Array.copy groups in
      (* Stable by (rate desc, id asc): compare on (-ev, id). *)
      Array.sort
        (fun (ta, _, eva) (tb, _, evb) -> compare (-.eva, ta) (-.evb, tb))
        groups;
      groups
  | Heaviest_group_first ->
      let groups = Array.copy groups in
      let volume (_, subs, ev) = float_of_int (Array.length subs) *. ev in
      Array.sort
        (fun ((ta, _, _) as a) ((tb, _, _) as b) ->
          compare (-.volume a, ta) (-.volume b, tb))
        groups;
      groups

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
  let w = p.Problem.workload in
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
  let groups =
    pairs_by_topic ~domains p s
    |> Array.map (fun (t, subs) -> (t, subs, Workload.event_rate w t))
  in
  let groups = order_groups opts groups in
  (* The most recently deployed VM; a whole group that fits goes there. *)
  let current = ref None in
  let deploy_for ~topic ~ev ~subs ~from =
    let n = Array.length subs in
    let from = ref from in
    while !from < n do
      let vm = Allocation.deploy a in
      current := Some vm;
      let k = Allocation.max_pairs_that_fit a vm ~topic ~ev ~eps in
      if k = 0 then
        raise
          (Problem.Infeasible
             (Printf.sprintf "topic %d: a single pair needs %g bandwidth but BC is %g"
                topic (2. *. ev) p.Problem.capacity));
      let k = min k (n - !from) in
      Allocation.place a vm ~topic ~ev ~subscribers:subs ~from:!from ~count:k;
      counts.placements <- counts.placements + 1;
      from := !from + k
    done
  in
  (* Spread the group over already-deployed VMs until none can take a
     pair; each VM is picked at most once per topic because we fill it. *)
  let distribute ~topic ~ev ~subs =
    let n = Array.length subs in
    let from = ref 0 in
    let progress = ref true in
    while !from < n && !progress do
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
        let k =
          min (Allocation.max_pairs_that_fit a vm ~topic ~ev ~eps) (n - !from)
        in
        Allocation.place a vm ~topic ~ev ~subscribers:subs ~from:!from ~count:k;
        counts.placements <- counts.placements + 1;
        from := !from + k
      end
    done;
    if !from < n then deploy_for ~topic ~ev ~subs ~from:!from
  in
  Array.iter
    (fun (topic, subs, ev) ->
      let n = Array.length subs in
      let fits_current =
        match !current with
        | Some vm ->
            if Allocation.place_delta vm ~topic ~ev ~count:n <= Allocation.free a vm +. eps
            then Some vm
            else None
        | None -> None
      in
      match fits_current with
      | Some vm ->
          Allocation.place a vm ~topic ~ev ~subscribers:subs ~from:0 ~count:n;
          counts.placements <- counts.placements + 1;
          counts.whole_group_fits <- counts.whole_group_fits + 1
      | None ->
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
            distribute ~topic ~ev ~subs
          end
          else begin
            counts.decision_deploy <- counts.decision_deploy + 1;
            deploy_for ~topic ~ev ~subs ~from:0
          end)
    groups;
  flush_stage2 obs p a ~groups:(Array.length groups) counts;
  a
