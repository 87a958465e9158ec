module Workload = Mcss_workload.Workload
module Registry = Mcss_obs.Registry
module Counter = Mcss_obs.Metric.Counter
module Gauge = Mcss_obs.Metric.Gauge

type t = {
  chosen : Workload.topic array array;
  selected_rate : float array;
  num_pairs : int;
  outgoing_rate : float;
}

let benefit_cost_ratio ~ev ~rem =
  if rem > 0. then Float.min 1. (ev /. rem) /. (2. *. ev) else 0.

(* Both GSP implementations order candidates by the exact key
   (max(ev_t, rem_v), topic id), ascending: minimising max(ev, rem) is
   the same as maximising the Alg. 1 ratio min(1, ev/rem) / (2 ev) =
   1 / (2 max(ev, rem)), but comparing the key avoids float-division
   rounding breaking mathematically exact ties. *)
let gsp_key ~ev ~rem = Float.max ev rem

(* Per-run Stage-1 work counts, accumulated in plain mutable ints on the
   hot path and flushed to the registry once per selection (so the
   enabled-path overhead stays a handful of integer writes per
   subscriber, and the disabled path costs the same). *)
type s1_counts = { mutable considered : int; mutable set_ops : int }

let new_counts () = { considered = 0; set_ops = 0 }

let flush_stage1 obs (s : t) counts =
  Counter.add
    (Registry.counter obs ~help:"Subscribers processed by Stage 1" "stage1.subscribers")
    (Array.length s.chosen);
  Counter.add
    (Registry.counter obs ~help:"(topic, subscriber) pairs accepted into the selection"
       "stage1.pairs_selected")
    s.num_pairs;
  Counter.add
    (Registry.counter obs
       ~help:"Candidate benefit/cost evaluations (Alg. 1 ratio recomputations)"
       "stage1.candidates_considered")
    counts.considered;
  Counter.add
    (Registry.counter obs
       ~help:"Eligible-set insertions and removals (the GSP heap-op analogue)"
       "stage1.eligible_set_ops")
    counts.set_ops;
  Gauge.set
    (Registry.gauge obs ~help:"Selected outgoing event rate (sum over pairs)"
       "stage1.outgoing_rate")
    s.outgoing_rate

let build ~workload per_subscriber =
  let n = Workload.num_subscribers workload in
  let chosen = Array.make n [||] in
  let selected_rate = Array.make n 0. in
  let num_pairs = ref 0 in
  let outgoing_rate = ref 0. in
  for v = 0 to n - 1 do
    let topics, rate = per_subscriber v in
    Workload.sort_ids topics;
    chosen.(v) <- topics;
    selected_rate.(v) <- rate;
    num_pairs := !num_pairs + Array.length topics;
    outgoing_rate := !outgoing_rate +. rate
  done;
  {
    chosen;
    selected_rate;
    num_pairs = !num_pairs;
    outgoing_rate = !outgoing_rate;
  }

(* Literal Alg. 2 for one subscriber: after every pick, re-derive every
   remaining candidate's ratio from the current remainder and rescan for
   the argmax (lowest topic id on ties). Quadratic in |T_v|. *)
let gsp_reference_subscriber w ~tau ~eps ~counts v =
  let tv = Workload.interests w v in
  let k = Array.length tv in
  let tau_v = Workload.tau_v w ~tau v in
  let selected = Array.make k false in
  let picked = ref [] in
  let sum = ref 0. in
  while !sum < tau_v -. eps do
    let rem = tau_v -. !sum in
    let best = ref (-1) in
    let best_key = ref infinity in
    for i = 0 to k - 1 do
      if not selected.(i) then begin
        counts.considered <- counts.considered + 1;
        let key = gsp_key ~ev:(Workload.event_rate w tv.(i)) ~rem in
        if key < !best_key then begin
          best_key := key;
          best := i
        end
      end
    done;
    (* τ_v <= Σ_{t∈T_v} ev_t guarantees a candidate remains. *)
    assert (!best >= 0);
    selected.(!best) <- true;
    picked := tv.(!best) :: !picked;
    sum := !sum +. Workload.event_rate w tv.(!best)
  done;
  (Array.of_list !picked, !sum)

let gsp_reference ?(obs = Registry.noop) (p : Problem.t) =
  let w = p.Problem.workload in
  let eps = Problem.epsilon p in
  let counts = new_counts () in
  let s = build ~workload:w (gsp_reference_subscriber w ~tau:p.Problem.tau ~eps ~counts) in
  flush_stage1 obs s counts;
  s

(* O(|T_v| log |T_v|) GSP for one subscriber.

   Invariant: while any unselected topic has ev <= rem, all such topics tie
   for the best ratio and the lowest id wins; once none is left, the best
   candidate is the unselected topic with the smallest rate (necessarily
   > rem), and picking it finishes the subscriber.

   The whole per-subscriber state lives in one reusable flat scratch
   (positions sorted by rate, a byte of state per position, cached rates):
   the eligible "set" is the live positions of the prefix [0, hi) of the
   rate order, and because [tv] is id-sorted its minimum element is just
   the first live position — a forward-only cursor, since the set only
   ever shrinks. No per-subscriber Hashtbl, Set nodes or closures. *)

(* Position states. A position leaves [live] exactly once, so the min-live
   and endgame cursors never need to back up. *)
let st_live = '\000'
let st_taken = '\001' (* selected into the result *)
let st_shrunk = '\002' (* dropped from the eligible prefix; endgame may still pick it *)

type gsp_scratch = {
  mutable order : int array; (* positions of tv, sorted by (rate, id) *)
  mutable state : Bytes.t;
  mutable rates : float array; (* rates.(i) = ev of tv.(i) *)
  picked : Arena.Ibuf.t;
}

let gsp_scratch () =
  { order = [||]; state = Bytes.empty; rates = [||]; picked = Arena.Ibuf.create () }

let ensure_scratch s k =
  if Array.length s.order < k then begin
    let cap = max k (2 * Array.length s.order) in
    s.order <- Array.make cap 0;
    s.state <- Bytes.make cap st_live;
    s.rates <- Array.make cap 0.
  end

(* The (rate, position) order of [sort_order]: the same total order as
   comparing (ev i, i) tuples, without building tuples. *)
let order_cmp rates a b =
  let c = Float.compare (Array.unsafe_get rates a) (Array.unsafe_get rates b) in
  if c <> 0 then c else Int.compare a b

(* Sort the first [k] entries of [s.order] by [order_cmp]. Insertion
   sort below a small cutoff, else sort a copy (both realise the unique
   sorted sequence of a total order). *)
let sort_order s k =
  let order = s.order and rates = s.rates in
  if k <= 32 then
    for i = 1 to k - 1 do
      let x = order.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && order_cmp rates order.(!j) x > 0 do
        order.(!j + 1) <- order.(!j);
        decr j
      done;
      order.(!j + 1) <- x
    done
  else begin
    let tmp = Array.sub order 0 k in
    Array.sort (order_cmp rates) tmp;
    Array.blit tmp 0 order 0 k
  end

(* One subscriber's picks, in pick order, and their rate sum. The loop
   keeps its state in local refs that no closure captures, so [sum]
   stays an unboxed float and a pick allocates nothing. *)
let gsp_subscriber w ~tau ~eps ~counts ~scratch:s v =
  let tv = Workload.interests w v in
  let k = Array.length tv in
  let tau_v = Workload.tau_v w ~tau v in
  if tau_v <= eps then ([||], 0.)
  else begin
    ensure_scratch s k;
    let order = s.order and state = s.state and rates = s.rates and picked = s.picked in
    Bytes.fill state 0 k st_live;
    for i = 0 to k - 1 do
      order.(i) <- i;
      rates.(i) <- Workload.event_rate w tv.(i)
    done;
    sort_order s k;
    Arena.Ibuf.clear picked;
    let sum = ref 0. in
    (* [hi] = number of leading entries of the rate order with ev <= rem
       (rem = tau_v - sum); [elig] = live positions among them (= the
       eligible-set size). *)
    let hi = ref 0 in
    let elig = ref 0 in
    while !hi < k && rates.(order.(!hi)) <= tau_v -. !sum do
      counts.set_ops <- counts.set_ops + 1;
      incr hi;
      incr elig
    done;
    (* Positions whose rate already exceeds τ_v were never eligible: mark
       them up front so [st_live] means exactly "in the eligible set"
       (the endgame below may still pick shrunk positions). *)
    for j = !hi to k - 1 do
      Bytes.set state order.(j) st_shrunk
    done;
    (* Eligible positions form a shrinking subset, so the min-live cursor
       only moves forward; likewise the endgame cursor over the rate
       order skips already-taken entries. *)
    let minpos = ref 0 in
    let endgame = ref 0 in
    while !sum < tau_v -. eps do
      counts.considered <- counts.considered + 1;
      if !elig > 0 then begin
        while Bytes.get state !minpos <> st_live do incr minpos done;
        let pos = !minpos in
        counts.set_ops <- counts.set_ops + 1;
        decr elig;
        Bytes.set state pos st_taken;
        Arena.Ibuf.push picked tv.(pos);
        sum := !sum +. rates.(pos);
        (* Shrink the eligible prefix to the new remainder. *)
        while !hi > 0 && rates.(order.(!hi - 1)) > tau_v -. !sum do
          decr hi;
          let pos = order.(!hi) in
          if Bytes.get state pos = st_live then begin
            Bytes.set state pos st_shrunk;
            decr elig
          end;
          counts.set_ops <- counts.set_ops + 1
        done
      end
      else begin
        (* All unselected rates exceed rem: take the smallest, done. *)
        while !endgame < k && Bytes.get state order.(!endgame) = st_taken do
          incr endgame
        done;
        assert (!endgame < k);
        let pos = order.(!endgame) in
        Bytes.set state pos st_taken;
        Arena.Ibuf.push picked tv.(pos);
        sum := !sum +. rates.(pos)
      end
    done;
    (Arena.Ibuf.to_array picked, !sum)
  end

let gsp ?(obs = Registry.noop) (p : Problem.t) =
  let w = p.Problem.workload in
  let eps = Problem.epsilon p in
  let counts = new_counts () in
  let scratch = gsp_scratch () in
  let s =
    build ~workload:w (gsp_subscriber w ~tau:p.Problem.tau ~eps ~counts ~scratch)
  in
  flush_stage1 obs s counts;
  s

(* Parallel GSP: subscribers are independent, so each domain fills a
   disjoint slice of the result arrays; the aggregate sums are folded
   sequentially afterwards so the result is bit-identical to [gsp]. *)
let gsp_parallel ?(obs = Registry.noop) ?domains (p : Problem.t) =
  let w = p.Problem.workload in
  let eps = Problem.epsilon p in
  let n = Workload.num_subscribers w in
  let domains =
    match domains with Some d -> d | None -> Domain.recommended_domain_count ()
  in
  if domains <= 1 || n < 2 then gsp ~obs p
  else begin
    let domains = min domains n in
    let chosen = Array.make n [||] in
    let rates = Array.make n 0. in
    let chunk = (n + domains - 1) / domains in
    (* One counts record per domain: no shared mutable state across
       domains; merged sequentially after the join. *)
    let domain_counts = Array.init domains (fun _ -> new_counts ()) in
    let worker d () =
      let lo = d * chunk in
      let hi = min n (lo + chunk) - 1 in
      let scratch = gsp_scratch () in
      for v = lo to hi do
        let topics, rate =
          gsp_subscriber w ~tau:p.Problem.tau ~eps ~counts:domain_counts.(d) ~scratch v
        in
        Workload.sort_ids topics;
        chosen.(v) <- topics;
        rates.(v) <- rate
      done
    in
    let spawned =
      List.init (domains - 1) (fun i -> Domain.spawn (worker (i + 1)))
    in
    worker 0 ();
    List.iter Domain.join spawned;
    let num_pairs = ref 0 in
    let outgoing_rate = ref 0. in
    for v = 0 to n - 1 do
      num_pairs := !num_pairs + Array.length chosen.(v);
      outgoing_rate := !outgoing_rate +. rates.(v)
    done;
    let s =
      {
        chosen;
        selected_rate = rates;
        num_pairs = !num_pairs;
        outgoing_rate = !outgoing_rate;
      }
    in
    let merged = new_counts () in
    Array.iter
      (fun c ->
        merged.considered <- merged.considered + c.considered;
        merged.set_ops <- merged.set_ops + c.set_ops)
      domain_counts;
    flush_stage1 obs s merged;
    s
  end

(* Incremental GSP: [gsp_subscriber] is a deterministic function of the
   subscriber's interest set, those topics' rates, tau and eps — so a
   subscriber none of whose inputs changed keeps its exact old selection,
   and re-running only the dirty ones reproduces [gsp] bit-for-bit. *)
let reselect ?(obs = Registry.noop) (p : Problem.t) ~previous ~dirty =
  let w = p.Problem.workload in
  let n = Workload.num_subscribers w in
  if Array.length dirty <> n then
    invalid_arg
      (Printf.sprintf "Selection.reselect: dirty has %d entries for %d subscribers"
         (Array.length dirty) n);
  let old_n = Array.length previous.chosen in
  let eps = Problem.epsilon p in
  let counts = new_counts () in
  let scratch = gsp_scratch () in
  let chosen = Array.make n [||] in
  let selected_rate = Array.make n 0. in
  let num_pairs = ref 0 in
  let outgoing_rate = ref 0. in
  for v = 0 to n - 1 do
    if dirty.(v) then begin
      let topics, rate = gsp_subscriber w ~tau:p.Problem.tau ~eps ~counts ~scratch v in
      Workload.sort_ids topics;
      chosen.(v) <- topics;
      selected_rate.(v) <- rate
    end
    else begin
      if v >= old_n then
        invalid_arg
          (Printf.sprintf "Selection.reselect: new subscriber %d not marked dirty" v);
      chosen.(v) <- previous.chosen.(v);
      selected_rate.(v) <- previous.selected_rate.(v)
    end;
    num_pairs := !num_pairs + Array.length chosen.(v);
    outgoing_rate := !outgoing_rate +. selected_rate.(v)
  done;
  let s =
    {
      chosen;
      selected_rate;
      num_pairs = !num_pairs;
      outgoing_rate = !outgoing_rate;
    }
  in
  flush_stage1 obs s counts;
  s

let rsp_order w ~tau ~eps ~counts order v =
  let tv = order v in
  let tau_v = Workload.tau_v w ~tau v in
  let picked = ref [] in
  let sum = ref 0. in
  let i = ref 0 in
  while !sum < tau_v -. eps && !i < Array.length tv do
    counts.considered <- counts.considered + 1;
    let t = tv.(!i) in
    picked := t :: !picked;
    sum := !sum +. Workload.event_rate w t;
    incr i
  done;
  (Array.of_list !picked, !sum)

let rsp ?(obs = Registry.noop) (p : Problem.t) =
  let w = p.Problem.workload in
  let eps = Problem.epsilon p in
  let counts = new_counts () in
  let s = build ~workload:w (rsp_order w ~tau:p.Problem.tau ~eps ~counts (Workload.interests w)) in
  flush_stage1 obs s counts;
  s

let rsp_shuffled ?(obs = Registry.noop) rng (p : Problem.t) =
  let w = p.Problem.workload in
  let eps = Problem.epsilon p in
  let order v =
    let tv = Array.copy (Workload.interests w v) in
    Mcss_prng.Rng.shuffle_in_place rng tv;
    tv
  in
  let counts = new_counts () in
  let s = build ~workload:w (rsp_order w ~tau:p.Problem.tau ~eps ~counts order) in
  flush_stage1 obs s counts;
  s

let integral_rate ev =
  let r = Float.round ev in
  if Float.abs (ev -. r) <= 1e-9 && r >= 1. then Some (int_of_float r) else None

(* Min-cost covering knapsack per subscriber: dp.(j) = least total selected
   rate achieving coverage >= j, with transitions clamped at the target.
   Backpointers record the item used so the chosen set can be rebuilt. *)
let optimal_subscriber w ~tau rates v =
  let tv = Workload.interests w v in
  let k = Array.length tv in
  let tau_v = Workload.tau_v w ~tau v in
  let target = int_of_float (ceil (tau_v -. 1e-9)) in
  if target <= 0 then ([||], 0.)
  else begin
    let dp = Array.make (target + 1) max_int in
    let back_item = Array.make (target + 1) (-1) in
    let back_prev = Array.make (target + 1) (-1) in
    dp.(0) <- 0;
    for i = 0 to k - 1 do
      let r = rates.(tv.(i)) in
      (* Downward iteration with strictly increasing transitions means a
         cell written in this pass is never read in the same pass, so no
         item is used twice. *)
      for j = target - 1 downto 0 do
        if dp.(j) < max_int then begin
          let nj = min target (j + r) in
          if dp.(j) + r < dp.(nj) then begin
            dp.(nj) <- dp.(j) + r;
            back_item.(nj) <- i;
            back_prev.(nj) <- j
          end
        end
      done
    done;
    assert (dp.(target) < max_int);
    let picked = ref [] in
    let j = ref target in
    while !j > 0 do
      picked := tv.(back_item.(!j)) :: !picked;
      j := back_prev.(!j)
    done;
    let topics = Array.of_list !picked in
    let rate = Array.fold_left (fun acc t -> acc +. float_of_int rates.(t)) 0. topics in
    (topics, rate)
  end

let optimal_per_subscriber ?(max_budget = 100_000) (p : Problem.t) =
  let w = p.Problem.workload in
  let rates_opt =
    Array.fold_left
      (fun acc ev ->
        match (acc, integral_rate ev) with
        | Some rs, Some r -> Some (r :: rs)
        | _ -> None)
      (Some []) (Workload.event_rates w)
  in
  match rates_opt with
  | None -> None
  | Some rs ->
      let rates = Array.of_list (List.rev rs) in
      let too_big = ref false in
      for v = 0 to Workload.num_subscribers w - 1 do
        if ceil (Workload.tau_v w ~tau:p.Problem.tau v) > float_of_int max_budget then
          too_big := true
      done;
      if !too_big then None
      else Some (build ~workload:w (optimal_subscriber w ~tau:p.Problem.tau rates))

let satisfies (p : Problem.t) s =
  let eps = Problem.epsilon p in
  let ok = ref true in
  Array.iteri
    (fun v rate -> if rate +. eps < Problem.tau_v p v then ok := false)
    s.selected_rate;
  !ok

type by_topic = {
  offsets : int array;
  subscribers : Workload.subscriber array;
  topics : Workload.topic array;
}

(* Counting sort of the selected pairs into one topic-major column.
   [offsets] is the prefix sum of the per-topic counts; each pass then
   writes subscriber [v] at its topic's cursor, so every slice comes out
   ascending by subscriber. With [domains] > 1 the subscriber range is
   split into ordered chunks: each domain counts its chunk, the
   per-(domain, topic) counts are prefix-summed into disjoint write
   cursors (domain d starts where domains < d end within each topic),
   and each domain fills its own part of every slice — the same column
   as the sequential pass, at any domain count. *)
let pairs_by_topic ?(domains = 1) (p : Problem.t) s =
  let nt = Workload.num_topics p.Problem.workload in
  let n = Array.length s.chosen in
  let domains = max 1 (min domains n) in
  let chunk = (n + domains - 1) / domains in
  let each_chunk worker =
    let spawned =
      List.init (domains - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1)))
    in
    worker 0;
    List.iter Domain.join spawned
  in
  let cursors = Array.init domains (fun _ -> Array.make nt 0) in
  each_chunk (fun d ->
      let cd = cursors.(d) in
      for v = d * chunk to min n ((d + 1) * chunk) - 1 do
        Array.iter (fun t -> cd.(t) <- cd.(t) + 1) s.chosen.(v)
      done);
  let offsets = Array.make (nt + 1) 0 in
  let nonempty = ref 0 in
  for t = 0 to nt - 1 do
    let base = offsets.(t) in
    let next = ref base in
    for d = 0 to domains - 1 do
      let c = cursors.(d).(t) in
      cursors.(d).(t) <- !next;
      next := !next + c
    done;
    if !next > base then incr nonempty;
    offsets.(t + 1) <- !next
  done;
  let subscribers = Array.make offsets.(nt) 0 in
  each_chunk (fun d ->
      let cur = cursors.(d) in
      for v = d * chunk to min n ((d + 1) * chunk) - 1 do
        Array.iter
          (fun t ->
            subscribers.(cur.(t)) <- v;
            cur.(t) <- cur.(t) + 1)
          s.chosen.(v)
      done);
  let topics = Array.make !nonempty 0 in
  let i = ref 0 in
  for t = 0 to nt - 1 do
    if offsets.(t + 1) > offsets.(t) then begin
      topics.(!i) <- t;
      incr i
    end
  done;
  { offsets; subscribers; topics }

let iter_pairs s f = Array.iteri (fun v tv -> Array.iter (fun t -> f t v) tv) s.chosen
