(* [Mcss_core.Selection]'s row-based Stage-1 driver and selectors, and
   the [Mcss_core.Plan_io] decoder's rebuild of the selection, as they
   stood before a selection became one flat (CSR) topic column, copied
   verbatim (one [int array] per subscriber, a kernel that returns each
   subscriber's picks as a fresh array, a decoder that shares a fully
   placed subscriber's workload row and interest rate): the oracle for
   the [flat selection = row oracle] differential in [Test_selection].
   Only the module aliases, the function header of [rebuild], its
   record's field qualification and its result (the selection alone),
   and [decode] (which recomputes the decoder's followers, marks and
   counts from a decoded allocation) are new. *)

module Workload = Mcss_workload.Workload
module Registry = Mcss_obs.Registry
module Counter = Mcss_obs.Metric.Counter
module Gauge = Mcss_obs.Metric.Gauge
module Problem = Mcss_core.Problem
module Arena = Mcss_core.Arena
module Allocation = Mcss_core.Allocation

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
type s1_counts = { mutable considered : int; mutable set_ops : int; mutable pairs : int }

let new_counts () = { considered = 0; set_ops = 0; pairs = 0 }

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

(* The one Stage-1 loop over subscribers. [kernel counts] is one
   chunk's per-subscriber selector: it returns the subscriber's picks
   (any order) and their rate sum, and records its work in [counts],
   which the chunk owns. Subscribers are cut into [domains] ordered
   chunks ({!Arena.map_chunks}), each filling its own slice of the
   result and counting its pairs; the per-chunk counts are then merged
   and the outgoing rate summed in subscriber order, so the selection
   and the counters are the same at any domain count. With [previous =
   (s, dirty)], a clean subscriber keeps [s]'s row and rate, and only
   the dirty ones run the kernel. *)
let build ?(obs = Registry.noop) ?(domains = 1) ?previous ~workload kernel =
  let n = Workload.num_subscribers workload in
  let chosen = Array.make n [||] in
  let selected_rate = Array.make n 0. in
  let chunk_counts =
    Arena.map_chunks ~domains n (fun _ lo hi ->
        let counts = new_counts () in
        let select = kernel counts in
        for v = lo to hi - 1 do
          let topics =
            match previous with
            | Some (prev, dirty) when not dirty.(v) ->
                selected_rate.(v) <- prev.selected_rate.(v);
                prev.chosen.(v)
            | _ ->
                let topics, rate = select v in
                Workload.sort_ids topics;
                selected_rate.(v) <- rate;
                topics
          in
          chosen.(v) <- topics;
          counts.pairs <- counts.pairs + Array.length topics
        done;
        counts)
  in
  let counts = new_counts () in
  Array.iter
    (fun c ->
      counts.considered <- counts.considered + c.considered;
      counts.set_ops <- counts.set_ops + c.set_ops;
      counts.pairs <- counts.pairs + c.pairs)
    chunk_counts;
  let outgoing_rate = ref 0. in
  for v = 0 to n - 1 do
    outgoing_rate := !outgoing_rate +. selected_rate.(v)
  done;
  let s = { chosen; selected_rate; num_pairs = counts.pairs; outgoing_rate = !outgoing_rate } in
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

(* One scratch per chunk: the kernel closes over it. *)
let gsp_kernel (p : Problem.t) counts =
  gsp_subscriber p.Problem.workload ~tau:p.Problem.tau ~eps:(Problem.epsilon p) ~counts
    ~scratch:(gsp_scratch ())

let gsp ?obs ?domains (p : Problem.t) =
  build ?obs ?domains ~workload:p.Problem.workload (gsp_kernel p)

(* Incremental GSP: [gsp_subscriber] is a deterministic function of the
   subscriber's interest set, those topics' rates, tau and eps — so a
   subscriber none of whose inputs changed keeps its exact old selection,
   and re-running only the dirty ones reproduces [gsp] bit-for-bit. *)
let reselect ?obs (p : Problem.t) ~previous ~dirty =
  let w = p.Problem.workload in
  let n = Workload.num_subscribers w in
  if Array.length dirty <> n then
    invalid_arg
      (Printf.sprintf "Selection.reselect: dirty has %d entries for %d subscribers"
         (Array.length dirty) n);
  for v = Array.length previous.chosen to n - 1 do
    if not dirty.(v) then
      invalid_arg (Printf.sprintf "Selection.reselect: new subscriber %d not marked dirty" v)
  done;
  build ?obs ~previous:(previous, dirty) ~workload:w (gsp_kernel p)

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

let rsp ?obs (p : Problem.t) =
  let w = p.Problem.workload in
  let eps = Problem.epsilon p in
  build ?obs ~workload:w (fun counts ->
      rsp_order w ~tau:p.Problem.tau ~eps ~counts (Workload.interests w))

(* One domain: every subscriber draws from the one [rng], in order. *)
let rsp_shuffled ?obs rng (p : Problem.t) =
  let w = p.Problem.workload in
  let eps = Problem.epsilon p in
  let order v =
    let tv = Array.copy (Workload.interests w v) in
    Mcss_prng.Rng.shuffle_in_place rng tv;
    tv
  in
  build ?obs ~workload:w (fun counts -> rsp_order w ~tau:p.Problem.tau ~eps ~counts order)

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
      else Some (build ~workload:w (fun _ -> optimal_subscriber w ~tau:p.Problem.tau rates))

(* The decoder's rebuild, given the transposed interests [followers],
   the placed marks (one byte per workload pair, by its slot in
   [followers]) and the per-subscriber placed counts. *)
let rebuild ~workload ~followers ~placed ~counts =
  let num_topics = Workload.num_topics workload in
  let num_subscribers = Workload.num_subscribers workload in
  (* Reconstruct the selection implied by the placements. A subscriber
     with every interest placed (its row then ascends strictly and lies
     in the workload: the transpose kept all of it) shares the
     workload's row and its interest rate, the same left fold from 0.
     Every other row is filled in one ascending-topic pass over
     [placed], with [counts] reused as the fill cursors ([-1] skips a
     shared row), so each comes out id-sorted and its rate is summed
     left to right from 0. as the solver's selections are. *)
  let num_pairs = Array.fold_left ( + ) 0 counts in
  let chosen = Array.make num_subscribers [||] in
  let selected_rate = Array.make num_subscribers 0. in
  for v = 0 to num_subscribers - 1 do
    let row = Workload.interests workload v and n = counts.(v) in
    if n = Array.length row then begin
      chosen.(v) <- row;
      selected_rate.(v) <- Workload.interest_rate workload v;
      counts.(v) <- -1
    end
    else begin
      chosen.(v) <- Array.make n 0;
      counts.(v) <- 0
    end
  done;
  for t = 0 to num_topics - 1 do
    let ev = Workload.event_rate workload t in
    for slot = Arena.Transpose.start followers t to Arena.Transpose.stop followers t - 1 do
      if Bytes.unsafe_get placed slot <> '\000' then begin
        let v = Arena.Transpose.get followers slot in
        let c = counts.(v) in
        if c >= 0 then begin
          chosen.(v).(c) <- t;
          counts.(v) <- c + 1;
          selected_rate.(v) <- selected_rate.(v) +. ev
        end
      end
    done
  done;
  let outgoing_rate = ref 0. in
  for v = 0 to num_subscribers - 1 do
    outgoing_rate := !outgoing_rate +. selected_rate.(v)
  done;
  let selection =
    { chosen; selected_rate; num_pairs; outgoing_rate = !outgoing_rate }
  in
  selection

(* The inputs [rebuild] had in the decoder, recomputed from a decoded
   (valid) allocation: every placed pair marks its slot. *)
let decode ~workload a =
  let followers =
    Helpers.transpose_rows ~width:(Workload.num_topics workload)
      ~rows:(Workload.num_subscribers workload) (Workload.interests workload)
  in
  let placed = Bytes.make (Workload.num_pairs workload) '\000' in
  let counts = Array.make (Workload.num_subscribers workload) 0 in
  Allocation.iter_vms a (fun vm ->
      Allocation.iter_groups vm (fun topic run n ->
          Arena.Transpose.iter_run followers topic run n (fun v slot ->
              if slot < 0 then invalid_arg "Selection_oracle.decode: pair outside the workload";
              Bytes.set placed slot '\001';
              counts.(v) <- counts.(v) + 1)));
  rebuild ~workload ~followers ~placed ~counts
