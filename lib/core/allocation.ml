module Workload = Mcss_workload.Workload
module Int_table = Arena.Int_table

(* One VM's placements as topic groups on flat arrays. Slot [s] holds
   topic [topics.(s)] and its subscriber run [runs.(s).(0 .. lens.(s) - 1)]
   (an unboxed [int array] with spare capacity for appends). A slot
   emptied by [remove] keeps its topic, with [lens.(s) = 0] and an empty
   run, until [compact_slots] squeezes it out. Slots are appended in
   placement order, so [sorted] records whether their topics are still
   ascending: walks then read the slots directly, and otherwise sort a
   scratch view.

   While the slot topics are strictly ascending (as every copy and
   every decode of a plan leaves them) a topic is found by binary
   search and [index] is [None]. The first out-of-order topic builds
   [index], a hash from each live slot's topic to its slot, which is
   kept from then on. *)
type groups = {
  mutable topics : int array;
  mutable lens : int array;
  mutable runs : int array array;
  mutable slots : int;  (* slots in use, live or dead *)
  mutable dead : int;
  mutable sorted : bool;
  mutable index : Int_table.t option;
}

(* Per-VM residuals (load, pair count) live in flat arrays indexed by VM
   id, so the packing hot loop updates an unboxed float slab instead of a
   mutable float field in a mixed record (which OCaml boxes on every
   write). A [vm] is just a handle: the id plus its owner. *)
type t = {
  cap : float;
  loads : Arena.Fbuf.t;
  npairs : Arena.Ibuf.t;
  groups : groups Vec.t;
}

type vm = { id : int; st : t }

let no_run : int array = [||]

let empty_groups slots =
  {
    topics = Array.make slots 0;
    lens = Array.make slots 0;
    runs = Array.make slots no_run;
    slots = 0;
    dead = 0;
    sorted = true;
    index = None;
  }

let create ~capacity =
  if not (capacity > 0.) then invalid_arg "Allocation.create: capacity must be positive";
  {
    cap = capacity;
    loads = Arena.Fbuf.create ();
    npairs = Arena.Ibuf.create ();
    groups = Vec.create ();
  }

let capacity a = a.cap
let num_vms a = Vec.length a.groups
let vm_at a id = { id; st = a }
let vms a = Array.init (num_vms a) (vm_at a)

let iter_vms a f =
  for id = 0 to num_vms a - 1 do
    f (vm_at a id)
  done

let push_vm a ~load ~pairs g =
  Arena.Fbuf.push a.loads load;
  Arena.Ibuf.push a.npairs pairs;
  Vec.push a.groups g

let deploy a =
  let id = num_vms a in
  push_vm a ~load:0. ~pairs:0 (empty_groups 8);
  vm_at a id

let vm_id vm = vm.id
let load vm = Arena.Fbuf.get vm.st.loads vm.id
let load_of a id = Arena.Fbuf.get a.loads id
let free a vm = a.cap -. load vm
let free_of a id = a.cap -. Arena.Fbuf.get a.loads id
let groups_of vm = Vec.get vm.st.groups vm.id

(* The slot, live or dead, holding [topic] in strictly ascending slots;
   [absent] if none. Top-level with explicit arguments (as is
   [index_from] below): a local [go] would cost a closure per lookup.
   The [int] annotations keep the comparisons off polymorphic compare. *)
let rec search_in (topics : int array) (topic : int) lo hi =
  if lo >= hi then Int_table.absent
  else
    let mid = (lo + hi) lsr 1 in
    let x = Array.unsafe_get topics mid in
    if x = topic then mid
    else if x < topic then search_in topics topic (mid + 1) hi
    else search_in topics topic lo mid

let search g topic = search_in g.topics topic 0 g.slots

(* The live slot holding [topic], or [absent]. *)
let slot_of g topic =
  match g.index with
  | Some index -> Int_table.find index topic
  | None ->
      let s = search g topic in
      if s <> Int_table.absent && g.lens.(s) > 0 then s else Int_table.absent

let hosts_topic vm t = slot_of (groups_of vm) t <> Int_table.absent
let num_pairs_on vm = Arena.Ibuf.get vm.st.npairs vm.id

let num_topics_on vm =
  let g = groups_of vm in
  g.slots - g.dead

let place_delta vm ~topic ~ev ~count =
  let incoming = if hosts_topic vm topic then 0. else ev in
  (float_of_int count *. ev) +. incoming

let max_pairs_that_fit a vm ~topic ~ev ~eps =
  let room = a.cap -. load vm +. eps in
  let incoming = if hosts_topic vm topic then 0. else ev in
  let outgoing_room = room -. incoming in
  if outgoing_room < ev then 0 else int_of_float (floor (outgoing_room /. ev))

let grow_slots g =
  let n = max 8 (2 * g.slots) in
  let widen a fill =
    let fresh = Array.make n fill in
    Array.blit a 0 fresh 0 g.slots;
    fresh
  in
  g.topics <- widen g.topics 0;
  g.lens <- widen g.lens 0;
  g.runs <- widen g.runs no_run

let build_index g =
  let index = Int_table.create ~capacity:(2 * (g.slots - g.dead + 1)) () in
  for s = 0 to g.slots - 1 do
    if g.lens.(s) > 0 then Int_table.set index g.topics.(s) s
  done;
  g.index <- Some index;
  index

(* A slot for the absent [topic] with room for [count] subscribers: its
   own dead slot if the slots are still searchable, else a new one at
   the end (building the index if that breaks the strict order). *)
let open_slot g topic count =
  let dead = if Option.is_none g.index then search g topic else Int_table.absent in
  if dead <> Int_table.absent then begin
    g.dead <- g.dead - 1;
    g.runs.(dead) <- Array.make count 0;
    dead
  end
  else begin
    if g.slots = Array.length g.topics then grow_slots g;
    let s = g.slots in
    let in_order = s = 0 || g.topics.(s - 1) < topic in
    (match g.index with
    | Some index -> Int_table.set index topic s
    | None -> if not in_order then Int_table.set (build_index g) topic s);
    if not (in_order || g.topics.(s - 1) = topic) then g.sorted <- false;
    g.topics.(s) <- topic;
    g.lens.(s) <- 0;
    g.runs.(s) <- Array.make count 0;
    g.slots <- s + 1;
    s
  end

let place a vm ~topic ~ev ~subscribers ~from ~count =
  ignore a;
  if count < 0 || from < 0 || from + count > Array.length subscribers then
    invalid_arg "Allocation.place: subscriber range out of bounds";
  if topic = fst Int_table.reserved_keys || topic = snd Int_table.reserved_keys then
    invalid_arg "Allocation.place: reserved topic id";
  if count > 0 then begin
    let st = vm.st and g = groups_of vm in
    let s = g.slots in
    if Option.is_none g.index && (s = 0 || g.topics.(s - 1) < topic) then begin
      (* Above every slot of a searchable VM, as each line of a decoded
         plan is: [open_slot]'s new slot at the end without its two
         searches, and the run an exact-size copy. *)
      if s = Array.length g.topics then grow_slots g;
      g.topics.(s) <- topic;
      g.lens.(s) <- count;
      g.runs.(s) <- Array.sub subscribers from count;
      g.slots <- s + 1;
      Arena.Fbuf.add st.loads vm.id ((float_of_int count *. ev) +. ev)
    end
    else begin
      let s = slot_of g topic in
      let incoming, s =
        if s = Int_table.absent then (ev, open_slot g topic count) else (0., s)
      in
      Arena.Fbuf.add st.loads vm.id ((float_of_int count *. ev) +. incoming);
      let n = g.lens.(s) in
      let run = g.runs.(s) in
      let run =
        if n + count <= Array.length run then run
        else begin
          let fresh = Array.make (max (n + count) (2 * Array.length run)) 0 in
          Array.blit run 0 fresh 0 n;
          g.runs.(s) <- fresh;
          fresh
        end
      in
      Array.blit subscribers from run n count;
      g.lens.(s) <- n + count
    end;
    Arena.Ibuf.set st.npairs vm.id (Arena.Ibuf.get st.npairs vm.id + count)
  end

let total_load a = Arena.Fbuf.sum a.loads

(* Walks of out-of-order VMs sort (topic, slot) keys packed into one int,
   the topic above [slot_bits]: a solver's fleet has tens of thousands
   of groups, and a comparison sort through a closure cost more than the
   walk itself. *)
let slot_bits = 31

(* [keys] sorted by their bits above [slot_bits], which hold topic ids
   in [0, 2^31): an LSD radix sort over the topic's bytes that stops at
   the largest topic's top byte. *)
let sort_by_topic keys =
  let n = Array.length keys in
  let max_topic = Array.fold_left (fun m k -> max m (k lsr slot_bits)) 0 keys in
  let src = ref keys and dst = ref (Array.make n 0) in
  let count = Array.make 257 0 in
  let digit = ref 0 in
  while !digit < 4 && max_topic lsr (8 * !digit) > 0 do
    let shift = slot_bits + (8 * !digit) in
    Array.fill count 0 257 0;
    Array.iter
      (fun k ->
        let d = ((k lsr shift) land 255) + 1 in
        count.(d) <- count.(d) + 1)
      !src;
    for d = 1 to 256 do
      count.(d) <- count.(d) + count.(d - 1)
    done;
    let out = !dst in
    Array.iter
      (fun k ->
        let d = (k lsr shift) land 255 in
        out.(count.(d)) <- k;
        count.(d) <- count.(d) + 1)
      !src;
    dst := !src;
    src := out;
    incr digit
  done;
  !src

(* The live slots in ascending topic order, as a scratch array: the
   fleet itself is never touched, so concurrent readers stay safe. *)
let ordered_slots g =
  let live = Array.make (g.slots - g.dead) 0 in
  let k = ref 0 and packable = ref true in
  for s = 0 to g.slots - 1 do
    if g.lens.(s) > 0 then begin
      if g.topics.(s) lsr slot_bits <> 0 then packable := false;
      live.(!k) <- s;
      incr k
    end
  done;
  let topics = g.topics in
  if !packable then begin
    Array.iteri (fun i s -> live.(i) <- (topics.(s) lsl slot_bits) lor s) live;
    let sorted = sort_by_topic live in
    Array.iteri (fun i key -> sorted.(i) <- key land ((1 lsl slot_bits) - 1)) sorted;
    sorted
  end
  else begin
    Array.sort (fun x y -> Int.compare topics.(x) topics.(y)) live;
    live
  end

let iter_slots g f =
  if g.sorted then
    for s = 0 to g.slots - 1 do
      if g.lens.(s) > 0 then f s
    done
  else Array.iter f (ordered_slots g)

let iter_groups vm f =
  let g = groups_of vm in
  iter_slots g (fun s -> f g.topics.(s) g.runs.(s) g.lens.(s))

let iter_vm_pairs vm f =
  iter_groups vm (fun topic run n ->
      for i = 0 to n - 1 do
        f topic run.(i)
      done)

let topics_on vm =
  let acc = ref [] in
  iter_groups vm (fun topic _ _ -> acc := topic :: !acc);
  List.rev !acc

let subscribers_of_topic_on vm t =
  let g = groups_of vm in
  let s = slot_of g t in
  if s = Int_table.absent then [] else Array.to_list (Array.sub g.runs.(s) 0 g.lens.(s))

(* Squeeze the dead slots out, keeping the live ones in order (so
   [sorted] still holds if it held). *)
let compact_slots g =
  let k = ref 0 in
  for s = 0 to g.slots - 1 do
    if g.lens.(s) > 0 then begin
      if !k <> s then begin
        g.topics.(!k) <- g.topics.(s);
        g.lens.(!k) <- g.lens.(s);
        g.runs.(!k) <- g.runs.(s);
        Option.iter (fun index -> Int_table.set index g.topics.(s) !k) g.index
      end;
      incr k
    end
  done;
  Array.fill g.runs !k (g.slots - !k) no_run;
  g.slots <- !k;
  g.dead <- 0

let rec index_from (run : int array) n (v : int) i =
  if i >= n then -1 else if run.(i) = v then i else index_from run n v (i + 1)

let index_in run n v = index_from run n v 0

let remove a vm ~topic ~ev ~subscriber =
  ignore a;
  let st = vm.st and g = groups_of vm in
  let s = slot_of g topic in
  if s = Int_table.absent then false
  else begin
    let run = g.runs.(s) and n = g.lens.(s) in
    let i = index_in run n subscriber in
    if i < 0 then false
    else begin
      (* Vec.swap_remove's rule: the run's last pair fills the hole. *)
      run.(i) <- run.(n - 1);
      g.lens.(s) <- n - 1;
      Arena.Ibuf.set st.npairs vm.id (Arena.Ibuf.get st.npairs vm.id - 1);
      let last = n = 1 in
      if last then begin
        Option.iter (fun index -> Int_table.remove index topic) g.index;
        g.runs.(s) <- no_run;
        g.dead <- g.dead + 1;
        if g.dead >= 8 && 2 * g.dead > g.slots then compact_slots g
      end;
      Arena.Fbuf.set st.loads vm.id
        (Arena.Fbuf.get st.loads vm.id -. ev -. (if last then ev else 0.));
      true
    end
  end

let rebuild_loads a ~event_rates =
  for id = 0 to num_vms a - 1 do
    let g = Vec.get a.groups id in
    let load = ref 0. in
    let pairs = ref 0 in
    iter_slots g (fun s ->
        let n = g.lens.(s) in
        load := !load +. (float_of_int (n + 1) *. event_rates.(g.topics.(s)));
        pairs := !pairs + n);
    Arena.Fbuf.set a.loads id !load;
    Arena.Ibuf.set a.npairs id !pairs
  done

let compact a =
  let fresh = create ~capacity:a.cap in
  let mapping = Array.make (num_vms a) (-1) in
  for id = 0 to num_vms a - 1 do
    if Arena.Ibuf.get a.npairs id > 0 then begin
      mapping.(id) <- num_vms fresh;
      (* Placements shared structurally: the source is consumed. *)
      push_vm fresh ~load:(Arena.Fbuf.get a.loads id) ~pairs:(Arena.Ibuf.get a.npairs id)
        (Vec.get a.groups id)
    end
  done;
  (fresh, mapping)

(* A VM's load as a [Plan_io] decode sums it: from 0, one [place_delta]
   ([n·ev + ev]) per topic in ascending order. *)
let canonical_load g ~event_rates =
  let load = ref 0. and pairs = ref 0 in
  iter_slots g (fun s ->
      let n = g.lens.(s) and ev = event_rates.(g.topics.(s)) in
      load := !load +. ((float_of_int n *. ev) +. ev);
      pairs := !pairs + n);
  (!load, !pairs)

let copy ?capacity ~event_rates a =
  let fresh = create ~capacity:(Option.value capacity ~default:a.cap) in
  for id = 0 to num_vms a - 1 do
    let src = Vec.get a.groups id in
    let g = empty_groups (src.slots - src.dead) in
    iter_slots src (fun s ->
        let n = src.lens.(s) in
        let d = g.slots in
        g.topics.(d) <- src.topics.(s);
        g.lens.(d) <- n;
        g.runs.(d) <- Array.sub src.runs.(s) 0 n;
        g.slots <- d + 1);
    let load, pairs = canonical_load g ~event_rates in
    push_vm fresh ~load ~pairs g
  done;
  fresh

(* Reorder the slots by topic in place, dropping dead ones. *)
let sort_slots g =
  let order = ordered_slots g in
  let topics = Array.map (fun s -> g.topics.(s)) order in
  let lens = Array.map (fun s -> g.lens.(s)) order in
  let runs = Array.map (fun s -> g.runs.(s)) order in
  Option.iter
    (fun index -> Array.iteri (fun d topic -> Int_table.set index topic d) topics)
    g.index;
  g.topics <- topics;
  g.lens <- lens;
  g.runs <- runs;
  g.slots <- Array.length order;
  g.dead <- 0;
  g.sorted <- true

let canonicalize a ~event_rates =
  for id = 0 to num_vms a - 1 do
    let g = Vec.get a.groups id in
    if not g.sorted then sort_slots g else if g.dead > 0 then compact_slots g;
    let load, pairs = canonical_load g ~event_rates in
    Arena.Fbuf.set a.loads id load;
    Arena.Ibuf.set a.npairs id pairs
  done

let find_pair_vm a ~topic ~subscriber =
  let n = num_vms a in
  let rec scan i =
    if i >= n then None
    else
      let g = Vec.get a.groups i in
      let s = slot_of g topic in
      if s <> Int_table.absent && index_in g.runs.(s) g.lens.(s) subscriber >= 0 then
        Some (vm_at a i)
      else scan (i + 1)
  in
  scan 0
