(* [Mcss_core.Allocation] as it stood before the flat topic-group
   layout, copied verbatim (one [Hashtbl] of subscriber [Vec]s per VM,
   walked in bucket order): the oracle for the differential properties
   in [Test_allocation]. Only the two module aliases below are new. *)

module Arena = Mcss_core.Arena
module Vec = Mcss_core.Vec
module Workload = Mcss_workload.Workload

(* Per-VM residuals (load, pair count) live in flat arrays indexed by VM
   id, so the packing hot loop updates an unboxed float slab instead of a
   mutable float field in a mixed record (which OCaml boxes on every
   write). A [vm] is just a handle: the id plus its owner. *)
type t = {
  cap : float;
  loads : Arena.Fbuf.t;
  npairs : Arena.Ibuf.t;
  tables : (Workload.topic, Workload.subscriber Vec.t) Hashtbl.t Vec.t;
}

type vm = { id : int; st : t }

let create ~capacity =
  if not (capacity > 0.) then invalid_arg "Allocation.create: capacity must be positive";
  {
    cap = capacity;
    loads = Arena.Fbuf.create ();
    npairs = Arena.Ibuf.create ();
    tables = Vec.create ();
  }

let capacity a = a.cap
let num_vms a = Vec.length a.tables
let vm_at a id = { id; st = a }
let vms a = Array.init (num_vms a) (vm_at a)

let iter_vms a f =
  for id = 0 to num_vms a - 1 do
    f (vm_at a id)
  done

let deploy a =
  let id = num_vms a in
  Arena.Fbuf.push a.loads 0.;
  Arena.Ibuf.push a.npairs 0;
  Vec.push a.tables (Hashtbl.create 8);
  vm_at a id

let vm_id vm = vm.id
let load vm = Arena.Fbuf.get vm.st.loads vm.id
let load_of a id = Arena.Fbuf.get a.loads id
let free a vm = a.cap -. load vm
let free_of a id = a.cap -. Arena.Fbuf.get a.loads id
let table vm = Vec.get vm.st.tables vm.id
let hosts_topic vm t = Hashtbl.mem (table vm) t
let num_pairs_on vm = Arena.Ibuf.get vm.st.npairs vm.id
let num_topics_on vm = Hashtbl.length (table vm)

let place_delta vm ~topic ~ev ~count =
  let incoming = if hosts_topic vm topic then 0. else ev in
  (float_of_int count *. ev) +. incoming

let max_pairs_that_fit a vm ~topic ~ev ~eps =
  let room = a.cap -. load vm +. eps in
  let incoming = if hosts_topic vm topic then 0. else ev in
  let outgoing_room = room -. incoming in
  if outgoing_room < ev then 0 else int_of_float (floor (outgoing_room /. ev))

let place a vm ~topic ~ev ~subscribers ~from ~count =
  ignore a;
  if count < 0 || from < 0 || from + count > Array.length subscribers then
    invalid_arg "Allocation.place: subscriber range out of bounds";
  if count > 0 then begin
    let st = vm.st in
    Arena.Fbuf.add st.loads vm.id (place_delta vm ~topic ~ev ~count);
    let tbl = table vm in
    let slot =
      match Hashtbl.find_opt tbl topic with
      | Some v -> v
      | None ->
          let v = Vec.create () in
          Hashtbl.add tbl topic v;
          v
    in
    for i = from to from + count - 1 do
      Vec.push slot subscribers.(i)
    done;
    Arena.Ibuf.set st.npairs vm.id (Arena.Ibuf.get st.npairs vm.id + count)
  end

let total_load a = Arena.Fbuf.sum a.loads

let iter_vm_pairs vm f =
  Hashtbl.iter (fun topic subs -> Vec.iter (fun v -> f topic v) subs) (table vm)

let topics_on vm = Hashtbl.fold (fun t _ acc -> t :: acc) (table vm) [] |> List.sort compare

let subscribers_of_topic_on vm t =
  match Hashtbl.find_opt (table vm) t with
  | Some subs -> Vec.to_list subs
  | None -> []

let remove a vm ~topic ~ev ~subscriber =
  ignore a;
  let st = vm.st in
  let tbl = table vm in
  match Hashtbl.find_opt tbl topic with
  | None -> false
  | Some subs -> (
      match Vec.find_index (fun v -> v = subscriber) subs with
      | None -> false
      | Some i ->
          Vec.swap_remove subs i;
          Arena.Ibuf.set st.npairs vm.id (Arena.Ibuf.get st.npairs vm.id - 1);
          let last = Vec.is_empty subs in
          if last then Hashtbl.remove tbl topic;
          Arena.Fbuf.set st.loads vm.id
            (Arena.Fbuf.get st.loads vm.id -. ev -. (if last then ev else 0.));
          true)

let rebuild_loads a ~event_rates =
  for id = 0 to num_vms a - 1 do
    let load = ref 0. in
    let pairs = ref 0 in
    Hashtbl.iter
      (fun t subs ->
        let n = Vec.length subs in
        load := !load +. (float_of_int (n + 1) *. event_rates.(t));
        pairs := !pairs + n)
      (Vec.get a.tables id);
    Arena.Fbuf.set a.loads id !load;
    Arena.Ibuf.set a.npairs id !pairs
  done

let compact a =
  let fresh = create ~capacity:a.cap in
  let mapping = Array.make (num_vms a) (-1) in
  for id = 0 to num_vms a - 1 do
    if Arena.Ibuf.get a.npairs id > 0 then begin
      mapping.(id) <- num_vms fresh;
      Arena.Fbuf.push fresh.loads (Arena.Fbuf.get a.loads id);
      Arena.Ibuf.push fresh.npairs (Arena.Ibuf.get a.npairs id);
      (* Placements shared structurally, as before the flat refactor. *)
      Vec.push fresh.tables (Vec.get a.tables id)
    end
  done;
  (fresh, mapping)

(* Plan_io's order: VMs by id, topics sorted, each topic's subscribers
   as one run. That is the [deploy]/[place] sequence a
   [Plan_io.to_string]/[of_string] round trip makes, done in bulk: the
   same fresh tables with the same insertion order, and each VM's load
   summed from 0 in the same order, one [place_delta] per topic. [run]
   is applied to each subscriber run (a copy, or the run itself). *)
let canonical_table ~event_rates ~run src =
  let topics = Array.make (Hashtbl.length src) 0 in
  let k = ref 0 in
  Hashtbl.iter
    (fun t _ ->
      topics.(!k) <- t;
      incr k)
    src;
  Array.sort Int.compare topics;
  let tbl = Hashtbl.create 8 in
  let load = ref 0. and pairs = ref 0 in
  Array.iter
    (fun topic ->
      let subs = run (Hashtbl.find src topic) in
      let n = Vec.length subs and ev = event_rates.(topic) in
      Hashtbl.add tbl topic subs;
      load := !load +. ((float_of_int n *. ev) +. ev);
      pairs := !pairs + n)
    topics;
  (tbl, !load, !pairs)

let copy ?capacity ~event_rates a =
  let fresh = create ~capacity:(Option.value capacity ~default:a.cap) in
  for id = 0 to num_vms a - 1 do
    let tbl, load, pairs =
      canonical_table ~event_rates ~run:Vec.copy (Vec.get a.tables id)
    in
    Arena.Fbuf.push fresh.loads load;
    Arena.Ibuf.push fresh.npairs pairs;
    Vec.push fresh.tables tbl
  done;
  fresh

let canonicalize a ~event_rates =
  for id = 0 to num_vms a - 1 do
    let tbl, load, pairs =
      canonical_table ~event_rates ~run:Fun.id (Vec.get a.tables id)
    in
    Arena.Fbuf.set a.loads id load;
    Arena.Ibuf.set a.npairs id pairs;
    Vec.set a.tables id tbl
  done

let find_pair_vm a ~topic ~subscriber =
  let n = num_vms a in
  let rec scan i =
    if i >= n then None
    else
      match Hashtbl.find_opt (Vec.get a.tables i) topic with
      | Some subs when Vec.exists (fun v -> v = subscriber) subs -> Some (vm_at a i)
      | _ -> scan (i + 1)
  in
  scan 0
