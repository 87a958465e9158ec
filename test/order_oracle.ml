(* [Mcss_core.Cbp.order] as it stood before its sorted orders became a
   radix sort, copied verbatim (a stable merge sort of the ascending
   ids on the negated key): the oracle for the order property in
   [Test_packing]. Only the module aliases are new. *)

module Workload = Mcss_workload.Workload
module Problem = Mcss_core.Problem
module Arena = Mcss_core.Arena

type topic_order = Mcss_core.Cbp.topic_order =
  | Arbitrary
  | Expensive_first
  | Heaviest_group_first

(* Both sorted orders compare the negated key first and the topic id
   second — the (-key, id) order, as a typed comparison on the ids. A
   stable sort of the ascending ids on the key alone breaks ties by id.
   The keys sit in a float array indexed by topic, so comparing two ids
   reads two unboxed floats. The sort is a top-level merge sort with
   every input an argument, so no comparison goes through a closure and
   none allocates. *)
let key_after (key : float array) a b =
  Float.compare (-.Array.unsafe_get key a) (-.Array.unsafe_get key b) > 0

(* Stable insertion sort of [ids.(lo) .. ids.(hi - 1)]: an id moves
   left only past ids whose key is strictly after its own. *)
let insertion_by_key key (ids : int array) lo hi =
  for i = lo + 1 to hi - 1 do
    let x = ids.(i) in
    let j = ref (i - 1) in
    while !j >= lo && key_after key ids.(!j) x do
      ids.(!j + 1) <- ids.(!j);
      decr j
    done;
    ids.(!j + 1) <- x
  done

(* Merge the sorted runs [src.(lo) .. src.(mid - 1)] and [src.(mid) ..
   src.(hi - 1)] into [dst] at [lo], taking the left run's id on a tie. *)
let merge_by_key key (src : int array) (dst : int array) lo mid hi =
  let i = ref lo and j = ref mid in
  for k = lo to hi - 1 do
    if !i < mid && (!j >= hi || not (key_after key src.(!i) src.(!j))) then begin
      dst.(k) <- src.(!i);
      incr i
    end
    else begin
      dst.(k) <- src.(!j);
      incr j
    end
  done

(* Stable merge sort of [ids.(lo) .. ids.(hi - 1)] with scratch [tmp]. *)
let rec sort_by_key key ids tmp lo hi =
  if hi - lo <= 16 then insertion_by_key key ids lo hi
  else begin
    let mid = (lo + hi) / 2 in
    sort_by_key key ids tmp lo mid;
    sort_by_key key ids tmp mid hi;
    if key_after key ids.(mid - 1) ids.(mid) then begin
      Array.blit ids lo tmp lo (hi - lo);
      merge_by_key key tmp ids lo mid hi
    end
  end

let order topic_order (p : Problem.t) (g : Arena.Transpose.t) =
  let ev = Workload.event_rates p.Problem.workload in
  let size t = Arena.Transpose.stop g t - Arena.Transpose.start g t in
  let ids = Arena.Ibuf.create () in
  for t = 0 to Array.length ev - 1 do
    if size t > 0 then Arena.Ibuf.push ids t
  done;
  let ids = Arena.Ibuf.to_array ids in
  let by key =
    let n = Array.length ids in
    sort_by_key key ids (Array.make n 0) 0 n
  in
  (match topic_order with
  | Arbitrary -> ()
  | Expensive_first -> by ev
  | Heaviest_group_first -> by (Array.mapi (fun t ev -> float_of_int (size t) *. ev) ev));
  ids
