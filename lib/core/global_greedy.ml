module Workload = Mcss_workload.Workload

(* A small binary max-heap of (ratio, topic), local to this module. *)
module Heap = struct
  type t = { mutable keys : float array; mutable topics : int array; mutable len : int }

  let create () = { keys = [||]; topics = [||]; len = 0 }

  let swap h i j =
    let k = h.keys.(i) in
    h.keys.(i) <- h.keys.(j);
    h.keys.(j) <- k;
    let t = h.topics.(i) in
    h.topics.(i) <- h.topics.(j);
    h.topics.(j) <- t

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if h.keys.(i) > h.keys.(parent) then begin
        swap h i parent;
        sift_up h parent
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let largest = ref i in
    if l < h.len && h.keys.(l) > h.keys.(!largest) then largest := l;
    if r < h.len && h.keys.(r) > h.keys.(!largest) then largest := r;
    if !largest <> i then begin
      swap h i !largest;
      sift_down h !largest
    end

  let push h key topic =
    if h.len = Array.length h.keys then begin
      let cap = max 16 (2 * h.len) in
      let keys = Array.make cap 0. and topics = Array.make cap 0 in
      Array.blit h.keys 0 keys 0 h.len;
      Array.blit h.topics 0 topics 0 h.len;
      h.keys <- keys;
      h.topics <- topics
    end;
    h.keys.(h.len) <- key;
    h.topics.(h.len) <- topic;
    h.len <- h.len + 1;
    sift_up h (h.len - 1)

  let pop h =
    if h.len = 0 then None
    else begin
      let key = h.keys.(0) and topic = h.topics.(0) in
      h.len <- h.len - 1;
      if h.len > 0 then begin
        h.keys.(0) <- h.keys.(h.len);
        h.topics.(0) <- h.topics.(h.len);
        sift_down h 0
      end;
      Some (key, topic)
    end

  let peek_key h = if h.len = 0 then None else Some h.keys.(0)
end

let select (p : Problem.t) =
  let w = p.Problem.workload in
  let eps = Problem.epsilon p in
  let num_subscribers = Workload.num_subscribers w in
  let rem = Array.init num_subscribers (fun v -> Problem.tau_v p v) in
  let unsatisfied = ref 0 in
  Array.iter (fun r -> if r > eps then incr unsatisfied) rem;
  let chosen : int Vec.t array = Array.init num_subscribers (fun _ -> Vec.create ()) in
  let pair_chosen : (int * int, unit) Hashtbl.t = Hashtbl.create 1024 in
  let topic_chosen = Array.make (Workload.num_topics w) false in
  (* Current aggregate ratio of a topic; 0 when it cannot help anyone. *)
  let ratio t =
    let ev = Workload.event_rate w t in
    let benefit = ref 0. in
    let new_pairs = ref 0 in
    Array.iter
      (fun v ->
        if rem.(v) > eps && not (Hashtbl.mem pair_chosen (t, v)) then begin
          benefit := !benefit +. Float.min ev rem.(v);
          incr new_pairs
        end)
      (Workload.followers w t);
    if !new_pairs = 0 then 0.
    else
      let incoming = if topic_chosen.(t) then 0. else ev in
      !benefit /. ((float_of_int !new_pairs *. ev) +. incoming)
  in
  let heap = Heap.create () in
  for t = 0 to Workload.num_topics w - 1 do
    let r = ratio t in
    if r > 0. then Heap.push heap r t
  done;
  let take t =
    let ev = Workload.event_rate w t in
    topic_chosen.(t) <- true;
    Array.iter
      (fun v ->
        if rem.(v) > eps && not (Hashtbl.mem pair_chosen (t, v)) then begin
          Hashtbl.add pair_chosen (t, v) ();
          Vec.push chosen.(v) t;
          rem.(v) <- rem.(v) -. ev;
          if rem.(v) <= eps then decr unsatisfied
        end)
      (Workload.followers w t)
  in
  (* Lazy greedy: benefits only decay, so a popped entry whose recomputed
     ratio still tops the heap is the true argmax. *)
  while !unsatisfied > 0 do
    match Heap.pop heap with
    | None ->
        (* Cannot happen: an unsatisfied subscriber always has an
           unchosen interest with positive benefit. *)
        assert false
    | Some (stale, t) ->
        let fresh = ratio t in
        if fresh <= 0. then ()
        else begin
          ignore stale;
          match Heap.peek_key heap with
          | Some best when fresh < best -. 1e-15 -> Heap.push heap fresh t
          | _ -> take t
        end
  done;
  let chosen_arrays =
    Array.map
      (fun vec ->
        let a = Vec.to_array vec in
        Workload.sort_ids a;
        a)
      chosen
  in
  let selected_rate =
    Array.map
      (Array.fold_left (fun acc t -> acc +. Workload.event_rate w t) 0.)
      chosen_arrays
  in
  let num_pairs = Array.fold_left (fun acc a -> acc + Array.length a) 0 chosen_arrays in
  {
    Selection.chosen = chosen_arrays;
    selected_rate;
    num_pairs;
    outgoing_rate = Array.fold_left ( +. ) 0. selected_rate;
  }
