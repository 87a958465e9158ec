type topic = int
type subscriber = int

type t = {
  event_rates : float array;
  interests : topic array array;
  num_pairs : int;
  interest_rate : float array;
  total_event_rate : float;
  mutable followers : subscriber array array option;
}

let validate ~event_rates ~interests =
  let num_topics = Array.length event_rates in
  Array.iteri
    (fun t ev ->
      if not (ev > 0.) then
        invalid_arg
          (Printf.sprintf "Workload.create: event rate of topic %d is %g (must be > 0)" t ev))
    event_rates;
  Array.iteri
    (fun v tv ->
      Array.iter
        (fun t ->
          if t < 0 || t >= num_topics then
            invalid_arg
              (Printf.sprintf "Workload.create: subscriber %d references topic %d out of range"
                 v t))
        tv;
      for i = 1 to Array.length tv - 1 do
        if tv.(i) = tv.(i - 1) then
          invalid_arg
            (Printf.sprintf "Workload.create: subscriber %d lists topic %d twice" v tv.(i))
      done)
    interests

(* Every subscriber's interest rate is this left fold, whichever
   constructor computes it, so a workload evolved by [unsafe_evolve] and
   one built from scratch agree bit for bit. *)
let rate_of_interests event_rates tv =
  Array.fold_left (fun acc t -> acc +. event_rates.(t)) 0. tv

let build ~event_rates ~interests =
  let num_pairs = Array.fold_left (fun acc tv -> acc + Array.length tv) 0 interests in
  let interest_rate = Array.map (rate_of_interests event_rates) interests in
  let total_event_rate = Array.fold_left ( +. ) 0. event_rates in
  { event_rates; interests; num_pairs; interest_rate; total_event_rate; followers = None }

(* Interest and selection rows are mostly a few ids long, where an
   insertion sort beats [Array.sort]'s heap sort; a longer row goes to
   [Array.sort], so no row costs O(k^2). Ints sort to one sequence under
   any correct sort, so the cutoff never changes a result. *)
let sort_ids_cutoff = 32

let sort_ids (a : int array) =
  let k = Array.length a in
  if k > sort_ids_cutoff then Array.sort Int.compare a
  else
    for i = 1 to k - 1 do
      let x = Array.unsafe_get a i in
      let j = ref (i - 1) in
      while !j >= 0 && Array.unsafe_get a !j > x do
        Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
        decr j
      done;
      Array.unsafe_set a (!j + 1) x
    done

let create ~event_rates ~interests =
  let interests = Array.map (fun tv -> Array.copy tv) interests in
  Array.iter sort_ids interests;
  validate ~event_rates ~interests;
  build ~event_rates:(Array.copy event_rates) ~interests

let unsafe_create ?followers ~event_rates ~interests () =
  let w = build ~event_rates ~interests in
  w.followers <- followers;
  w

let unsafe_evolve base ?followers ~event_rates ~interests ~touched () =
  let n = Array.length interests and base_n = Array.length base.interests in
  let interest_rate = Array.make n 0. in
  Array.blit base.interest_rate 0 interest_rate 0 base_n;
  let refresh v = interest_rate.(v) <- rate_of_interests event_rates interests.(v) in
  let num_pairs = ref base.num_pairs in
  List.iter
    (fun v ->
      num_pairs := !num_pairs + Array.length interests.(v) - Array.length base.interests.(v);
      refresh v)
    touched;
  for v = base_n to n - 1 do
    num_pairs := !num_pairs + Array.length interests.(v);
    refresh v
  done;
  (* A rate change moves the interest rate of the topic's followers. A
     follower that (un)subscribed in the same change is touched anyway,
     so the base's followers cover everyone else. *)
  let base_rates = base.event_rates in
  let rate_changed t = event_rates.(t) <> base_rates.(t) in
  (match base.followers with
  | Some fol ->
      Array.iteri (fun t vs -> if rate_changed t then Array.iter refresh vs) fol
  | None ->
      let moved = ref false in
      Array.iteri (fun t _ -> if rate_changed t then moved := true) base_rates;
      if !moved then
        for v = 0 to base_n - 1 do
          refresh v
        done);
  {
    event_rates;
    interests;
    num_pairs = !num_pairs;
    interest_rate;
    total_event_rate = Array.fold_left ( +. ) 0. event_rates;
    followers;
  }

(* Incremental construction for streaming trace generation: subscribers
   arrive one at a time and the builder takes ownership of each interest
   array, so the workload is assembled without a second copy of the edge
   list ([create] copies every row; at full trace scale that copy is the
   peak-memory term). [finish] validates exactly like [create]. *)
module Builder = struct
  type workload = t
  type t = { mutable interests : topic array array; mutable len : int }

  let create ?(capacity = 1024) () = { interests = Array.make (max capacity 1) [||]; len = 0 }

  let add b tv =
    sort_ids tv;
    if b.len = Array.length b.interests then begin
      let fresh = Array.make (2 * Array.length b.interests) [||] in
      Array.blit b.interests 0 fresh 0 b.len;
      b.interests <- fresh
    end;
    b.interests.(b.len) <- tv;
    b.len <- b.len + 1

  let num_subscribers b = b.len

  let finish b ~event_rates : workload =
    let interests =
      if Array.length b.interests = b.len then b.interests
      else Array.sub b.interests 0 b.len
    in
    let event_rates = Array.copy event_rates in
    validate ~event_rates ~interests;
    build ~event_rates ~interests
end

let cached_followers w = w.followers

let num_topics w = Array.length w.event_rates
let num_subscribers w = Array.length w.interests
let num_pairs w = w.num_pairs
let event_rate w t = w.event_rates.(t)
let event_rates w = w.event_rates
let interests w v = w.interests.(v)
let interest_rate w v = w.interest_rate.(v)
let total_event_rate w = w.total_event_rate

let compute_followers w =
  let counts = Array.make (num_topics w) 0 in
  Array.iter (fun tv -> Array.iter (fun t -> counts.(t) <- counts.(t) + 1) tv) w.interests;
  let followers = Array.map (fun c -> Array.make c 0) counts in
  let fill = Array.make (num_topics w) 0 in
  Array.iteri
    (fun v tv ->
      Array.iter
        (fun t ->
          followers.(t).(fill.(t)) <- v;
          fill.(t) <- fill.(t) + 1)
        tv)
    w.interests;
  (* Subscribers were visited in ascending order, so each list is sorted. *)
  followers

let followers w t =
  match w.followers with
  | Some f -> f.(t)
  | None ->
      let f = compute_followers w in
      w.followers <- Some f;
      f.(t)

let num_followers w t = Array.length (followers w t)

let tau_v w ~tau v = Float.min tau w.interest_rate.(v)

let iter_pairs w f =
  Array.iteri (fun v tv -> Array.iter (fun t -> f t v) tv) w.interests

let subscribers_with_interests w =
  let out = ref [] in
  for v = num_subscribers w - 1 downto 0 do
    if Array.length w.interests.(v) > 0 then out := v :: !out
  done;
  !out

let sample_subscribers rng ~fraction w =
  if fraction < 0. || fraction > 1. then
    invalid_arg "Workload.sample_subscribers: fraction outside [0,1]";
  let kept = ref [] in
  for v = num_subscribers w - 1 downto 0 do
    if Mcss_prng.Rng.bernoulli rng fraction then kept := v :: !kept
  done;
  let interests =
    Array.of_list (List.map (fun v -> Array.copy w.interests.(v)) !kept)
  in
  create ~event_rates:w.event_rates ~interests

let pp_summary ppf w =
  Format.fprintf ppf "workload: %d topics, %d subscribers, %d pairs, total rate %.1f"
    (num_topics w) (num_subscribers w) w.num_pairs w.total_event_rate
