let follower_counts w =
  let counts = Array.make (Workload.num_topics w) 0 in
  Workload.iter_pairs w (fun t _v -> counts.(t) <- counts.(t) + 1);
  counts

let interest_counts w =
  Array.init (Workload.num_subscribers w) (fun v ->
      Array.length (Workload.interests w v))

(* Generic CCDF over a sorted copy: walk runs of equal values; the CCDF at a
   value x is the fraction of samples strictly above x. *)
let ccdf_sorted n get =
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    let x = get !i in
    let j = ref !i in
    while !j < n && get !j = x do incr j done;
    let above = n - !j in
    out := (x, float_of_int above /. float_of_int n) :: !out;
    i := !j
  done;
  List.rev !out

let ccdf_int xs =
  let n = Array.length xs in
  if n = 0 then []
  else begin
    let sorted = Array.copy xs in
    Array.sort compare sorted;
    ccdf_sorted n (fun i -> sorted.(i))
    |> List.map (fun (x, p) -> (x, p))
  end

let ccdf_float xs =
  let n = Array.length xs in
  if n = 0 then []
  else begin
    let sorted = Array.copy xs in
    Array.sort compare sorted;
    ccdf_sorted n (fun i -> sorted.(i))
  end

let subscription_cardinality w v =
  100. *. Workload.interest_rate w v /. Workload.total_event_rate w

let subscription_cardinalities w =
  Array.init (Workload.num_subscribers w) (subscription_cardinality w)

(* Mean of [value] grouped by integer [key], ascending by key. *)
let mean_by_key keys values =
  let tbl = Hashtbl.create 1024 in
  Array.iteri
    (fun i k ->
      let sum, n = try Hashtbl.find tbl k with Not_found -> (0., 0) in
      Hashtbl.replace tbl k (sum +. values.(i), n + 1))
    keys;
  Hashtbl.fold (fun k (sum, n) acc -> (k, sum /. float_of_int n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let mean_rate_by_followers w =
  mean_by_key (follower_counts w) (Workload.event_rates w)

let mean_sc_by_interests w =
  let keys = interest_counts w in
  let scs = subscription_cardinalities w in
  mean_by_key keys scs |> List.filter (fun (k, _) -> k > 0)

let quantile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.quantile: empty sample";
  if q < 0. || q > 1. then invalid_arg "Stats.quantile: q outside [0,1]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (floor pos) in
  let hi = int_of_float (ceil pos) in
  if lo = hi then sorted.(lo)
  else
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)

let nearest_rank xs p =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let sorted = Array.copy xs in
    Array.sort compare sorted;
    sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))
  end

type summary = {
  count : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let summarize xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.summarize: empty sample";
  let sum = Array.fold_left ( +. ) 0. xs in
  {
    count = n;
    mean = sum /. float_of_int n;
    min = Array.fold_left Float.min xs.(0) xs;
    max = Array.fold_left Float.max xs.(0) xs;
    p50 = quantile xs 0.5;
    p90 = quantile xs 0.9;
    p99 = quantile xs 0.99;
  }
