(* Classic hash-map + doubly-linked recency list. [head] is most
   recently used, [tail] least. Nodes are never shared outside the
   mutex, so the structure needs no atomics. *)

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
}

type 'a t = {
  cap : int;
  table : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;
  mutable tail : 'a node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  lock : Mutex.t;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Plan_cache.create: capacity must be >= 1";
  {
    cap = capacity;
    table = Hashtbl.create (min capacity 64);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    lock = Mutex.create ();
  }

let capacity c = c.cap

let locked c f =
  Mutex.lock c.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.lock) f

let unlink c n =
  (match n.prev with Some p -> p.next <- n.next | None -> c.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> c.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front c n =
  n.next <- c.head;
  n.prev <- None;
  (match c.head with Some h -> h.prev <- Some n | None -> c.tail <- Some n);
  c.head <- Some n

let lookup c key ~count =
  locked c (fun () ->
      match Hashtbl.find_opt c.table key with
      | Some n ->
          if count then c.hits <- c.hits + 1;
          unlink c n;
          push_front c n;
          Some n.value
      | None ->
          if count then c.misses <- c.misses + 1;
          None)

let find c key = lookup c key ~count:true
let promote c key = lookup c key ~count:false

let add c key value =
  locked c (fun () ->
      match Hashtbl.find_opt c.table key with
      | Some n ->
          n.value <- value;
          unlink c n;
          push_front c n
      | None ->
          if Hashtbl.length c.table >= c.cap then begin
            match c.tail with
            | Some lru ->
                unlink c lru;
                Hashtbl.remove c.table lru.key;
                c.evictions <- c.evictions + 1
            | None -> ()
          end;
          let n = { key; value; prev = None; next = None } in
          Hashtbl.replace c.table key n;
          push_front c n)

let remove c key =
  locked c (fun () ->
      match Hashtbl.find_opt c.table key with
      | Some n ->
          unlink c n;
          Hashtbl.remove c.table key
      | None -> ())

let length c = locked c (fun () -> Hashtbl.length c.table)

let clear c =
  locked c (fun () ->
      Hashtbl.reset c.table;
      c.head <- None;
      c.tail <- None)

let to_list c =
  locked c (fun () ->
      (* Walk tail→head collecting MRU-first, then reverse to LRU-first:
         re-adding in that order reproduces the recency list. *)
      let rec walk acc = function
        | None -> acc
        | Some n -> walk ((n.key, n.value) :: acc) n.prev
      in
      List.rev (walk [] c.tail))

type stats = { hits : int; misses : int; evictions : int; entries : int }

let stats c =
  locked c (fun () ->
      {
        hits = c.hits;
        misses = c.misses;
        evictions = c.evictions;
        entries = Hashtbl.length c.table;
      })

let hit_ratio s =
  let total = s.hits + s.misses in
  if total = 0 then 0. else float_of_int s.hits /. float_of_int total
