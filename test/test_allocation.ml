(* Tests for the allocation state: incremental load bookkeeping per Eq. 2. *)

module Allocation = Mcss_core.Allocation
module Plan_io = Mcss_core.Plan_io
module Workload = Mcss_workload.Workload
module Rng = Mcss_prng.Rng

let test_empty_fleet () =
  let a = Allocation.create ~capacity:100. in
  Helpers.check_int "no VMs" 0 (Allocation.num_vms a);
  Helpers.check_float "no load" 0. (Allocation.total_load a)

let test_create_rejects () =
  Alcotest.check_raises "capacity"
    (Invalid_argument "Allocation.create: capacity must be positive") (fun () ->
      ignore (Allocation.create ~capacity:0.))

let test_deploy_ids () =
  let a = Allocation.create ~capacity:100. in
  let b0 = Allocation.deploy a in
  let b1 = Allocation.deploy a in
  Helpers.check_int "id 0" 0 (Allocation.vm_id b0);
  Helpers.check_int "id 1" 1 (Allocation.vm_id b1);
  Helpers.check_int "two VMs" 2 (Allocation.num_vms a)

let test_place_delta () =
  let a = Allocation.create ~capacity:100. in
  let b = Allocation.deploy a in
  (* New topic: count outgoing plus one incoming. *)
  Helpers.check_float "first placement" 30. (Allocation.place_delta b ~topic:0 ~ev:10. ~count:2);
  Allocation.place a b ~topic:0 ~ev:10. ~subscribers:[| 4; 7 |] ~from:0 ~count:2;
  Helpers.check_float "load" 30. (Allocation.load b);
  (* Existing topic: incoming already paid. *)
  Helpers.check_float "second placement" 10. (Allocation.place_delta b ~topic:0 ~ev:10. ~count:1);
  Allocation.place a b ~topic:0 ~ev:10. ~subscribers:[| 9 |] ~from:0 ~count:1;
  Helpers.check_float "load" 40. (Allocation.load b);
  Helpers.check_float "free" 60. (Allocation.free a b);
  Helpers.check_int "pairs" 3 (Allocation.num_pairs_on b);
  Helpers.check_int "topics" 1 (Allocation.num_topics_on b)

let test_hosts_topic () =
  let a = Allocation.create ~capacity:100. in
  let b = Allocation.deploy a in
  Helpers.check_bool "not yet" false (Allocation.hosts_topic b 3);
  Allocation.place a b ~topic:3 ~ev:5. ~subscribers:[| 1 |] ~from:0 ~count:1;
  Helpers.check_bool "now" true (Allocation.hosts_topic b 3)

let test_max_pairs_that_fit () =
  let a = Allocation.create ~capacity:100. in
  let b = Allocation.deploy a in
  (* Empty VM, new topic rate 10: (k+1)*10 <= 100 -> k = 9. *)
  Helpers.check_int "fresh topic" 9 (Allocation.max_pairs_that_fit a b ~topic:0 ~ev:10. ~eps:1e-9);
  Allocation.place a b ~topic:0 ~ev:10. ~subscribers:[| 0 |] ~from:0 ~count:1;
  (* Load 20, topic present: k*10 <= 80 -> k = 8. *)
  Helpers.check_int "present topic" 8 (Allocation.max_pairs_that_fit a b ~topic:0 ~ev:10. ~eps:1e-9);
  (* Other topic rate 45: (k+1)*45 <= 80 -> k = 0. *)
  Helpers.check_int "does not fit" 0 (Allocation.max_pairs_that_fit a b ~topic:1 ~ev:45. ~eps:1e-9);
  (* Other topic rate 40: (k+1)*40 <= 80 -> k = 1. *)
  Helpers.check_int "just fits" 1 (Allocation.max_pairs_that_fit a b ~topic:1 ~ev:40. ~eps:1e-9)

let test_place_range_checks () =
  let a = Allocation.create ~capacity:100. in
  let b = Allocation.deploy a in
  Alcotest.check_raises "overflow"
    (Invalid_argument "Allocation.place: subscriber range out of bounds") (fun () ->
      Allocation.place a b ~topic:0 ~ev:1. ~subscribers:[| 1 |] ~from:0 ~count:2)

let test_place_zero_is_noop () =
  let a = Allocation.create ~capacity:100. in
  let b = Allocation.deploy a in
  Allocation.place a b ~topic:0 ~ev:1. ~subscribers:[||] ~from:0 ~count:0;
  Helpers.check_float "no load" 0. (Allocation.load b);
  Helpers.check_bool "no topic" false (Allocation.hosts_topic b 0)

let test_total_load_and_iteration () =
  let a = Allocation.create ~capacity:100. in
  let b0 = Allocation.deploy a in
  let b1 = Allocation.deploy a in
  Allocation.place a b0 ~topic:0 ~ev:10. ~subscribers:[| 1; 2 |] ~from:0 ~count:2;
  Allocation.place a b1 ~topic:1 ~ev:5. ~subscribers:[| 3 |] ~from:0 ~count:1;
  Helpers.check_float "total" 40. (Allocation.total_load a);
  let pairs = ref [] in
  Allocation.iter_vm_pairs b0 (fun t v -> pairs := (t, v) :: !pairs);
  Alcotest.(check (list (pair int int))) "b0 pairs" [ (0, 1); (0, 2) ] (List.sort compare !pairs);
  Alcotest.(check (list int)) "topics on b1" [ 1 ] (Allocation.topics_on b1);
  Alcotest.(check (list int)) "subs of t1 on b1" [ 3 ] (Allocation.subscribers_of_topic_on b1 1);
  Alcotest.(check (list int)) "absent topic" [] (Allocation.subscribers_of_topic_on b1 0)

let test_place_from_offset () =
  let a = Allocation.create ~capacity:100. in
  let b = Allocation.deploy a in
  Allocation.place a b ~topic:0 ~ev:1. ~subscribers:[| 10; 20; 30; 40 |] ~from:1 ~count:2;
  Alcotest.(check (list int)) "middle slice" [ 20; 30 ]
    (List.sort compare (Allocation.subscribers_of_topic_on b 0))

(* A random place/remove/compact history over a random workload with
   fractional rates (so float load sums depend on their order). Every
   pair is placed at most once, as in any plan, and the fleet never has
   more VMs than the workload has pairs, so its text always decodes. *)
let random_history seed =
  let rng = Rng.create seed in
  let nt = 1 + Rng.int rng 12 and ns = 1 + Rng.int rng 25 in
  let w =
    Workload.create
      ~event_rates:(Array.init nt (fun _ -> Rng.float rng 30. +. 0.1))
      ~interests:
        (Array.init ns (fun _ ->
             let row = Rng.sample_without_replacement rng (1 + Rng.int rng (min 5 nt)) nt in
             Array.sort compare row;
             row))
  in
  let rate t = Workload.event_rate w t in
  let a = ref (Allocation.create ~capacity:1000.) in
  (* (topic, subscriber) -> hosting VM id *)
  let placed = Hashtbl.create 64 in
  for _ = 1 to 1 + Rng.int rng 40 do
    match Rng.int rng 10 with
    | 0 ->
        let fresh, mapping = Allocation.compact !a in
        a := fresh;
        Hashtbl.filter_map_inplace (fun _ id -> Some mapping.(id)) placed
    | 1 | 2 | 3 when Hashtbl.length placed > 0 ->
        let pairs = Hashtbl.fold (fun k id acc -> (k, id) :: acc) placed [] in
        let (topic, subscriber), id =
          List.nth (List.sort compare pairs) (Rng.int rng (List.length pairs))
        in
        ignore
          (Allocation.remove !a (Allocation.vm_at !a id) ~topic ~ev:(rate topic)
             ~subscriber);
        Hashtbl.remove placed (topic, subscriber)
    | _ ->
        let topic = Rng.int rng nt in
        let free =
          List.filter
            (fun v ->
              Array.mem topic (Workload.interests w v) && not (Hashtbl.mem placed (topic, v)))
            (List.init ns Fun.id)
        in
        if free <> [] then begin
          let vm =
            if Allocation.num_vms !a = 0
               || (Allocation.num_vms !a < Workload.num_pairs w && Rng.int rng 3 = 0)
            then Allocation.deploy !a
            else Allocation.vm_at !a (Rng.int rng (Allocation.num_vms !a))
          in
          let subs = Array.of_list free in
          Rng.shuffle_in_place rng subs;
          let count = 1 + Rng.int rng (Array.length subs) in
          Allocation.place !a vm ~topic ~ev:(rate topic) ~subscribers:subs ~from:0 ~count;
          for i = 0 to count - 1 do
            Hashtbl.replace placed (topic, subs.(i)) (Allocation.vm_id vm)
          done
        end
  done;
  (w, !a)

let prop_copy_is_a_decode =
  Helpers.qtest ~count:300 "copy = plan-text round trip"
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (fun seed ->
      let w, a = random_history seed in
      let text = Plan_io.to_string a in
      let c = Allocation.copy ~event_rates:(Workload.event_rates w) a in
      let d, _ = Plan_io.of_string ~workload:w text in
      let bits x = Int64.bits_of_float x in
      Plan_io.to_string c = text
      && Allocation.num_vms c = Allocation.num_vms d
      && List.for_all
           (fun id -> bits (Allocation.load_of c id) = bits (Allocation.load_of d id))
           (List.init (Allocation.num_vms d) Fun.id)
      && begin
           (* Detached: emptying the copy leaves the source's text alone. *)
           Allocation.iter_vms c (fun vm ->
               List.iter
                 (fun topic ->
                   List.iter
                     (fun subscriber ->
                       ignore
                         (Allocation.remove c vm ~topic ~ev:(Workload.event_rate w topic)
                            ~subscriber))
                     (Allocation.subscribers_of_topic_on vm topic))
                 (Allocation.topics_on vm));
           Plan_io.to_string a = text
         end)

(* ----- differential properties against the pre-flat module ----- *)

module Oracle = Allocation_oracle

(* The oracle's fleet as [Plan_io.to_string] renders a fleet. *)
let oracle_text o =
  let b = Buffer.create 256 in
  Printf.bprintf b "mcss-plan 1\ncapacity %.17g\nvms %d\n" (Oracle.capacity o)
    (Oracle.num_vms o);
  Array.iter
    (fun vm ->
      List.iter
        (fun t ->
          let subs = Oracle.subscribers_of_topic_on vm t in
          Printf.bprintf b "place %d %d %d" (Oracle.vm_id vm) t (List.length subs);
          List.iter (Printf.bprintf b " %d") subs;
          Buffer.add_char b '\n')
        (Oracle.topics_on vm))
    (Oracle.vms o);
  Buffer.contents b

let random_rates rng ~integral nt =
  Array.init nt (fun _ ->
      if integral then float_of_int (1 + Rng.int rng 30) else Rng.float rng 30. +. 0.1)

let snapshot (a : Allocation.t) = Marshal.to_string a []

(* One random place/remove/compact/rebuild_loads/copy/canonicalize
   history, applied to both modules in lockstep and compared after every
   step. Subscriber runs may repeat a pair (both modules allow it), and
   topics arrive in random order, so VMs go out of topic order. *)
let differential_history ~integral seed =
  let rng = Rng.create seed in
  let nt = 1 + Rng.int rng 40 and ns = 1 + Rng.int rng 30 in
  let rates = ref (random_rates rng ~integral nt) in
  let a = ref (Allocation.create ~capacity:1000.)
  and o = ref (Oracle.create ~capacity:1000.) in
  (* A fractional [rebuild_loads] sums each VM in ascending topic order,
     where the oracle summed in bucket order: from then on only the
     ascending sum is checked, until [copy] or [canonicalize] re-sums
     both fleets the same way. *)
  let loads_comparable = ref true in
  let bits = Int64.bits_of_float in
  let check step what ok =
    if not ok then QCheck.Test.fail_reportf "seed %d, step %d: %s differs" seed step what
  in
  let pairs_of_new vm =
    let acc = ref [] in
    Allocation.iter_vm_pairs vm (fun t v -> acc := (t, v) :: !acc);
    List.sort compare !acc
  in
  let pairs_of_oracle vm =
    let acc = ref [] in
    Oracle.iter_vm_pairs vm (fun t v -> acc := (t, v) :: !acc);
    List.sort compare !acc
  in
  for step = 1 to 1 + Rng.int rng 150 do
    let nv = Allocation.num_vms !a in
    let op = Rng.int rng 20 in
    (match op with
    | 0 ->
        let a', ma = Allocation.compact !a and o', mo = Oracle.compact !o in
        a := a';
        o := o';
        check step "compact mapping" (ma = mo)
    | 1 ->
        rates := random_rates rng ~integral nt;
        Allocation.rebuild_loads !a ~event_rates:!rates;
        Oracle.rebuild_loads !o ~event_rates:!rates;
        if not integral then begin
          loads_comparable := false;
          Array.iteri
            (fun id vm ->
              let ascending =
                List.fold_left
                  (fun acc t ->
                    let n = List.length (Oracle.subscribers_of_topic_on vm t) in
                    acc +. (float_of_int (n + 1) *. !rates.(t)))
                  0. (Oracle.topics_on vm)
              in
              check step "ascending rebuilt load"
                (bits ascending = bits (Allocation.load_of !a id)))
            (Oracle.vms !o)
        end
    | 2 ->
        let capacity = if Rng.bool rng then Some (500. +. Rng.float rng 1000.) else None in
        if Rng.bool rng then rates := random_rates rng ~integral nt;
        let before = snapshot !a in
        let a' = Allocation.copy ?capacity ~event_rates:!rates !a in
        check step "source after copy" (snapshot !a = before);
        a := a';
        o := Oracle.copy ?capacity ~event_rates:!rates !o;
        loads_comparable := true
    | 3 ->
        Allocation.canonicalize !a ~event_rates:!rates;
        Oracle.canonicalize !o ~event_rates:!rates;
        loads_comparable := true
    | 4 | 5 | 6 | 7 | 8 | 9 when nv > 0 ->
        let id = Rng.int rng nv in
        let topic, subscriber =
          match pairs_of_new (Allocation.vm_at !a id) with
          | pairs when pairs <> [] && Rng.int rng 5 > 0 ->
              List.nth pairs (Rng.int rng (List.length pairs))
          | _ -> (Rng.int rng nt, Rng.int rng ns)
        in
        let ev = !rates.(topic) in
        let removed =
          Allocation.remove !a (Allocation.vm_at !a id) ~topic ~ev ~subscriber
        in
        check step "remove result"
          (removed = Oracle.remove !o (Oracle.vm_at !o id) ~topic ~ev ~subscriber)
    | _ ->
        let id =
          if nv = 0 || Rng.int rng 4 = 0 then begin
            ignore (Oracle.deploy !o);
            Allocation.vm_id (Allocation.deploy !a)
          end
          else Rng.int rng nv
        in
        let topic = Rng.int rng nt in
        let subscribers = Array.init (1 + Rng.int rng 6) (fun _ -> Rng.int rng ns) in
        let from = Rng.int rng (Array.length subscribers) in
        let count = Rng.int rng (Array.length subscribers - from + 1) in
        let ev = !rates.(topic) in
        Allocation.place !a (Allocation.vm_at !a id) ~topic ~ev ~subscribers ~from ~count;
        Oracle.place !o (Oracle.vm_at !o id) ~topic ~ev ~subscribers ~from ~count);
    let a = !a and o = !o in
    check step "VM count" (Allocation.num_vms a = Oracle.num_vms o);
    check step "capacity" (bits (Allocation.capacity a) = bits (Oracle.capacity o));
    check step "plan text" (Plan_io.to_string a = oracle_text o);
    if !loads_comparable then
      check step "total load" (bits (Allocation.total_load a) = bits (Oracle.total_load o));
    Array.iteri
      (fun id vo ->
        let va = Allocation.vm_at a id in
        check step "pair multiset" (pairs_of_new va = pairs_of_oracle vo);
        check step "pair count" (Allocation.num_pairs_on va = Oracle.num_pairs_on vo);
        check step "topic count" (Allocation.num_topics_on va = Oracle.num_topics_on vo);
        check step "topics" (Allocation.topics_on va = Oracle.topics_on vo);
        if !loads_comparable then
          check step "load" (bits (Allocation.load va) = bits (Oracle.load vo)))
      (Oracle.vms o);
    let topic = Rng.int rng nt and subscriber = Rng.int rng ns in
    check step "find_pair_vm"
      (Option.map Allocation.vm_id (Allocation.find_pair_vm a ~topic ~subscriber)
      = Option.map Oracle.vm_id (Oracle.find_pair_vm o ~topic ~subscriber))
  done;
  true

let prop_matches_oracle ~integral name =
  Helpers.qtest ~count:300 name
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (differential_history ~integral)

(* [place]'s append short-circuit (a topic above every slot of a VM
   with no index) against the pre-flat module, on place sequences that
   take it and that leave it: ascending topics, shuffled topics, topics
   repeated, and topics placed again after [remove] emptied their group
   (a dead slot below or at the new topic). Fractional rates, so a load
   summed another way shows in its bits. *)
let place_sequence_agrees seed =
  let rng = Rng.create seed in
  let nt = 1 + Rng.int rng 60 and ns = 1 + Rng.int rng 20 in
  let rates = random_rates rng ~integral:false nt in
  let a = Allocation.create ~capacity:1e6 and o = Oracle.create ~capacity:1e6 in
  let nv = 1 + Rng.int rng 3 in
  for _ = 1 to nv do
    ignore (Allocation.deploy a);
    ignore (Oracle.deploy o)
  done;
  let ascending = List.filter (fun _ -> Rng.int rng 3 > 0) (List.init nt Fun.id) in
  let topics =
    match Rng.int rng 4 with
    | 0 -> ascending
    | 1 ->
        let t = Array.of_list ascending in
        for i = Array.length t - 1 downto 1 do
          let j = Rng.int rng (i + 1) in
          let x = t.(i) in
          t.(i) <- t.(j);
          t.(j) <- x
        done;
        Array.to_list t
    | 2 -> List.concat_map (fun t -> if Rng.int rng 3 = 0 then [ t; t ] else [ t ]) ascending
    | _ -> ascending @ List.filter (fun _ -> Rng.bool rng) ascending
  in
  let bits = Int64.bits_of_float in
  let agree () =
    Plan_io.to_string a = oracle_text o
    && bits (Allocation.total_load a) = bits (Oracle.total_load o)
    && List.for_all
         (fun id -> bits (Allocation.load_of a id) = bits (Oracle.load_of o id))
         (List.init nv Fun.id)
  in
  List.for_all
    (fun topic ->
      let id = Rng.int rng nv in
      let subscribers = Array.init (1 + Rng.int rng 6) (fun _ -> Rng.int rng ns) in
      let from = Rng.int rng (Array.length subscribers) in
      let count = Rng.int rng (Array.length subscribers - from + 1) in
      let ev = rates.(topic) in
      Allocation.place a (Allocation.vm_at a id) ~topic ~ev ~subscribers ~from ~count;
      Oracle.place o (Oracle.vm_at o id) ~topic ~ev ~subscribers ~from ~count;
      (if Rng.int rng 4 = 0 then
         (* Empty one group of a random VM, leaving a dead slot. *)
         let id = Rng.int rng nv in
         match Allocation.topics_on (Allocation.vm_at a id) with
         | [] -> ()
         | hosted ->
             let t = List.nth hosted (Rng.int rng (List.length hosted)) in
             List.iter
               (fun subscriber ->
                 ignore
                   (Allocation.remove a (Allocation.vm_at a id) ~topic:t ~ev:rates.(t)
                      ~subscriber);
                 ignore
                   (Oracle.remove o (Oracle.vm_at o id) ~topic:t ~ev:rates.(t) ~subscriber))
               (Allocation.subscribers_of_topic_on (Allocation.vm_at a id) t));
      agree ())
    topics

let prop_place_sequences_match_oracle =
  Helpers.qtest ~count:500 "place sequences = pre-flat module (text, load bits)"
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    place_sequence_agrees

(* Whatever order topics were placed in, every walk sees them ascending,
   and walking never touches the fleet (domains walk shared fleets). *)
let prop_walks_ascending_and_pure =
  Helpers.qtest ~count:300 "walks ascend by topic and never mutate"
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (fun seed ->
      let w, a = random_history seed in
      let before = snapshot a in
      let rec ascending = function
        | x :: (y :: _ as rest) -> x < y && ascending rest
        | _ -> true
      in
      let rec nondecreasing = function
        | x :: (y :: _ as rest) -> x <= y && nondecreasing rest
        | _ -> true
      in
      let ok = ref true in
      Allocation.iter_vms a (fun vm ->
          let walked = ref [] and grouped = ref [] in
          Allocation.iter_vm_pairs vm (fun t _ -> walked := t :: !walked);
          Allocation.iter_groups vm (fun t run n ->
              grouped := t :: !grouped;
              ok :=
                !ok && n > 0
                && Array.to_list (Array.sub run 0 n)
                   = Allocation.subscribers_of_topic_on vm t);
          let topics = Allocation.topics_on vm in
          ok :=
            !ok
            && nondecreasing (List.rev !walked)
            && ascending topics
            && List.rev !grouped = topics
            && List.length topics = Allocation.num_topics_on vm
            && List.length !walked = Allocation.num_pairs_on vm);
      ignore (Plan_io.to_string a);
      ignore (Allocation.copy ~event_rates:(Workload.event_rates w) a);
      !ok && snapshot a = before)

(* Topic ids of every width, placed in random order on one VM: the walk
   still ascends (several radix bytes, and the fallback for ids no packed
   key holds). *)
let prop_wide_topic_ids_ascend =
  Helpers.qtest ~count:200 "walks ascend over wide topic ids"
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let wide () =
        match Rng.int rng 4 with
        | 0 -> Rng.int rng 256
        | 1 -> Rng.int rng (1 lsl 20)
        | 2 -> Rng.int rng ((1 lsl 31) - 1)
        | _ -> if Rng.int rng 8 = 0 then max_int - Rng.int rng 10 else -1 - Rng.int rng 1000
      in
      let topics = List.init (1 + Rng.int rng 300) (fun _ -> wide ()) in
      let a = Allocation.create ~capacity:1e12 in
      let vm = Allocation.deploy a in
      List.iter
        (fun topic ->
          Allocation.place a vm ~topic ~ev:1. ~subscribers:[| topic land 7 |] ~from:0 ~count:1)
        topics;
      (* Empty a few groups so walks skip dead slots too. *)
      List.iteri
        (fun i topic ->
          if i mod 5 = 0 then
            ignore (Allocation.remove a vm ~topic ~ev:1. ~subscriber:(topic land 7)))
        topics;
      let expected = List.sort_uniq compare (List.filter (Allocation.hosts_topic vm) topics) in
      Allocation.topics_on vm = expected
      && List.length expected = Allocation.num_topics_on vm)

(* A resident fleet under churn keeps its size: emptied groups give
   their slots back. *)
let test_churn_reuses_storage () =
  let a = Allocation.create ~capacity:1e9 in
  let vm = Allocation.deploy a in
  let cycle base =
    for t = base to base + 99 do
      Allocation.place a vm ~topic:(1000 - t) ~ev:1. ~subscribers:[| 1; 2 |] ~from:0
        ~count:2
    done;
    for t = base to base + 99 do
      ignore (Allocation.remove a vm ~topic:(1000 - t) ~ev:1. ~subscriber:1);
      ignore (Allocation.remove a vm ~topic:(1000 - t) ~ev:1. ~subscriber:2)
    done
  in
  cycle 0;
  let words = Obj.reachable_words (Obj.repr a) in
  for k = 1 to 20 do
    cycle (k * 7)
  done;
  Helpers.check_int "no pairs left" 0 (Allocation.num_pairs_on vm);
  Helpers.check_float "no load left" 0. (Allocation.load vm);
  Helpers.check_bool "no growth under churn" true
    (Obj.reachable_words (Obj.repr a) <= words)

let test_any_int_topic () =
  let a = Allocation.create ~capacity:100. in
  let vm = Allocation.deploy a in
  List.iter
    (fun topic -> Allocation.place a vm ~topic ~ev:1. ~subscribers:[| 3 |] ~from:0 ~count:1)
    [ max_int; -42; 0; min_int + 2 ];
  Alcotest.(check (list int)) "ascending" [ min_int + 2; -42; 0; max_int ]
    (Allocation.topics_on vm);
  List.iter
    (fun topic ->
      Alcotest.check_raises "sentinel"
        (Invalid_argument "Allocation.place: reserved topic id") (fun () ->
          Allocation.place a vm ~topic ~ev:1. ~subscribers:[| 3 |] ~from:0 ~count:1);
      Helpers.check_bool "sentinel absent" false (Allocation.hosts_topic vm topic))
    [ min_int; min_int + 1 ]

(* Lookups on a VM whose slots ascend (every decoded plan's) are binary
   searches and run scans: neither may build a closure per call. *)
let test_lookups_allocate_nothing () =
  let a = Allocation.create ~capacity:1e9 in
  let vm = Allocation.deploy a in
  for t = 0 to 63 do
    Allocation.place a vm ~topic:(2 * t) ~ev:1. ~subscribers:[| 1; 2; 3 |] ~from:0 ~count:3
  done;
  let hits = ref 0 in
  let lookups () =
    for i = 0 to 9_999 do
      if Allocation.hosts_topic vm (i land 127) then incr hits;
      if Allocation.remove a vm ~topic:(i land 126) ~ev:1. ~subscriber:4 then incr hits
    done
  in
  lookups ();
  hits := 0;
  let before = Gc.minor_words () in
  lookups ();
  let allocated = Gc.minor_words () -. before in
  Helpers.check_int "even topics hosted, subscriber 4 absent" 5_000 !hits;
  (* 20k lookups; allow a handful of words for the Gc probe itself. A
     closure per lookup would show up as >= 4 words per call. *)
  Alcotest.(check bool)
    (Printf.sprintf "lookups allocated %.0f words" allocated)
    true (allocated < 100.)

let test_copy_capacity () =
  let a = Allocation.create ~capacity:100. in
  let b = Allocation.deploy a in
  Allocation.place a b ~topic:1 ~ev:10. ~subscribers:[| 4; 2 |] ~from:0 ~count:2;
  let c = Allocation.copy ~capacity:50. ~event_rates:[| 1.; 5. |] a in
  Helpers.check_float "new capacity" 50. (Allocation.capacity c);
  Helpers.check_float "repriced load" 15. (Allocation.load_of c 0);
  Alcotest.(check (list int)) "placement order kept" [ 4; 2 ]
    (Allocation.subscribers_of_topic_on (Allocation.vm_at c 0) 1);
  Helpers.check_float "source untouched" 100. (Allocation.capacity a)

let suite =
  [
    Alcotest.test_case "empty fleet" `Quick test_empty_fleet;
    Alcotest.test_case "create rejects" `Quick test_create_rejects;
    Alcotest.test_case "deploy ids" `Quick test_deploy_ids;
    Alcotest.test_case "place delta" `Quick test_place_delta;
    Alcotest.test_case "hosts topic" `Quick test_hosts_topic;
    Alcotest.test_case "max pairs that fit" `Quick test_max_pairs_that_fit;
    Alcotest.test_case "place range checks" `Quick test_place_range_checks;
    Alcotest.test_case "place zero is noop" `Quick test_place_zero_is_noop;
    Alcotest.test_case "total load and iteration" `Quick test_total_load_and_iteration;
    Alcotest.test_case "place from offset" `Quick test_place_from_offset;
    Alcotest.test_case "copy capacity and rates" `Quick test_copy_capacity;
    prop_copy_is_a_decode;
    Alcotest.test_case "churn reuses storage" `Quick test_churn_reuses_storage;
    Alcotest.test_case "any int topic" `Quick test_any_int_topic;
    Alcotest.test_case "lookups allocate nothing" `Quick test_lookups_allocate_nothing;
    prop_matches_oracle ~integral:true "= pre-flat module, integral rates";
    prop_matches_oracle ~integral:false "= pre-flat module, fractional rates";
    prop_place_sequences_match_oracle;
    prop_walks_ascending_and_pure;
    prop_wide_topic_ids_ascend;
  ]
