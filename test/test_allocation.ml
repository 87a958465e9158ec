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
  ]
