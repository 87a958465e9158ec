(* Tests for the workload model: validation, derived views, thresholds. *)

module Workload = Mcss_workload.Workload

let simple () =
  Helpers.workload ~rates:[ 5.; 3.; 7. ] ~interests:[ [ 0; 2 ]; [ 1 ]; []; [ 0; 1; 2 ] ]

let test_dimensions () =
  let w = simple () in
  Helpers.check_int "topics" 3 (Workload.num_topics w);
  Helpers.check_int "subscribers" 4 (Workload.num_subscribers w);
  Helpers.check_int "pairs" 6 (Workload.num_pairs w)

let test_event_rates () =
  let w = simple () in
  Helpers.check_float "ev_0" 5. (Workload.event_rate w 0);
  Helpers.check_float "ev_2" 7. (Workload.event_rate w 2);
  Alcotest.(check (array (float 1e-12))) "all" [| 5.; 3.; 7. |] (Workload.event_rates w)

let test_interest_rate () =
  let w = simple () in
  Helpers.check_float "v0" 12. (Workload.interest_rate w 0);
  Helpers.check_float "v2 (empty)" 0. (Workload.interest_rate w 2);
  Helpers.check_float "v3" 15. (Workload.interest_rate w 3);
  Helpers.check_float "total" 15. (Workload.total_event_rate w)

let test_followers_transpose () =
  let w = simple () in
  Alcotest.(check (array int)) "V_t0" [| 0; 3 |] (Workload.followers w 0);
  Alcotest.(check (array int)) "V_t1" [| 1; 3 |] (Workload.followers w 1);
  Alcotest.(check (array int)) "V_t2" [| 0; 3 |] (Workload.followers w 2);
  Helpers.check_int "num_followers" 2 (Workload.num_followers w 1)

let test_interests_sorted () =
  let w =
    Workload.create ~event_rates:[| 1.; 2.; 3. |] ~interests:[| [| 2; 0; 1 |] |]
  in
  Alcotest.(check (array int)) "sorted" [| 0; 1; 2 |] (Workload.interests w 0)

let test_tau_v () =
  let w = simple () in
  Helpers.check_float "capped by tau" 10. (Workload.tau_v w ~tau:10. 0);
  Helpers.check_float "capped by interest rate" 12. (Workload.tau_v w ~tau:100. 0);
  Helpers.check_float "no interests" 0. (Workload.tau_v w ~tau:10. 2)

let test_iter_pairs () =
  let w = simple () in
  let pairs = ref [] in
  Workload.iter_pairs w (fun t v -> pairs := (t, v) :: !pairs);
  Alcotest.(check (list (pair int int)))
    "all pairs, grouped by subscriber"
    [ (0, 0); (2, 0); (1, 1); (0, 3); (1, 3); (2, 3) ]
    (List.rev !pairs)

let test_subscribers_with_interests () =
  let w = simple () in
  Alcotest.(check (list int)) "skips empty" [ 0; 1; 3 ]
    (Workload.subscribers_with_interests w)

let test_rejects_nonpositive_rate () =
  Alcotest.check_raises "zero rate"
    (Invalid_argument "Workload.create: event rate of topic 1 is 0 (must be > 0)")
    (fun () ->
      ignore (Workload.create ~event_rates:[| 1.; 0. |] ~interests:[||]))

let test_rejects_out_of_range_topic () =
  Alcotest.check_raises "bad topic"
    (Invalid_argument "Workload.create: subscriber 0 references topic 5 out of range")
    (fun () ->
      ignore (Workload.create ~event_rates:[| 1. |] ~interests:[| [| 5 |] |]))

let test_rejects_duplicate_interest () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Workload.create: subscriber 0 lists topic 0 twice") (fun () ->
      ignore (Workload.create ~event_rates:[| 1. |] ~interests:[| [| 0; 0 |] |]))

let test_create_copies_input () =
  let rates = [| 1.; 2. |] in
  let interests = [| [| 0 |] |] in
  let w = Workload.create ~event_rates:rates ~interests in
  rates.(0) <- 99.;
  interests.(0) <- [| 1 |];
  Helpers.check_float "rates copied" 1. (Workload.event_rate w 0);
  Alcotest.(check (array int)) "interests copied" [| 0 |] (Workload.interests w 0)

let contains = Helpers.contains

let test_pp_summary () =
  let s = Format.asprintf "%a" Workload.pp_summary (simple ()) in
  Helpers.check_bool "mentions topic count" true (contains ~needle:"3 topics" s);
  Helpers.check_bool "mentions pair count" true (contains ~needle:"6 pairs" s)

let prop_followers_interests_transpose =
  Helpers.qtest "followers is the transpose of interests" Helpers.problem_arbitrary
    (fun p ->
      let w = p.Mcss_core.Problem.workload in
      let ok = ref true in
      for t = 0 to Workload.num_topics w - 1 do
        Array.iter
          (fun v -> if not (Array.mem t (Workload.interests w v)) then ok := false)
          (Workload.followers w t)
      done;
      Workload.iter_pairs w (fun t v ->
          if not (Array.mem v (Workload.followers w t)) then ok := false);
      !ok)

let prop_num_pairs_consistent =
  Helpers.qtest "num_pairs equals both sums" Helpers.problem_arbitrary (fun p ->
      let w = p.Mcss_core.Problem.workload in
      let by_interests = ref 0 and by_followers = ref 0 in
      for v = 0 to Workload.num_subscribers w - 1 do
        by_interests := !by_interests + Array.length (Workload.interests w v)
      done;
      for t = 0 to Workload.num_topics w - 1 do
        by_followers := !by_followers + Workload.num_followers w t
      done;
      Workload.num_pairs w = !by_interests && !by_interests = !by_followers)

let prop_sort_ids_is_sort =
  Helpers.qtest ~count:300 "sort_ids = Array.sort compare, on both sides of the cutoff"
    QCheck.(
      triple
        (array_of_size Gen.(int_range 0 (3 * Workload.sort_ids_cutoff)) (int_range (-50) 50))
        small_nat small_nat)
    (fun (a, i, j) ->
      let n = Array.length a in
      let pos = i mod (n + 1) in
      let len = j mod (n - pos + 1) in
      (* The slice form on a copy: the slice sorted, the rest untouched. *)
      let sliced = Array.copy a in
      Workload.sort_ids_sub sliced ~pos ~len;
      let slice = Array.sub a pos len in
      Array.sort compare slice;
      let outside b = (Array.sub b 0 pos, Array.sub b (pos + len) (n - pos - len)) in
      let slice_ok = Array.sub sliced pos len = slice && outside sliced = outside a in
      let expected = Array.copy a in
      Array.sort compare expected;
      Workload.sort_ids a;
      a = expected && slice_ok)

let suite =
  [
    Alcotest.test_case "dimensions" `Quick test_dimensions;
    Alcotest.test_case "event rates" `Quick test_event_rates;
    Alcotest.test_case "interest rate" `Quick test_interest_rate;
    Alcotest.test_case "followers transpose" `Quick test_followers_transpose;
    Alcotest.test_case "interests sorted" `Quick test_interests_sorted;
    Alcotest.test_case "tau_v" `Quick test_tau_v;
    Alcotest.test_case "iter_pairs" `Quick test_iter_pairs;
    Alcotest.test_case "subscribers_with_interests" `Quick test_subscribers_with_interests;
    Alcotest.test_case "rejects nonpositive rate" `Quick test_rejects_nonpositive_rate;
    Alcotest.test_case "rejects out-of-range topic" `Quick test_rejects_out_of_range_topic;
    Alcotest.test_case "rejects duplicate interest" `Quick test_rejects_duplicate_interest;
    Alcotest.test_case "create copies input" `Quick test_create_copies_input;
    Alcotest.test_case "pp_summary" `Quick test_pp_summary;
    prop_followers_interests_transpose;
    prop_num_pairs_consistent;
    prop_sort_ids_is_sort;
  ]
