(* Tests for workload (de)serialisation: round-trips and parse errors. *)

module Workload = Mcss_workload.Workload
module Wio = Mcss_workload.Wio

let equal_workloads a b =
  Workload.num_topics a = Workload.num_topics b
  && Workload.num_subscribers a = Workload.num_subscribers b
  && Workload.event_rates a = Workload.event_rates b
  && Array.init (Workload.num_subscribers a) (Workload.interests a)
     = Array.init (Workload.num_subscribers b) (Workload.interests b)

let roundtrip w =
  let path = Filename.temp_file "mcss_wio" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Wio.save w path;
      Wio.load path)

let test_roundtrip_simple () =
  let w =
    Helpers.workload ~rates:[ 5.; 3.25; 7. ]
      ~interests:[ [ 0; 2 ]; [ 1 ]; []; [ 0; 1; 2 ] ]
  in
  Helpers.check_bool "roundtrip equal" true (equal_workloads w (roundtrip w))

let test_roundtrip_empty_subscribers () =
  let w = Helpers.workload ~rates:[ 1. ] ~interests:[] in
  Helpers.check_bool "roundtrip equal" true (equal_workloads w (roundtrip w))

let parse s =
  let path = Filename.temp_file "mcss_wio" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> output_string oc s);
      Wio.load path)

let expect_parse_error name input =
  match parse input with
  | _ -> Alcotest.failf "%s: expected Parse_error" name
  | exception Wio.Parse_error _ -> ()

let test_accepts_comments_and_blanks () =
  let w =
    parse
      "# a comment\nmcss-workload 1\n\ntopics 1\nsubscribers 1\nrates\n# rate of t0\n2\ninterests\n1 0\n"
  in
  Helpers.check_int "topics" 1 (Workload.num_topics w);
  Helpers.check_float "rate" 2. (Workload.event_rate w 0)

let test_rejects_bad_header () = expect_parse_error "header" "mcss-workload 2\n"

let test_rejects_truncated () =
  expect_parse_error "truncated" "mcss-workload 1\ntopics 2\nsubscribers 0\nrates\n1\n"

let test_rejects_bad_rate () =
  expect_parse_error "bad rate"
    "mcss-workload 1\ntopics 1\nsubscribers 0\nrates\nabc\ninterests\n"

let test_rejects_interest_count_mismatch () =
  expect_parse_error "count mismatch"
    "mcss-workload 1\ntopics 1\nsubscribers 1\nrates\n1\ninterests\n2 0\n"

let test_rejects_invalid_topic_reference () =
  expect_parse_error "bad reference"
    "mcss-workload 1\ntopics 1\nsubscribers 1\nrates\n1\ninterests\n1 7\n"

let test_error_mentions_line_number () =
  (match parse "mcss-workload 1\ntopics x\n" with
  | _ -> Alcotest.fail "expected Parse_error"
  | exception Wio.Parse_error msg ->
      Helpers.check_bool "mentions line" true (Helpers.contains ~needle:"line 2" msg))

let prop_roundtrip =
  Helpers.qtest ~count:50 "save/load is the identity" Helpers.problem_arbitrary
    (fun p ->
      let w = p.Mcss_core.Problem.workload in
      equal_workloads w (roundtrip w))

let test_rejects_huge_counts () =
  let rejects name text =
    match Wio.of_string text with
    | _ -> Alcotest.failf "%s: expected Parse_error" name
    | exception Wio.Parse_error msg -> msg
  in
  Alcotest.(check string) "huge topic count"
    "line 5: unexpected end of file, expected an event rate"
    (rejects "topics" "mcss-workload 1\ntopics 4611686018427387903\nsubscribers 0\nrates\n1\n");
  Alcotest.(check string) "huge subscriber count"
    "line 7: unexpected end of file, expected an interest list"
    (rejects "subscribers"
       "mcss-workload 1\ntopics 1\nsubscribers 4611686018427387903\nrates\n1\ninterests\n1 0\n");
  Alcotest.(check string) "a billion subscribers"
    "line 6: unexpected end of file, expected an interest list"
    (rejects "1e9" "mcss-workload 1\ntopics 1\nsubscribers 1000000000\nrates\n1\ninterests\n")

(* Arbitrary byte damage to a real rendering, including counts and ids
   far past any array size. *)
let garbage_gen =
  QCheck.Gen.(
    let* p = Helpers.problem_gen in
    let* seed = int_bound 1_000_000 in
    let* edits = int_range 1 6 in
    let rng = Mcss_prng.Rng.create seed in
    let module Rng = Mcss_prng.Rng in
    let text = ref (Wio.to_string p.Mcss_core.Problem.workload) in
    for _ = 1 to edits do
      let t = !text in
      let n = String.length t in
      let i = if n = 0 then 0 else Rng.int rng n in
      let junk =
        match Rng.int rng 6 with
        | 0 -> String.make 1 (Char.chr (Rng.int rng 256))
        | 1 -> "99999999999999999"
        | 2 -> "-1"
        | 3 -> "4611686018427387903"
        | 4 -> "nan"
        | _ -> "0x7fffffffffffffff"
      in
      text :=
        if Rng.bool rng || n = 0 then String.sub t 0 i ^ junk ^ String.sub t i (n - i)
        else String.sub t 0 i ^ junk ^ String.sub t (i + 1) (n - i - 1)
    done;
    return !text)

let prop_raises_only_parse_error =
  Helpers.qtest ~count:300 "Wio.of_string raises only Parse_error on garbage"
    (QCheck.make garbage_gen ~print:String.escaped)
    (fun text ->
      match Wio.of_string text with
      | _ -> true
      | exception Wio.Parse_error _ -> true)

let suite =
  [
    Alcotest.test_case "roundtrip simple" `Quick test_roundtrip_simple;
    Alcotest.test_case "roundtrip no subscribers" `Quick test_roundtrip_empty_subscribers;
    Alcotest.test_case "accepts comments/blanks" `Quick test_accepts_comments_and_blanks;
    Alcotest.test_case "rejects bad header" `Quick test_rejects_bad_header;
    Alcotest.test_case "rejects truncated" `Quick test_rejects_truncated;
    Alcotest.test_case "rejects bad rate" `Quick test_rejects_bad_rate;
    Alcotest.test_case "rejects count mismatch" `Quick test_rejects_interest_count_mismatch;
    Alcotest.test_case "rejects invalid topic ref" `Quick test_rejects_invalid_topic_reference;
    Alcotest.test_case "error mentions line number" `Quick test_error_mentions_line_number;
    prop_roundtrip;
    Alcotest.test_case "rejects huge counts" `Quick test_rejects_huge_counts;
    prop_raises_only_parse_error;
  ]
