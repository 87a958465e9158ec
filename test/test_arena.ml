(* Tests for the flat-array arena: growable int/float buffers,
   generation-stamped sets, the open-addressing int table, pair
   encoding, CSR construction and the transposed index. *)

module Arena = Mcss_core.Arena

let test_ibuf () =
  let b = Arena.Ibuf.create ~capacity:2 () in
  Helpers.check_int "empty" 0 (Arena.Ibuf.length b);
  for i = 0 to 9 do
    Arena.Ibuf.push b (i * i)
  done;
  Helpers.check_int "length" 10 (Arena.Ibuf.length b);
  Helpers.check_int "get" 49 (Arena.Ibuf.get b 7);
  Arena.Ibuf.set b 7 (-1);
  Helpers.check_int "set" (-1) (Arena.Ibuf.get b 7);
  Arena.Ibuf.clear b;
  Helpers.check_int "cleared" 0 (Arena.Ibuf.length b);
  Arena.Ibuf.push b 5;
  Helpers.check_bool "reused after clear" true (Arena.Ibuf.to_array b = [| 5 |]);
  for i = 1 to 40 do
    Arena.Ibuf.push b i
  done;
  Helpers.check_bool "data holds the contents" true
    (Array.sub (Arena.Ibuf.data b) 0 41 = Arena.Ibuf.to_array b)

let test_fbuf () =
  let b = Arena.Fbuf.create () in
  Arena.Fbuf.push b 1.5;
  Arena.Fbuf.push b 2.5;
  Arena.Fbuf.add b 0 0.25;
  Helpers.check_float "add" 1.75 (Arena.Fbuf.get b 0);
  Helpers.check_float "sum" 4.25 (Arena.Fbuf.sum b)

let test_stamp_set () =
  let s = Arena.Stamp_set.create 4 in
  Helpers.check_bool "fresh empty" false (Arena.Stamp_set.mem s 3);
  Arena.Stamp_set.add s 3;
  Helpers.check_bool "added" true (Arena.Stamp_set.mem s 3);
  Arena.Stamp_set.clear s;
  Helpers.check_bool "cleared is O(1) and empty" false (Arena.Stamp_set.mem s 3);
  Arena.Stamp_set.ensure s 100;
  Arena.Stamp_set.add s 99;
  Helpers.check_bool "grown" true (Arena.Stamp_set.mem s 99)

let test_int_table () =
  let t = Arena.Int_table.create ~capacity:4 () in
  Helpers.check_int "find absent" Arena.Int_table.absent (Arena.Int_table.find t 42);
  (* Push through several growth rounds. *)
  for k = 0 to 999 do
    Arena.Int_table.set t (k * 7) k
  done;
  Helpers.check_int "length" 1000 (Arena.Int_table.length t);
  Helpers.check_int "find" 500 (Arena.Int_table.find t 3500);
  Arena.Int_table.set t 3500 (-5);
  Helpers.check_int "overwrite" (-5) (Arena.Int_table.find t 3500);
  Arena.Int_table.remove t 3500;
  Helpers.check_int "removed" Arena.Int_table.absent (Arena.Int_table.find t 3500);
  Helpers.check_int "length after remove" 999 (Arena.Int_table.length t);
  (* Delete-heavy churn exercises tombstone rehashing. *)
  for k = 0 to 999 do
    Arena.Int_table.remove t (k * 7);
    Arena.Int_table.set t (k * 7 + 1) k
  done;
  Helpers.check_int "churned length" 1000 (Arena.Int_table.length t);
  Helpers.check_int "churned find" 123 (Arena.Int_table.find t (123 * 7 + 1));
  Arena.Int_table.map_values_inplace (fun v -> v * 2) t;
  Helpers.check_int "mapped" 246 (Arena.Int_table.find t (123 * 7 + 1));
  let n = ref 0 in
  Arena.Int_table.iter (fun _ _ -> incr n) t;
  Helpers.check_int "iter visits live entries" 1000 !n;
  Arena.Int_table.reset t;
  Helpers.check_int "reset" 0 (Arena.Int_table.length t)

let test_int_table_any_key () =
  let t = Arena.Int_table.create () in
  let keys = [ -1; -42; max_int; min_int + 2; 0; 7 ] in
  List.iteri (fun i k -> Arena.Int_table.set t k i) keys;
  List.iteri (fun i k -> Helpers.check_int "find" i (Arena.Int_table.find t k)) keys;
  Arena.Int_table.remove t (-42);
  Helpers.check_bool "removed" false (Arena.Int_table.mem t (-42));
  Helpers.check_int "length" 5 (Arena.Int_table.length t);
  let empty_slot, tombstone = Arena.Int_table.reserved_keys in
  List.iter
    (fun k ->
      Helpers.check_bool "reserved absent" false (Arena.Int_table.mem t k);
      Arena.Int_table.remove t k;
      Alcotest.check_raises "reserved key"
        (Invalid_argument "Arena.Int_table.set: reserved key") (fun () ->
          Arena.Int_table.set t k 1))
    [ empty_slot; tombstone ];
  Helpers.check_int "length kept" 5 (Arena.Int_table.length t)

(* Keys that differ only above bit 31 — every home of one subscriber
   under [encode_pair] — must spread over the table: were the slot taken
   from the hash's low bits they would all share one probe run, and
   these 100k operations would take quadratic time (minutes). *)
let test_int_table_high_bit_keys () =
  let n = 100_000 in
  let key i = Arena.encode_pair ~topic:(i + 1) ~subscriber:0 in
  let t0 = Sys.time () in
  let t = Arena.Int_table.create () in
  for i = 0 to n - 1 do
    Arena.Int_table.set t (key i) i
  done;
  Helpers.check_int "all inserted" n (Arena.Int_table.length t);
  for i = 0 to n - 1 do
    if Arena.Int_table.find t (key i) <> i then Alcotest.failf "key %d lost" i
  done;
  for i = 0 to n - 1 do
    Arena.Int_table.remove t (key i)
  done;
  Helpers.check_int "all removed" 0 (Arena.Int_table.length t);
  let s = Sys.time () -. t0 in
  if s > 5. then Alcotest.failf "100k high-bit keys took %.1f s of CPU" s

let test_encode_pair () =
  List.iter
    (fun (t, v) ->
      let k = Arena.encode_pair ~topic:t ~subscriber:v in
      let t', v' = Arena.decode_pair k in
      Helpers.check_int "topic round-trips" t t';
      Helpers.check_int "subscriber round-trips" v v')
    [ (0, 0); (1, 2); (1_000_000, 4_900_000); ((1 lsl 31) - 1, (1 lsl 31) - 1) ]

(* ----- transposed index ----- *)

(* Rows with entries a little outside [0, width), in any order. *)
let rows_gen =
  QCheck.Gen.(
    let* width = int_range 0 12 in
    let* rows =
      array_size (int_range 0 15)
        (let* row = array_size (int_range 0 8) (int_range (-2) (width + 2)) in
         let* sorted = bool in
         if sorted then begin
           Array.sort compare row;
           return row
         end
         else return row)
    in
    return (width, rows))

let rows_arbitrary =
  QCheck.make rows_gen ~print:(fun (width, rows) ->
      Printf.sprintf "width %d: %s" width
        (String.concat " | "
           (Array.to_list
              (Array.map
                 (fun r -> String.concat " " (Array.to_list (Array.map string_of_int r)))
                 rows))))

(* Column row x, read the slow way: the rows whose kept entries hold x. *)
let naive_column ~width rows x =
  List.filter
    (fun r ->
      let last = ref (-1) and hit = ref false in
      Array.iter
        (fun y ->
          if y > !last && y < width then begin
            last := y;
            if y = x then hit := true
          end)
        rows.(r);
      !hit)
    (List.init (Array.length rows) Fun.id)

let transpose ?domains ~width rows =
  Helpers.transpose_rows ?domains ~width ~rows:(Array.length rows) (Array.get rows)

(* The same rows laid out flat, one slice each, after [pad] junk
   entries that no slice covers. *)
let transpose_slices ?domains ~width ~pad rows =
  let offs = Array.make (Array.length rows + 1) pad in
  Array.iteri (fun r row -> offs.(r + 1) <- offs.(r) + Array.length row) rows;
  let data = Array.concat (Array.make pad (-7) :: Array.to_list rows @ [ [| 0; 1 |] ]) in
  Arena.Transpose.of_slices ?domains ~width ~offs data

let column t x =
  List.init
    (Arena.Transpose.stop t x - Arena.Transpose.start t x)
    (fun i -> Arena.Transpose.get t (Arena.Transpose.start t x + i))

let prop_transpose_matches_naive =
  Helpers.qtest ~count:300 "transpose = naive per-column lists" rows_arbitrary
    (fun (width, rows) ->
      let t = transpose ~width rows in
      let naive = List.init width (naive_column ~width rows) in
      List.init width (column t) = naive
      && List.for_all (fun domains -> transpose ~domains ~width rows = t) [ 2; 3 ]
      && List.for_all
           (fun (domains, pad) -> transpose_slices ~domains ~width ~pad rows = t)
           [ (1, 0); (2, 3); (3, 1) ]
      && Arena.Transpose.length t = List.fold_left (fun n c -> n + List.length c) 0 naive
      && (width = 0
         || Arena.Transpose.start t 0 = 0
            && Arena.Transpose.stop t (width - 1) = Arena.Transpose.length t))

let prop_find_matches_scan =
  Helpers.qtest ~count:300 "find = linear scan from every hint" rows_arbitrary
    (fun (width, rows) ->
      let t = transpose ~width rows in
      let scan ~from ~hi r =
        let rec go i = if i >= hi then -1 else if Arena.Transpose.get t i = r then i else go (i + 1) in
        go from
      in
      List.for_all
        (fun x ->
          let lo = Arena.Transpose.start t x and hi = Arena.Transpose.stop t x in
          (* Every row index (and one either side), from every hint in
             [lo, hi] — empty column rows and a hint at [hi] included. *)
          List.for_all
            (fun r ->
              List.for_all
                (fun from -> Arena.Transpose.find t ~from ~hi r = scan ~from ~hi r)
                (List.init (hi - lo + 1) (fun i -> lo + i)))
            (List.init (Array.length rows + 2) (fun r -> r - 1)))
        (List.init width Fun.id))

let prop_iter_run_matches_scan =
  Helpers.qtest ~count:300 "iter_run = linear scan for runs in any order"
    QCheck.(pair rows_arbitrary (small_list (int_range (-2) 17)))
    (fun ((width, rows), run) ->
      let t = transpose ~width rows in
      let run = Array.of_list run in
      List.for_all
        (fun x ->
          let lo = Arena.Transpose.start t x and hi = Arena.Transpose.stop t x in
          let rec scan r i =
            if i >= hi then -1 else if Arena.Transpose.get t i = r then i else scan r (i + 1)
          in
          let got = ref [] in
          Arena.Transpose.iter_run t x run (Array.length run) (fun r slot ->
              got := (r, slot) :: !got);
          List.rev !got = Array.to_list (Array.map (fun r -> (r, scan r lo)) run))
        (List.init width Fun.id))

let test_transpose_examples () =
  (* Out-of-order and out-of-range entries are dropped: row 0 keeps
     5 and 7 of [5; 3; 4; 5; 7; 9]. *)
  let t = transpose ~width:8 [| [| 5; 3; 4; 5; 7; 9 |]; [||]; [| -1; 3; 5 |] |] in
  Helpers.check_int "kept" 4 (Arena.Transpose.length t);
  Alcotest.(check (list int)) "column 5" [ 0; 2 ] (column t 5);
  Alcotest.(check (list int)) "column 3" [ 2 ] (column t 3);
  Alcotest.(check (list int)) "column 4" [] (column t 4);
  Alcotest.(check (list int)) "column 7" [ 0 ] (column t 7);
  (* A long column row, searched by galloping from every hint. *)
  let rows = Array.init 1000 (fun r -> if r mod 3 = 0 then [| 0 |] else [||]) in
  let t = transpose ~width:1 rows in
  let hi = Arena.Transpose.stop t 0 in
  for r = 0 to 999 do
    let m = if r mod 3 = 0 then r / 3 else -1 in
    for from = 0 to (if m >= 0 then m else hi) do
      if Arena.Transpose.find t ~from ~hi r <> m then
        Alcotest.failf "find %d from %d: expected %d" r from m
    done
  done;
  (match Arena.Transpose.find t ~from:0 ~hi:(hi + 1) 0 with
  | _ -> Alcotest.fail "expected Invalid_argument past the column"
  | exception Invalid_argument _ -> ());
  (match Helpers.transpose_rows ~width:(-1) ~rows:0 (fun _ -> [||]) with
  | _ -> Alcotest.fail "expected Invalid_argument on a negative width"
  | exception Invalid_argument _ -> ());
  List.iter
    (fun (what, offs) ->
      match Arena.Transpose.of_slices ~width:4 ~offs [| 1; 2; 3 |] with
      | _ -> Alcotest.failf "expected Invalid_argument on %s offsets" what
      | exception Invalid_argument _ -> ())
    [ ("empty", [||]); ("descending", [| 0; 2; 1 |]); ("overlong", [| 0; 4 |]);
      ("negative", [| -1; 2 |]) ]

let test_map_chunks () =
  for n = 0 to 9 do
    for domains = 1 to 4 do
      let chunks = Arena.map_chunks ~domains n (fun i lo hi -> (i, lo, hi)) in
      let c = Array.length chunks in
      let hi_of i = if i < 0 then 0 else (fun (_, _, hi) -> hi) chunks.(i) in
      Helpers.check_int "chunk count" (max 1 (min domains n)) c;
      (* Ordered, contiguous, covering [0, n). *)
      Array.iteri
        (fun i (j, lo, hi) ->
          Helpers.check_int "chunk order" i j;
          Helpers.check_int "contiguous" (hi_of (i - 1)) lo;
          Helpers.check_bool "nonnegative" true (hi >= lo))
        chunks;
      Helpers.check_int "covers" n (hi_of (c - 1))
    done
  done;
  match Arena.map_chunks ~domains:3 9 (fun i _ _ -> if i = 0 then failwith "chunk 0") with
  | _ -> Alcotest.fail "expected chunk 0's exception"
  | exception Failure m -> Alcotest.(check string) "re-raised" "chunk 0" m

(* ----- the transpose of a Stage-1 selection: the packers' view ----- *)

module Workload = Mcss_workload.Workload
module Problem = Mcss_core.Problem
module Selection = Mcss_core.Selection

let transpose_selection ?domains (p : Problem.t) (s : Selection.t) =
  Arena.Transpose.of_slices ?domains ~width:(Workload.num_topics p.Problem.workload)
    ~offs:s.Selection.offs s.Selection.topics

(* (topic, subscribers) per nonempty column row, ascending. *)
let groups ~width t =
  List.filter (fun (_, subs) -> subs <> []) (List.init width (fun x -> (x, column t x)))

let test_selection_transpose () =
  let p = Helpers.fig1_problem () in
  let g = transpose_selection p (Selection.gsp p) in
  Alcotest.(check (list (pair int (list int))))
    "regrouped"
    [ (0, [ 0; 1 ]); (1, [ 0; 1; 2 ]) ]
    (groups ~width:2 g);
  Alcotest.(check (list int)) "offsets" [ 0; 2; 5 ]
    [ Arena.Transpose.start g 0; Arena.Transpose.start g 1; Arena.Transpose.stop g 1 ];
  let buf = Arena.Transpose.copy_row g 1 [| 9 |] in
  Alcotest.(check (list int)) "copy_row" [ 0; 1; 2 ] (Array.to_list (Array.sub buf 0 3));
  Helpers.check_bool "copy_row reuses a long enough buffer" true
    (Arena.Transpose.copy_row g 0 buf == buf)

let prop_selection_transpose_domains_identical =
  Helpers.qtest ~count:80 "transpose of a selection is identical at 1, 2, 4 and 7 domains"
    Helpers.problem_arbitrary (fun p ->
      let s = Selection.gsp p in
      let seq = transpose_selection p s in
      List.for_all (fun domains -> transpose_selection ~domains p s = seq) [ 1; 2; 4; 7 ])

let prop_selection_transpose_is_partition =
  Helpers.qtest "transpose of a selection loses and invents nothing" Helpers.problem_arbitrary
    (fun p ->
      let s = Selection.gsp p in
      let g = transpose_selection p s in
      let nt = Workload.num_topics p.Problem.workload in
      let from_groups = Hashtbl.create 64 in
      List.iter
        (fun (t, subs) -> List.iter (fun v -> Hashtbl.replace from_groups (t, v) ()) subs)
        (groups ~width:nt g);
      let count = ref 0 in
      let ok = ref true in
      Selection.iter_pairs s (fun t v ->
          incr count;
          if not (Hashtbl.mem from_groups (t, v)) then ok := false);
      (* Shape: the column rows span the column, the packers' order
         lists exactly the nonempty topics, and rows ascend strictly. *)
      let shape =
        Arena.Transpose.start g 0 = 0
        && Arena.Transpose.stop g (nt - 1) = Arena.Transpose.length g
        && Array.to_list (Mcss_core.Cbp.order Mcss_core.Cbp.Arbitrary p g)
           = List.map fst (groups ~width:nt g)
        && List.for_all
             (fun (_, subs) ->
               let rec ascending = function
                 | a :: (b :: _ as rest) -> a < b && ascending rest
                 | _ -> true
               in
               ascending subs)
             (groups ~width:nt g)
      in
      !ok && shape && !count = Hashtbl.length from_groups
      && !count = s.Selection.num_pairs)

let suite =
  [
    Alcotest.test_case "ibuf" `Quick test_ibuf;
    Alcotest.test_case "fbuf" `Quick test_fbuf;
    Alcotest.test_case "stamp set" `Quick test_stamp_set;
    Alcotest.test_case "int table" `Quick test_int_table;
    Alcotest.test_case "int table: any key but the sentinels" `Quick test_int_table_any_key;
    Alcotest.test_case "int table: high-bit keys spread" `Quick test_int_table_high_bit_keys;
    Alcotest.test_case "encode/decode pair" `Quick test_encode_pair;
    Alcotest.test_case "transpose examples" `Quick test_transpose_examples;
    Alcotest.test_case "map_chunks cuts ordered chunks" `Quick test_map_chunks;
    Alcotest.test_case "transpose of a selection (fig 1)" `Quick test_selection_transpose;
    prop_transpose_matches_naive;
    prop_find_matches_scan;
    prop_iter_run_matches_scan;
    prop_selection_transpose_is_partition;
    prop_selection_transpose_domains_identical;
  ]
