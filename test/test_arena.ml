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
  Helpers.check_bool "sub" true (Arena.Ibuf.sub b ~pos:2 ~len:3 = [| 4; 9; 16 |]);
  Arena.Ibuf.clear b;
  Helpers.check_int "cleared" 0 (Arena.Ibuf.length b);
  Arena.Ibuf.push b 5;
  Helpers.check_bool "reused after clear" true (Arena.Ibuf.to_array b = [| 5 |])

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

let transpose ~width rows =
  Arena.Transpose.create ~width ~rows:(Array.length rows) (Array.get rows)

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
  match Arena.Transpose.create ~width:(-1) ~rows:0 (fun _ -> [||]) with
  | _ -> Alcotest.fail "expected Invalid_argument on a negative width"
  | exception Invalid_argument _ -> ()

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
    prop_transpose_matches_naive;
    prop_find_matches_scan;
    prop_iter_run_matches_scan;
  ]
