(* Tests for the table and series report helpers. *)

module Table = Mcss_report.Table
module Series = Mcss_report.Series
module Plot = Mcss_report.Plot

let test_table_render () =
  let t = Table.create [ ("name", Table.Left); ("value", Table.Right) ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_separator t;
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  Helpers.check_int "five lines" 5 (List.length lines);
  Helpers.check_bool "header present" true (Helpers.contains ~needle:"name" s);
  (* Right-aligned numbers line up on the right edge. *)
  Helpers.check_bool "right aligned" true (Helpers.contains ~needle:"    1" s)

let test_table_arity_check () =
  let t = Table.create [ ("a", Table.Left) ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: 2 cells for 1 columns")
    (fun () -> Table.add_row t [ "x"; "y" ])

let test_cells () =
  Alcotest.(check string) "float" "3.14" (Table.cell_float ~decimals:2 3.14159);
  Alcotest.(check string) "float default" "3.1" (Table.cell_float 3.14159);
  Alcotest.(check string) "usd" "$12.50" (Table.cell_usd 12.5);
  Alcotest.(check string) "pct" "12.3%" (Table.cell_pct 12.34)

let test_pct_change () =
  Helpers.check_float "reduction" 25. (Table.pct_change ~baseline:100. 75.);
  Helpers.check_float "increase is negative" (-50.) (Table.pct_change ~baseline:100. 150.);
  Helpers.check_float "zero baseline" 0. (Table.pct_change ~baseline:0. 5.)

let test_series_to_string () =
  let s = Series.of_int_pairs ~name:"ccdf" [ (1, 0.5); (10, 0.25) ] in
  let text = Series.to_string s in
  Helpers.check_bool "header" true (Helpers.contains ~needle:"# ccdf" text);
  Helpers.check_bool "point" true (Helpers.contains ~needle:"10 0.25" text)

let test_series_save () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "mcss_series_test" in
  let s = Series.of_pairs ~name:"demo" [ (1., 2.) ] in
  Series.save_all [ s ] ~dir;
  let path = Filename.concat dir "demo.dat" in
  Helpers.check_bool "file written" true (Sys.file_exists path);
  let content = In_channel.with_open_text path In_channel.input_all in
  Helpers.check_bool "contains point" true (Helpers.contains ~needle:"1 2" content);
  Sys.remove path

let test_mkdir_p () =
  let base = Filename.temp_file "mcss_fs" "" in
  Sys.remove base;
  let nested = Filename.concat (Filename.concat base "a") "b" in
  Mcss_report.Fs.mkdir_p nested;
  Helpers.check_bool "nested path created" true (Sys.is_directory nested);
  Mcss_report.Fs.mkdir_p nested;
  Mcss_report.Fs.mkdir_p base;
  let file = Filename.concat base "file" in
  Out_channel.with_open_text file (fun _ -> ());
  let raises dir =
    match Mcss_report.Fs.mkdir_p dir with
    | () -> Alcotest.failf "mkdir_p %S should raise" dir
    | exception Sys_error _ -> ()
  in
  raises file;
  raises (Filename.concat file "sub");
  Sys.remove file;
  List.iter Sys.rmdir [ nested; Filename.dirname nested; base ]

let test_plot_script () =
  let spec =
    {
      Plot.title = "CCDF \"quoted\"";
      xlabel = "x";
      ylabel = "P(X > x)";
      xaxis = Plot.Log;
      yaxis = Plot.Log;
      style = Plot.Lines;
      series = [ ("followers", "a.dat"); ("followings", "b.dat") ];
    }
  in
  let s = Plot.script spec ~output:"out.png" in
  List.iter
    (fun needle -> Helpers.check_bool (needle ^ " present") true (Helpers.contains ~needle s))
    [
      "set terminal pngcairo";
      "set output \"out.png\"";
      "set logscale x";
      "set logscale y";
      "\"a.dat\" using 1:2 with lines";
      "title \"followings\"";
    ];
  (* The quote in the title is escaped. *)
  Helpers.check_bool "escaped quote" true (Helpers.contains ~needle:"CCDF \\\"quoted" s)

let test_plot_save () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "mcss_plot_test" in
  Plot.save ~dir ~name:"demo"
    {
      Plot.title = "t";
      xlabel = "x";
      ylabel = "y";
      xaxis = Plot.Linear;
      yaxis = Plot.Linear;
      style = Plot.Points;
      series = [ ("s", "s.dat") ];
    };
  let path = Filename.concat dir "demo.gp" in
  Helpers.check_bool "written" true (Sys.file_exists path);
  let content = In_channel.with_open_text path In_channel.input_all in
  Helpers.check_bool "targets png" true (Helpers.contains ~needle:"demo.png" content);
  Helpers.check_bool "no logscale" false (Helpers.contains ~needle:"logscale" content);
  Sys.remove path

let suite =
  [
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "plot script" `Quick test_plot_script;
    Alcotest.test_case "plot save" `Quick test_plot_save;
    Alcotest.test_case "table arity check" `Quick test_table_arity_check;
    Alcotest.test_case "cells" `Quick test_cells;
    Alcotest.test_case "pct change" `Quick test_pct_change;
    Alcotest.test_case "series to_string" `Quick test_series_to_string;
    Alcotest.test_case "series save" `Quick test_series_save;
    Alcotest.test_case "mkdir_p" `Quick test_mkdir_p;
  ]
