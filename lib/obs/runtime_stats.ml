type t = {
  peak_rss_bytes : int;
  gc_major_words : float;
  gc_major_collections : int;
  gc_heap_words : int;
}

(* VmHWM is reported in kB, e.g. "VmHWM:\t    123456 kB". *)
let peak_rss_bytes () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> 0
            | line ->
                if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
                  let fields =
                    String.split_on_char ' '
                      (String.sub line 6 (String.length line - 6))
                    |> List.concat_map (String.split_on_char '\t')
                    |> List.filter (fun s -> s <> "")
                  in
                  match fields with
                  | kb :: _ -> (
                      match int_of_string_opt kb with
                      | Some n -> n * 1024
                      | None -> 0)
                  | [] -> 0
                else scan ()
          in
          scan ())

let sample () =
  let gc = Gc.stat () in
  {
    peak_rss_bytes = peak_rss_bytes ();
    gc_major_words = gc.Gc.major_words;
    gc_major_collections = gc.Gc.major_collections;
    gc_heap_words = gc.Gc.heap_words;
  }

let to_json t =
  Mcss_json.Json.(
    Obj
      [
        ("peak_rss_bytes", Int t.peak_rss_bytes);
        ("gc_major_words", Float t.gc_major_words);
        ("gc_major_collections", Int t.gc_major_collections);
        ("gc_heap_words", Int t.gc_heap_words);
        ("gc_phases", Gc_phase.to_json ());
      ])
