type totals = {
  mutable minor_words : float;
  mutable major_words : float;
  mutable samples : int;
}

let lock = Mutex.create ()
let table : (string, totals) Hashtbl.t = Hashtbl.create 8

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let record name ~minor ~major =
  locked (fun () ->
      let t =
        match Hashtbl.find_opt table name with
        | Some t -> t
        | None ->
            let t = { minor_words = 0.; major_words = 0.; samples = 0 } in
            Hashtbl.add table name t;
            t
      in
      t.minor_words <- t.minor_words +. minor;
      t.major_words <- t.major_words +. major;
      t.samples <- t.samples + 1)

(* [Gc.minor_words] counts to the word at any time; [Gc.counters]'s
   minor words move only at a minor collection. *)
let measure ?(obs = Registry.noop) name f =
  let _, _, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  Fun.protect
    ~finally:(fun () ->
      let minor = Gc.minor_words () -. minor0 in
      let _, _, major1 = Gc.counters () in
      let major = major1 -. major0 in
      record name ~minor ~major;
      if Registry.enabled obs then begin
        Metric.Counter.add
          (Registry.counter obs
             ~help:"Minor-heap words allocated inside the phase (calling domain)"
             (Printf.sprintf "gc.%s.minor_words" name))
          (int_of_float minor);
        Metric.Counter.add
          (Registry.counter obs
             ~help:"Major-heap words allocated inside the phase (calling domain)"
             (Printf.sprintf "gc.%s.major_words" name))
          (int_of_float major)
      end)
    f

let totals () =
  locked (fun () ->
      Hashtbl.fold
        (fun name t acc ->
          (name, { minor_words = t.minor_words; major_words = t.major_words; samples = t.samples })
          :: acc)
        table [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset () = locked (fun () -> Hashtbl.reset table)

let to_json () =
  Mcss_json.Json.(
    Obj
      (List.map
         (fun (name, t) ->
           ( name,
             Obj
               [
                 ("minor_words", Float t.minor_words);
                 ("major_words", Float t.major_words);
                 ("samples", Int t.samples);
               ] ))
         (totals ())))
