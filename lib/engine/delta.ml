module Workload = Mcss_workload.Workload

type t =
  | Subscribe of { subscriber : int; topic : int }
  | Unsubscribe of { subscriber : int; topic : int }
  | Rate_change of { topic : int; rate : float }
  | New_topic of { rate : float }
  | New_subscriber of { interests : int array }

let pp ppf = function
  | Subscribe { subscriber; topic } -> Format.fprintf ppf "subscribe(%d, %d)" subscriber topic
  | Unsubscribe { subscriber; topic } ->
      Format.fprintf ppf "unsubscribe(%d, %d)" subscriber topic
  | Rate_change { topic; rate } -> Format.fprintf ppf "rate(%d <- %g)" topic rate
  | New_topic { rate } -> Format.fprintf ppf "new-topic(%g)" rate
  | New_subscriber { interests } ->
      Format.fprintf ppf "new-subscriber(%d interests)" (Array.length interests)

let apply w deltas =
  let num_topics = ref (Workload.num_topics w) in
  let rates = Hashtbl.create 16 in
  (* Interest sets as hashtables for O(1) membership updates — but only
     for the subscribers a delta actually touches. Everyone else shares
     their (already sorted and validated) interest array with [w], so a
     small batch costs O(touched pairs + topics + subscribers) instead
     of rebuilding every set in the workload. *)
  let base_subs = Workload.num_subscribers w in
  let touched : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 16 in
  let extra_interests : (int, unit) Hashtbl.t Mcss_core.Vec.t = Mcss_core.Vec.create () in
  let num_subscribers () = base_subs + Mcss_core.Vec.length extra_interests in
  let interest_set v =
    if v >= base_subs then Mcss_core.Vec.get extra_interests (v - base_subs)
    else
      match Hashtbl.find_opt touched v with
      | Some h -> h
      | None ->
          let h = Hashtbl.create 8 in
          Array.iter (fun t -> Hashtbl.replace h t ()) (Workload.interests w v);
          Hashtbl.replace touched v h;
          h
  in
  let check_topic t what =
    if t < 0 || t >= !num_topics then
      invalid_arg (Printf.sprintf "Delta.apply: %s references topic %d out of %d" what t !num_topics)
  in
  let check_subscriber v what =
    if v < 0 || v >= num_subscribers () then
      invalid_arg
        (Printf.sprintf "Delta.apply: %s references subscriber %d out of %d" what v
           (num_subscribers ()))
  in
  List.iter
    (fun delta ->
      match delta with
      | Subscribe { subscriber; topic } ->
          check_subscriber subscriber "subscribe";
          check_topic topic "subscribe";
          let set = interest_set subscriber in
          if Hashtbl.mem set topic then
            invalid_arg
              (Printf.sprintf "Delta.apply: subscriber %d already follows topic %d"
                 subscriber topic);
          Hashtbl.replace set topic ()
      | Unsubscribe { subscriber; topic } ->
          check_subscriber subscriber "unsubscribe";
          check_topic topic "unsubscribe";
          let set = interest_set subscriber in
          if not (Hashtbl.mem set topic) then
            invalid_arg
              (Printf.sprintf "Delta.apply: subscriber %d does not follow topic %d"
                 subscriber topic);
          Hashtbl.remove set topic
      | Rate_change { topic; rate } ->
          check_topic topic "rate-change";
          if not (rate > 0.) then invalid_arg "Delta.apply: rate must be positive";
          Hashtbl.replace rates topic rate
      | New_topic { rate } ->
          if not (rate > 0.) then invalid_arg "Delta.apply: rate must be positive";
          Hashtbl.replace rates !num_topics rate;
          incr num_topics
      | New_subscriber { interests = wanted } ->
          let h = Hashtbl.create 8 in
          Array.iter
            (fun t ->
              check_topic t "new-subscriber";
              if Hashtbl.mem h t then
                invalid_arg "Delta.apply: new subscriber lists a topic twice";
              Hashtbl.replace h t ())
            wanted;
          Mcss_core.Vec.push extra_interests h)
    deltas;
  (* Copy and patch: rates, rows and follower lists start as copies of
     the old arrays (untouched entries shared), and only what a delta
     touched is rewritten — no per-subscriber or per-topic lookup. *)
  let base_topics = Workload.num_topics w in
  let event_rates = Array.make !num_topics 0. in
  Array.blit (Workload.event_rates w) 0 event_rates 0 base_topics;
  Hashtbl.iter (fun t r -> event_rates.(t) <- r) rates;
  let sorted_of_set set =
    let a = Array.make (Hashtbl.length set) 0 in
    let i = ref 0 in
    Hashtbl.iter
      (fun t () ->
        a.(!i) <- t;
        incr i)
      set;
    Array.sort compare a;
    a
  in
  let all_interests =
    Array.init (num_subscribers ()) (fun v ->
        if v < base_subs then Workload.interests w v else [||])
  in
  Hashtbl.iter (fun v set -> all_interests.(v) <- sorted_of_set set) touched;
  for i = 0 to Mcss_core.Vec.length extra_interests - 1 do
    all_interests.(base_subs + i) <- sorted_of_set (Mcss_core.Vec.get extra_interests i)
  done;
  (* Evolve the followers index instead of letting the new workload
     recompute it from scratch: per-topic follower sets only change for
     topics a touched or new subscriber (un)follows, so everything else
     shares its array with the old cache. Without this, every consumer
     that needs followers (e.g. the engine's dirty-set computation)
     pays an O(pairs) rebuild per delta batch. *)
  let followers =
    match Workload.cached_followers w with
    | None -> None
    | Some old_fol ->
        let added : (int, int list ref) Hashtbl.t = Hashtbl.create 32 in
        let removed : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 32 in
        let additions_of t =
          match Hashtbl.find_opt added t with
          | Some r -> r
          | None ->
              let r = ref [] in
              Hashtbl.replace added t r;
              r
        in
        let removals_of t =
          match Hashtbl.find_opt removed t with
          | Some h -> h
          | None ->
              let h = Hashtbl.create 4 in
              Hashtbl.replace removed t h;
              h
        in
        Hashtbl.iter
          (fun v set ->
            let old = Workload.interests w v in
            let old_set = Hashtbl.create (Array.length old + 1) in
            Array.iter (fun t -> Hashtbl.replace old_set t ()) old;
            Array.iter
              (fun t ->
                if not (Hashtbl.mem set t) then Hashtbl.replace (removals_of t) v ())
              old;
            Hashtbl.iter
              (fun t () ->
                if not (Hashtbl.mem old_set t) then
                  let r = additions_of t in
                  r := v :: !r)
              set)
          touched;
        for i = 0 to Mcss_core.Vec.length extra_interests - 1 do
          let v = base_subs + i in
          Hashtbl.iter
            (fun t () ->
              let r = additions_of t in
              r := v :: !r)
            (Mcss_core.Vec.get extra_interests i)
        done;
        (* New topics start with no followers; [rebuild] reads only
           [old_fol], so a topic both gaining and losing followers may
           be rebuilt twice. *)
        let fol = Array.make !num_topics [||] in
        Array.blit old_fol 0 fol 0 base_topics;
        let rebuild t _ =
          let olds = if t < base_topics then old_fol.(t) else [||] in
          let keep =
            match Hashtbl.find_opt removed t with
            | None -> olds
            | Some dead ->
                Array.of_seq
                  (Seq.filter (fun v -> not (Hashtbl.mem dead v)) (Array.to_seq olds))
          in
          fol.(t) <-
            (match Hashtbl.find_opt added t with
            | None | Some { contents = [] } -> keep
            | Some { contents = adds } ->
                let out = Array.append keep (Array.of_list adds) in
                Array.sort compare out;
                out)
        in
        Hashtbl.iter rebuild added;
        Hashtbl.iter rebuild removed;
        Some fol
  in
  (* Every mutation above was range/duplicate/positivity-checked as it
     was applied, untouched arrays come from a validated workload, and
     [sorted_of_set] restores the sortedness invariant — so the unsafe
     constructor's contract holds. *)
  Workload.unsafe_evolve w ?followers ~event_rates ~interests:all_interests
    ~touched:(Hashtbl.fold (fun v _ acc -> v :: acc) touched [])
    ()
