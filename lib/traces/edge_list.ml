module Workload = Mcss_workload.Workload
module Wio = Mcss_workload.Wio
module Vec = struct
  (* A tiny local growable int-pair store to avoid a dependency cycle. *)
  type t = { mutable data : (int * int) array; mutable len : int }

  let create () = { data = [||]; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let cap = max 16 (2 * v.len) in
      let data = Array.make cap x in
      Array.blit v.data 0 data 0 v.len;
      v.data <- data
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let iter f v =
    for i = 0 to v.len - 1 do
      f v.data.(i)
    done
end

type mapping = { user_of_topic : int array; user_of_subscriber : int array }

let fail file line msg =
  raise (Wio.Parse_error (Printf.sprintf "%s, line %d: %s" file line msg))

(* Iterate the meaningful lines of a two-integer-column file. *)
let iter_int_pairs file f =
  In_channel.with_open_text file (fun ic ->
      let line_num = ref 0 in
      let rec loop () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
            incr line_num;
            let line = String.trim line in
            if line <> "" && line.[0] <> '#' then begin
              let fields =
                String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) line)
                |> List.filter (fun s -> s <> "")
              in
              match fields with
              | [ a; b ] -> (
                  match (int_of_string_opt a, int_of_string_opt b) with
                  | Some a, Some b -> f !line_num a b
                  | _ -> fail file !line_num (Printf.sprintf "bad integers %S" line))
              | _ -> fail file !line_num (Printf.sprintf "expected two columns, got %S" line)
            end;
            loop ()
      in
      loop ())

let load ~edges ~rates =
  (* Pass 1: rates — only users with a positive count become topics. *)
  let rate_of_user : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  iter_int_pairs rates (fun line user count ->
      if user < 0 then fail rates line "negative user id";
      if count < 0 then fail rates line "negative count";
      Hashtbl.replace rate_of_user user count);
  let topic_of_user : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  let topic_users = ref [] in
  let num_topics = ref 0 in
  Hashtbl.iter
    (fun user count ->
      if count > 0 then begin
        Hashtbl.replace topic_of_user user !num_topics;
        topic_users := user :: !topic_users;
        incr num_topics
      end)
    rate_of_user;
  (* Densify deterministically: sort topics by original user id. *)
  let topic_users = Array.of_list !topic_users in
  Workload.sort_ids topic_users;
  Hashtbl.reset topic_of_user;
  Array.iteri (fun t user -> Hashtbl.replace topic_of_user user t) topic_users;
  let event_rates =
    Array.map (fun user -> float_of_int (Hashtbl.find rate_of_user user)) topic_users
  in
  (* Pass 2: edges — keep only edges to active topics, dedup. *)
  let raw_edges = Vec.create () in
  iter_int_pairs edges (fun line follower followee ->
      if follower < 0 || followee < 0 then fail edges line "negative user id";
      match Hashtbl.find_opt topic_of_user followee with
      | Some t -> Vec.push raw_edges (follower, t)
      | None -> ());
  let interests_of_user : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 1024 in
  Vec.iter
    (fun (follower, t) ->
      let set =
        match Hashtbl.find_opt interests_of_user follower with
        | Some s -> s
        | None ->
            let s = Hashtbl.create 8 in
            Hashtbl.add interests_of_user follower s;
            s
      in
      Hashtbl.replace set t ())
    raw_edges;
  let subscriber_users =
    Hashtbl.fold (fun user _ acc -> user :: acc) interests_of_user []
    |> List.sort compare |> Array.of_list
  in
  let interests =
    Array.map
      (fun user ->
        let set = Hashtbl.find interests_of_user user in
        let a = Array.make (Hashtbl.length set) 0 in
        let i = ref 0 in
        Hashtbl.iter
          (fun t () ->
            a.(!i) <- t;
            incr i)
          set;
        a)
      subscriber_users
  in
  let workload = Workload.create ~event_rates ~interests in
  (workload, { user_of_topic = topic_users; user_of_subscriber = subscriber_users })

let save w ~edges ~rates =
  let num_topics = Workload.num_topics w in
  Out_channel.with_open_text rates (fun oc ->
      Printf.fprintf oc "# user count\n";
      Array.iteri
        (fun t ev -> Printf.fprintf oc "%d %d\n" t (int_of_float (Float.round ev)))
        (Workload.event_rates w));
  Out_channel.with_open_text edges (fun oc ->
      Printf.fprintf oc "# follower followee\n";
      for v = 0 to Workload.num_subscribers w - 1 do
        Array.iter
          (fun t -> Printf.fprintf oc "%d %d\n" (num_topics + v) t)
          (Workload.interests w v)
      done)
