module Json = Mcss_json.Json
module Server = Mcss_serve.Server
module Problem = Mcss_core.Problem
module Allocation = Mcss_core.Allocation

type member = {
  id : int;
  addr : Server.address;
  proc : Broker_proc.t option;  (* None when the broker lives in another process *)
  pairs : (int * int, unit) Hashtbl.t;  (* local mirror of the broker's table *)
  topic_count : (int, int) Hashtbl.t;  (* topic -> pairs mirrored, for routing *)
  mutable alive : bool;
}

type t = {
  dir : string;
  message_bytes : int;
  bytes_per_horizon : float;
  lock : Mutex.t;
  mutable members : member list;
  mutable next_id : int;
  mutable assign : (int * int) list;  (* plan vm -> member id *)
}

type apply_stats = {
  matched : int;
  spawned : int;
  pairs_added : int;
  pairs_removed : int;
  errors : string list;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let mirror_add m (topic, subscriber) =
  if not (Hashtbl.mem m.pairs (topic, subscriber)) then begin
    Hashtbl.replace m.pairs (topic, subscriber) ();
    Hashtbl.replace m.topic_count topic
      (1 + Option.value ~default:0 (Hashtbl.find_opt m.topic_count topic))
  end

let mirror_remove m (topic, subscriber) =
  if Hashtbl.mem m.pairs (topic, subscriber) then begin
    Hashtbl.remove m.pairs (topic, subscriber);
    match Hashtbl.find_opt m.topic_count topic with
    | Some 1 | None -> Hashtbl.remove m.topic_count topic
    | Some n -> Hashtbl.replace m.topic_count topic (n - 1)
  end

let socket_path dir id = Filename.concat dir (Printf.sprintf "broker-%d.sock" id)

let spawn_member t id pairs_list =
  let addr = Server.Unix_socket (socket_path t.dir id) in
  let proc =
    Broker_proc.start ~vm:id ~address:addr ~pairs:pairs_list
      ~bytes_per_horizon:t.bytes_per_horizon ~message_bytes:t.message_bytes ()
  in
  let m =
    {
      id;
      addr;
      proc = Some proc;
      pairs = Hashtbl.create 256;
      topic_count = Hashtbl.create 64;
      alive = true;
    }
  in
  List.iter (fun p -> mirror_add m p) pairs_list;
  m

let boot ~dir ~message_bytes p a =
  if message_bytes <= 0 then invalid_arg "Cluster.boot: message_bytes must be positive";
  let bytes_per_horizon = p.Problem.capacity *. float_of_int message_bytes in
  let t =
    {
      dir;
      message_bytes;
      bytes_per_horizon;
      lock = Mutex.create ();
      members = [];
      next_id = 0;
      assign = [];
    }
  in
  let members =
    Array.to_list
      (Array.map
         (fun vm ->
           let id = Allocation.vm_id vm in
           let pairs = ref [] in
           Allocation.iter_vm_pairs vm (fun topic subscriber ->
               pairs := (topic, subscriber) :: !pairs);
           spawn_member t id !pairs)
         (Allocation.vms a))
  in
  t.members <- members;
  t.next_id <- 1 + List.fold_left (fun acc m -> max acc m.id) (-1) members;
  t.assign <- List.map (fun m -> (m.id, m.id)) members;
  t

(* ----- manifest ----- *)

let save_manifest t path =
  let members =
    List.filter_map
      (fun m ->
        if m.alive then
          Some
            (Json.List
               [ Json.Int m.id; Json.String (Server.address_to_string m.addr) ])
        else None)
      t.members
  in
  let j =
    Json.Obj
      [
        ("message_bytes", Json.Int t.message_bytes);
        ("bytes_per_horizon", Json.Float t.bytes_per_horizon);
        ("members", Json.List members);
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string j ^ "\n"))

let attach ~manifest a =
  let text =
    let ic = open_in manifest in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let j =
    match Json.parse (String.trim text) with
    | Ok j -> j
    | Error m -> failwith (manifest ^ ": " ^ m)
  in
  let int key =
    match Json.member key j |> Fun.flip Option.bind Json.to_int_opt with
    | Some x -> x
    | None -> failwith (manifest ^ ": missing field " ^ key)
  in
  let bph =
    match Json.member "bytes_per_horizon" j |> Fun.flip Option.bind Json.to_float_opt with
    | Some x -> x
    | None -> failwith (manifest ^ ": missing field bytes_per_horizon")
  in
  let members_json =
    match Json.member "members" j |> Fun.flip Option.bind Json.to_list_opt with
    | Some xs -> xs
    | None -> failwith (manifest ^ ": missing field members")
  in
  let t =
    {
      dir = Filename.dirname manifest;
      message_bytes = int "message_bytes";
      bytes_per_horizon = bph;
      lock = Mutex.create ();
      members = [];
      next_id = 0;
      assign = [];
    }
  in
  let members =
    List.map
      (fun entry ->
        match entry with
        | Json.List [ id; addr ] -> (
            match (Json.to_int_opt id, Json.to_string_opt addr) with
            | Some id, Some addr_s -> (
                match Server.address_of_string addr_s with
                | Ok addr ->
                    {
                      id;
                      addr;
                      proc = None;
                      pairs = Hashtbl.create 256;
                      topic_count = Hashtbl.create 64;
                      alive = true;
                    }
                | Error m -> failwith (manifest ^ ": " ^ m))
            | _ -> failwith (manifest ^ ": malformed member entry"))
        | _ -> failwith (manifest ^ ": malformed member entry"))
      members_json
  in
  (* Seed the mirrors from the boot plan: pairs of plan VM [i] live on
     the member with id [i]. *)
  Array.iter
    (fun vm ->
      let id = Allocation.vm_id vm in
      match List.find_opt (fun m -> m.id = id) members with
      | None -> failwith (Printf.sprintf "%s: plan VM %d has no member" manifest id)
      | Some m ->
          Allocation.iter_vm_pairs vm (fun topic subscriber ->
              mirror_add m (topic, subscriber)))
    (Allocation.vms a);
  t.members <- members;
  t.next_id <- 1 + List.fold_left (fun acc m -> max acc m.id) (-1) members;
  t.assign <- List.map (fun m -> (m.id, m.id)) members;
  t

(* ----- queries ----- *)

let live t =
  locked t (fun () ->
      List.filter_map (fun m -> if m.alive then Some (m.id, m.addr) else None) t.members
      |> List.sort compare)

let address t id =
  locked t (fun () ->
      List.find_opt (fun m -> m.id = id && m.alive) t.members
      |> Option.map (fun m -> m.addr))

let routing t ~topic =
  locked t (fun () ->
      List.filter_map
        (fun m ->
          if m.alive && Hashtbl.mem m.topic_count topic then Some m.id else None)
        t.members
      |> List.sort compare)

let assignment t = locked t (fun () -> t.assign)

(* Route-and-send atomicity: a publisher snapshots the routing table and
   sends a whole batch inside one critical section, and [apply_plan]
   issues every [rehome remove] inside the same lock. So when a remove
   is processed by a broker, any batch routed with the pre-add snapshot
   has already been acked (the old home still had the pair), and any
   later batch sees the new home in its snapshot — no window where a
   moving pair can miss both homes. *)
let with_routes t f =
  locked t (fun () ->
      let route ~topic =
        List.filter_map
          (fun m ->
            if m.alive && Hashtbl.mem m.topic_count topic then Some m.id else None)
          t.members
        |> List.sort compare
      in
      let addr id =
        List.find_opt (fun m -> m.id = id && m.alive) t.members
        |> Option.map (fun m -> m.addr)
      in
      f ~route ~addr)

let pairs_on t id =
  locked t (fun () ->
      match List.find_opt (fun m -> m.id = id) t.members with
      | Some m when m.alive -> Hashtbl.length m.pairs
      | _ -> 0)

(* ----- chaos ----- *)

let kill t id =
  let victim =
    locked t (fun () ->
        match List.find_opt (fun m -> m.id = id && m.alive) t.members with
        | None -> None
        | Some m ->
            m.alive <- false;
            Some m)
  in
  match victim with
  | None -> false
  | Some m ->
      Option.iter Broker_proc.kill m.proc;
      Control.kill m.addr;
      true

(* ----- live plan reconciliation ----- *)

let target_of allocation =
  (* plan vm -> its pairs, and pair -> plan vm *)
  let per_vm : (int, (int * int) list ref) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun vm ->
      let id = Allocation.vm_id vm in
      let l = ref [] in
      Allocation.iter_vm_pairs vm (fun topic subscriber ->
          l := (topic, subscriber) :: !l);
      Hashtbl.replace per_vm id l)
    (Allocation.vms allocation);
  per_vm

let apply_plan ?(on_spawn = fun _ _ -> ()) t allocation =
  let per_vm = target_of allocation in
  let alive = locked t (fun () -> List.filter (fun m -> m.alive) t.members) in
  (* Overlap between every plan VM and every live broker: walk the
     target pairs once, crediting whichever broker mirrors the pair. *)
  let home = Hashtbl.create 4096 in
  List.iter
    (fun m -> Hashtbl.iter (fun pair () -> Hashtbl.replace home pair m.id) m.pairs)
    alive;
  let overlap : (int * int, int ref) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun plan_vm pairs ->
      List.iter
        (fun pair ->
          match Hashtbl.find_opt home pair with
          | None -> ()
          | Some member_id -> (
              match Hashtbl.find_opt overlap (plan_vm, member_id) with
              | Some r -> incr r
              | None -> Hashtbl.replace overlap (plan_vm, member_id) (ref 1)))
        !pairs)
    per_vm;
  let candidates =
    Hashtbl.fold (fun (pv, mid) r acc -> (!r, pv, mid) :: acc) overlap []
    |> List.sort (fun (o1, pv1, m1) (o2, pv2, m2) ->
           (* overlap desc, identity-mapping preferred, then stable *)
           match compare o2 o1 with
           | 0 -> compare (pv1 <> m1, pv1, m1) (pv2 <> m2, pv2, m2)
           | c -> c)
  in
  let vm_to_member : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let member_taken : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (_, pv, mid) ->
      if (not (Hashtbl.mem vm_to_member pv)) && not (Hashtbl.mem member_taken mid)
      then begin
        Hashtbl.replace vm_to_member pv mid;
        Hashtbl.replace member_taken mid ()
      end)
    candidates;
  (* Unmatched plan VMs (no overlap with any live broker, or all their
     overlapping brokers were taken): spawn fresh brokers, empty — the
     pairs arrive through the same add phase as everyone else's. *)
  let spawned = ref 0 in
  Hashtbl.iter
    (fun plan_vm _ ->
      if not (Hashtbl.mem vm_to_member plan_vm) then begin
        let m =
          locked t (fun () ->
              let id = t.next_id in
              t.next_id <- id + 1;
              let m = spawn_member t id [] in
              t.members <- t.members @ [ m ];
              m)
        in
        incr spawned;
        on_spawn m.id m.addr;
        Hashtbl.replace vm_to_member plan_vm m.id;
        Hashtbl.replace member_taken m.id ()
      end)
    per_vm;
  let member_by_id id =
    locked t (fun () -> List.find_opt (fun m -> m.id = id) t.members)
  in
  let errors = ref [] in
  let pairs_added = ref 0 and pairs_removed = ref 0 in
  (* Phase 1: adds everywhere. Mirrors are updated on ack, so routing
     serves the union of old and new hosts from here on. *)
  let removals = ref [] in
  Hashtbl.iter
    (fun plan_vm mid ->
      match member_by_id mid with
      | None -> ()
      | Some m ->
          let target = !(Hashtbl.find per_vm plan_vm) in
          let adds =
            List.filter (fun pair -> not (Hashtbl.mem m.pairs pair)) target
          in
          let target_set = Hashtbl.create (List.length target) in
          List.iter (fun pair -> Hashtbl.replace target_set pair ()) target;
          let removes =
            Hashtbl.fold
              (fun pair () acc ->
                if Hashtbl.mem target_set pair then acc else pair :: acc)
              m.pairs []
          in
          if removes <> [] then removals := (m, removes) :: !removals;
          if adds <> [] then begin
            match Control.rehome m.addr ~add:adds ~remove:[] with
            | Ok _ ->
                locked t (fun () -> List.iter (fun p -> mirror_add m p) adds);
                pairs_added := !pairs_added + List.length adds
            | Error e ->
                errors := Printf.sprintf "broker %d add: %s" m.id e :: !errors
          end)
    vm_to_member;
  (* Brokers no plan VM claimed keep running but lose all their pairs. *)
  List.iter
    (fun m ->
      if not (Hashtbl.mem member_taken m.id) then begin
        let all = Hashtbl.fold (fun pair () acc -> pair :: acc) m.pairs [] in
        if all <> [] then removals := (m, all) :: !removals
      end)
    alive;
  (* Phase 2: removes, only after every add acked. Each remove is issued
     under the cluster lock so it serialises with in-flight publisher
     batches (see [with_routes]). *)
  List.iter
    (fun (m, removes) ->
      let outcome =
        locked t (fun () ->
            let r = Control.rehome m.addr ~add:[] ~remove:removes in
            (match r with
            | Ok _ -> List.iter (fun p -> mirror_remove m p) removes
            | Error _ -> ());
            r)
      in
      match outcome with
      | Ok _ -> pairs_removed := !pairs_removed + List.length removes
      | Error e -> errors := Printf.sprintf "broker %d remove: %s" m.id e :: !errors)
    !removals;
  locked t (fun () ->
      t.assign <- Hashtbl.fold (fun pv mid acc -> (pv, mid) :: acc) vm_to_member []
                  |> List.sort compare);
  {
    matched = Hashtbl.length vm_to_member - !spawned;
    spawned = !spawned;
    pairs_added = !pairs_added;
    pairs_removed = !pairs_removed;
    errors = List.rev !errors;
  }

(* ----- lifecycle ----- *)

let join t =
  List.iter (fun m -> Option.iter Broker_proc.join m.proc) t.members

let shutdown t =
  List.iter
    (fun (_, addr) -> ignore (Control.shutdown addr))
    (live t);
  locked t (fun () -> List.iter (fun m -> m.alive <- false) t.members);
  join t
