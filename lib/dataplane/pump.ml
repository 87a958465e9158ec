module Fleet = Mcss_broker.Fleet
module Simulator = Mcss_sim.Simulator
module Vec = Mcss_core.Vec
module Problem = Mcss_core.Problem
module Clock = Mcss_obs.Clock
module Workload = Mcss_workload.Workload
module Delivery = Mcss_report.Delivery

type config = {
  duration : float;
  pace : float;
  batch : int;
  latency_seed : int;
  quiesce_timeout : float;
  tolerance : float option;
}

let default_config =
  {
    duration = 1.0;
    pace = 0.;
    batch = 64;
    latency_seed = 1;
    quiesce_timeout = 10.;
    tolerance = None;
  }

type report = {
  publisher : Publisher.stats;
  copies_received : int;
  duplicates : int;
  unique : int array;
  latency : Fleet.latency_summary option;
  ledgers : Ledger.t list;
  totals : Delivery.totals;
  reconcile : Reconcile.t option;
  quiesced : bool;
  wall_s : float;
}

let schedule w ~duration =
  let events = Vec.create () in
  Simulator.iter_schedule w Simulator.Deterministic ~duration (fun time t ->
      Vec.push events (time, t));
  Vec.to_array events

let ledgers_of cluster =
  List.filter_map
    (fun (_, addr) ->
      match Control.ledger addr with Ok l -> Some l | Error _ -> None)
    (Cluster.live cluster)

let run ?(config = default_config) ?sinks cluster p a =
  if not (config.duration > 0.) then invalid_arg "Pump.run: duration must be positive";
  let w = p.Problem.workload in
  let owned, sinks =
    match sinks with
    | Some s -> (false, s)
    | None ->
        ( true,
          Subscriber.create ~num_subscribers:(Workload.num_subscribers w)
            ~latency_seed:config.latency_seed () )
  in
  Fun.protect
    ~finally:(fun () -> if owned then Subscriber.close sinks)
    (fun () ->
      (match Subscriber.attach_cluster sinks cluster with
      | Ok () -> ()
      | Error m -> failwith ("Pump.run: " ^ m));
      let before = ledgers_of cluster in
      let received0 = Subscriber.copies sinks in
      let t0 = Clock.now_ns () in
      let schedule = schedule w ~duration:config.duration in
      let publisher =
        Publisher.run ~batch:config.batch ~pace:config.pace cluster ~schedule
      in
      (* Quiesce: all acked copies are in sink buffers; wait for the
         sinks to have drained as many as the live ledgers enqueued. *)
      let window ledgers_after =
        List.filter_map
          (fun (after : Ledger.t) ->
            match
              List.find_opt (fun (b : Ledger.t) -> b.Ledger.vm = after.Ledger.vm) before
            with
            | Some b -> Some (Ledger.diff ~before:b ~after)
            | None -> Some after (* spawned during the run *))
          ledgers_after
      in
      (* The timeout bounds the drain alone, so it starts once publishing
         returns: a paced run may publish for longer than it. *)
      let deadline =
        Int64.add (Clock.now_ns ()) (Int64.of_float (config.quiesce_timeout *. 1e9))
      in
      let quiesced = ref false in
      let ledgers = ref (window (ledgers_of cluster)) in
      let target ls =
        List.fold_left
          (fun acc (l : Ledger.t) -> acc + l.Ledger.totals.Delivery.delivered)
          0 ls
      in
      while (not !quiesced) && Clock.now_ns () < deadline do
        if Subscriber.copies sinks - received0 >= target !ledgers then
          quiesced := true
        else begin
          Unix.sleepf 0.01;
          ledgers := window (ledgers_of cluster)
        end
      done;
      let ledgers = !ledgers in
      let totals = Ledger.sum_totals ledgers in
      let unique = Subscriber.unique sinks in
      let reconcile =
        Option.map
          (fun tolerance ->
            Reconcile.run p a ~duration:config.duration ~tolerance
              ~measured_unique:unique ~ledgers
              ~assignment:(Cluster.assignment cluster))
          config.tolerance
      in
      {
        publisher;
        copies_received = Subscriber.copies sinks - received0;
        duplicates = Subscriber.duplicates sinks;
        unique;
        latency = Subscriber.latency sinks;
        ledgers;
        totals;
        reconcile;
        quiesced = !quiesced;
        wall_s = Clock.seconds_since t0;
      })
