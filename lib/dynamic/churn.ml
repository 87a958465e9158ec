module Workload = Mcss_workload.Workload
module Rng = Mcss_prng.Rng
module Delta = Mcss_engine.Delta

type params = {
  new_subscribers : int;
  new_subscriber_max_interests : int;
  new_topics : int;
  new_topic_max_rate : float;
  subscribes : int;
  unsubscribes : int;
  rate_changes : int;
  rate_burst_min : float;
  rate_burst_max : float;
}

let default =
  {
    new_subscribers = 20;
    new_subscriber_max_interests = 4;
    new_topics = 5;
    new_topic_max_rate = 50.;
    subscribes = 100;
    unsubscribes = 50;
    rate_changes = 30;
    rate_burst_min = 0.5;
    rate_burst_max = 2.5;
  }

let scaled f =
  let scale n = max 1 (int_of_float (Float.round (float_of_int n *. f))) in
  {
    default with
    new_subscribers = scale default.new_subscribers;
    new_topics = scale default.new_topics;
    subscribes = scale default.subscribes;
    unsubscribes = scale default.unsubscribes;
    rate_changes = scale default.rate_changes;
  }

let tick rng params w =
  let nt = Workload.num_topics w and ns = Workload.num_subscribers w in
  let deltas = ref [] in
  let add d = deltas := d :: !deltas in
  let max_rate = max 1 (int_of_float params.new_topic_max_rate) in
  for _ = 1 to params.new_topics do
    add (Delta.New_topic { rate = float_of_int (1 + Rng.int rng max_rate) })
  done;
  for _ = 1 to params.new_subscribers do
    if nt > 0 then begin
      let k = 1 + Rng.int rng (min params.new_subscriber_max_interests nt) in
      add (Delta.New_subscriber { interests = Rng.sample_without_replacement rng k nt })
    end
  done;
  (* Follows/unfollows target the pre-tick population; collisions within
     the tick are filtered so the batch stays consistent. *)
  let pending_follow : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  if ns > 0 && nt > 0 then begin
    for _ = 1 to params.subscribes do
      let v = Rng.int rng ns and t = Rng.int rng nt in
      if (not (Array.mem t (Workload.interests w v))) && not (Hashtbl.mem pending_follow (v, t))
      then begin
        Hashtbl.add pending_follow (v, t) ();
        add (Delta.Subscribe { subscriber = v; topic = t })
      end
    done;
    for _ = 1 to params.unsubscribes do
      let v = Rng.int rng ns in
      let held = Workload.interests w v in
      if Array.length held > 1 then begin
        let t = held.(Rng.int rng (Array.length held)) in
        if not (Hashtbl.mem pending_follow (v, -1 - t)) then begin
          Hashtbl.add pending_follow (v, -1 - t) ();
          add (Delta.Unsubscribe { subscriber = v; topic = t })
        end
      end
    done
  end;
  if nt > 0 then
    for _ = 1 to params.rate_changes do
      let t = Rng.int rng nt in
      let burst =
        params.rate_burst_min
        +. Rng.float rng (Float.max 1e-9 (params.rate_burst_max -. params.rate_burst_min))
      in
      let rate = Float.max 1. (Float.round (Workload.event_rate w t *. burst)) in
      add (Delta.Rate_change { topic = t; rate })
    done;
  List.rev !deltas

let run rng params ~ticks w f =
  let w = ref w in
  for _ = 1 to ticks do
    let deltas = tick rng params !w in
    f !w deltas;
    w := Delta.apply !w deltas
  done;
  !w
