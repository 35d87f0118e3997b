module Rng = Repro_workload.Rng
module Obs = Repro_obs.Obs

let obs_sent = Obs.Counter.make "fault.net_sent"
let obs_dropped = Obs.Counter.make "fault.net_dropped"
let obs_duplicated = Obs.Counter.make "fault.net_duplicated"
let obs_delivered = Obs.Counter.make "fault.net_delivered"

type endpoint = Mobile | Base

type crash_point =
  | Base_after_handling of int
  | Base_mid_commit
  | Base_after_commit
  | Mobile_after_handling of int

type schedule = {
  drop_rate : float;
  dup_rate : float;
  min_latency : float;
  max_latency : float;
  partitions : (float * float) list;
  crashes : crash_point list;
  to_base_drop : float option;
  to_mobile_drop : float option;
}

let ideal =
  {
    drop_rate = 0.0;
    dup_rate = 0.0;
    min_latency = 0.01;
    max_latency = 0.05;
    partitions = [];
    crashes = [];
    to_base_drop = None;
    to_mobile_drop = None;
  }

let lossy ~drop_rate = { ideal with drop_rate }

(* An in-flight message. [seqno] is a global send counter used only to
   break arrival-time ties deterministically. *)
type 'a envelope = { arrival : float; seqno : int; payload : 'a }

type 'a t = {
  rng : Rng.t;
  sched : schedule;
  describe : 'a -> string;  (* payload label for trace events *)
  mutable crashes : crash_point list;  (* scheduled, not yet fired *)
  mutable to_base : 'a envelope list;  (* sorted by (arrival, seqno) *)
  mutable to_mobile : 'a envelope list;
  mutable seqno : int;
  mutable sent : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable delivered : int;
}

let create ?(describe = fun _ -> "msg") ~seed sched =
  {
    rng = Rng.create seed;
    sched;
    describe;
    crashes = sched.crashes;
    to_base = [];
    to_mobile = [];
    seqno = 0;
    sent = 0;
    dropped = 0;
    duplicated = 0;
    delivered = 0;
  }

let take_crash t p =
  let fires = List.mem p t.crashes in
  if fires then t.crashes <- List.filter (fun q -> q <> p) t.crashes;
  fires

let partitioned t time =
  List.exists (fun (a, b) -> time >= a && time < b) t.sched.partitions

let earlier a b = a.arrival < b.arrival || (a.arrival = b.arrival && a.seqno < b.seqno)

let rec insert env = function
  | [] -> [ env ]
  | hd :: tl as l -> if earlier env hd then env :: l else hd :: insert env tl

let queue_of t = function Base -> t.to_base | Mobile -> t.to_mobile

let set_queue t dst q =
  match dst with Base -> t.to_base <- q | Mobile -> t.to_mobile <- q

let latency t = t.sched.min_latency +. (Rng.float t.rng *. (t.sched.max_latency -. t.sched.min_latency))

let enqueue t ~now ~dst payload =
  let env = { arrival = now +. latency t; seqno = t.seqno; payload } in
  t.seqno <- t.seqno + 1;
  set_queue t dst (insert env (queue_of t dst))

let endpoint_name = function Mobile -> "mobile" | Base -> "base"

(* Wire forensics on the network lane; attrs carry the simulated clock
   because trace wall time says nothing about the simulation. *)
let wire_event t ~now ~dst name payload extra =
  if Obs.Event.capturing () then
    Obs.Event.emit ~lane:Obs.Event.Network
      ~attrs:
        (("msg", Obs.Event.Str (t.describe payload))
        :: ("dst", Obs.Event.Str (endpoint_name dst))
        :: ("sim_t", Obs.Event.Float now)
        :: extra)
      name

(* Per-direction drop probability: the asymmetric override wins when
   present, otherwise the symmetric [drop_rate] applies. *)
let drop_rate_for t dst =
  let o = match dst with Base -> t.sched.to_base_drop | Mobile -> t.sched.to_mobile_drop in
  match o with Some r -> r | None -> t.sched.drop_rate

let send t ~now ~dst payload =
  t.sent <- t.sent + 1;
  Obs.Counter.incr obs_sent;
  wire_event t ~now ~dst "net.send" payload [];
  if partitioned t now || Rng.float t.rng < drop_rate_for t dst then begin
    t.dropped <- t.dropped + 1;
    Obs.Counter.incr obs_dropped;
    wire_event t ~now ~dst "net.drop" payload
      [ ("reason", Obs.Event.Str (if partitioned t now then "partition" else "loss")) ]
  end
  else begin
    enqueue t ~now ~dst payload;
    if Rng.float t.rng < t.sched.dup_rate then begin
      t.duplicated <- t.duplicated + 1;
      Obs.Counter.incr obs_duplicated;
      wire_event t ~now ~dst "net.dup" payload [];
      enqueue t ~now ~dst payload
    end
  end

let next_arrival t ~dst =
  match queue_of t dst with [] -> None | env :: _ -> Some env.arrival

let recv t ~now ~dst =
  match queue_of t dst with
  | env :: rest when env.arrival <= now ->
    set_queue t dst rest;
    t.delivered <- t.delivered + 1;
    Obs.Counter.incr obs_delivered;
    wire_event t ~now ~dst "net.deliver" env.payload [];
    Some env.payload
  | _ -> None

(* Ties go to the base: its reply is computed before the mobile reads
   anything that arrived at the same instant. *)
let rec await t ~now ~deadline ~base ~mobile =
  let next =
    match (next_arrival t ~dst:Base, next_arrival t ~dst:Mobile) with
    | None, None -> None
    | Some tb, None -> Some (tb, Base)
    | None, Some tm -> Some (tm, Mobile)
    | Some tb, Some tm -> if tb <= tm then Some (tb, Base) else Some (tm, Mobile)
  in
  match next with
  | Some (arrival, dst) when arrival <= deadline -> (
    now := max !now arrival;
    let msg = match recv t ~now:!now ~dst with Some m -> m | None -> assert false in
    match dst with
    | Base ->
      base msg;
      await t ~now ~deadline ~base ~mobile
    | Mobile -> (
      match mobile msg with Some v -> Some v | None -> await t ~now ~deadline ~base ~mobile))
  | _ ->
    now := deadline;
    None

type stats = { sent : int; dropped : int; duplicated : int; delivered : int }

let stats (t : _ t) =
  { sent = t.sent; dropped = t.dropped; duplicated = t.duplicated; delivered = t.delivered }

let pp_stats ppf s =
  Format.fprintf ppf "sent=%d dropped=%d duplicated=%d delivered=%d" s.sent s.dropped
    s.duplicated s.delivered
