open Repro_txn
open Repro_history
module Engine = Repro_db.Engine
module Rng = Repro_workload.Rng
module Obs = Repro_obs.Obs

let obs_events = Obs.Counter.make "sync.events"
let obs_anomalies = Obs.Counter.make "sync.anomalies"
let obs_late = Obs.Counter.make "sync.late_sessions"
let obs_windows = Obs.Counter.make "sync.windows"
let obs_aborted = Obs.Counter.make "sync.aborted_merges"
let obs_session_len = Obs.Dist.make "sync.session_len"

type isolation = Strategy1 | Strategy2
type protocol = Window.protocol = Merging of Protocol.merge_config | Reprocessing

type merge_attempt = Window.merge_attempt =
  | Merge_completed of Protocol.merge_report
  | Merge_aborted of string

type merge_runner = Window.merge_runner

type workload = Trace.workload = {
  initial : State.t;
  make_mobile_txn : Rng.t -> name:string -> Program.t;
  make_base_txn : Rng.t -> name:string -> Program.t;
}

type config = {
  n_mobiles : int;
  duration : float;
  window : float;
  mean_connect_gap : float;
  connect_alpha : float option;
  mean_mobile_txn_gap : float;
  mean_base_txn_gap : float;
  protocol : protocol;
  isolation : isolation;
  params : Cost.params;
  seed : int;
  merge_runner : merge_runner option;
}

let default_config =
  {
    n_mobiles = 4;
    duration = 100.0;
    window = 25.0;
    mean_connect_gap = 10.0;
    connect_alpha = None;
    mean_mobile_txn_gap = 2.0;
    mean_base_txn_gap = 1.0;
    protocol = Merging Protocol.default_merge_config;
    isolation = Strategy2;
    params = Cost.default_params;
    seed = 7;
    merge_runner = None;
  }

let trace_params config =
  {
    Trace.n_mobiles = config.n_mobiles;
    duration = config.duration;
    window = config.window;
    connect_gap =
      (match config.connect_alpha with
      | None -> Trace.Exponential config.mean_connect_gap
      | Some alpha -> Trace.Pareto { mean = config.mean_connect_gap; alpha });
    mean_mobile_txn_gap = config.mean_mobile_txn_gap;
    mean_base_txn_gap = config.mean_base_txn_gap;
    seed = config.seed;
  }

type stats = {
  base_txns : int;
  tentative_txns : int;
  merges : int;
  saved : int;
  reexecuted : int;
  rejected : int;
  late_sessions : int;
  late_txns : int;
  anomalies : int;
  aborted_merges : int;
  windows_checked : int;
  serializability_violations : int;
  cost : Cost.tally;
  final_base : State.t;
}

type mobile = {
  mutable engine : Engine.t;
  mutable tentative_rev : Program.t list;
  mutable origin : State.t;
  mutable origin_pos : int;  (* Strategy 1: logical-history position of the snapshot *)
  mutable window_started : int;  (* Strategy 2: window of the history's origin *)
}

let run_trace config workload trace =
  let base = Engine.create workload.initial in
  let window =
    Window.create ?runner:config.merge_runner ~protocol:config.protocol ~params:config.params base
  in
  let window_origin = ref workload.initial in
  let window_index = ref 0 in
  let base_txns = ref 0
  and tentative_txns = ref 0
  and anomalies = ref 0
  and windows_checked = ref 0
  and violations = ref 0 in
  let mobiles =
    Array.init config.n_mobiles (fun _ ->
        {
          engine = Engine.create workload.initial;
          tentative_rev = [];
          origin = workload.initial;
          origin_pos = 0;
          window_started = 0;
        })
  in

  let reset_mobile m =
    m.tentative_rev <- [];
    (match config.isolation with
    | Strategy2 ->
      m.origin <- !window_origin;
      m.window_started <- !window_index
    | Strategy1 ->
      m.origin <- Engine.state base;
      m.origin_pos <- Window.length window);
    m.engine <- Engine.create m.origin
  in

  (* Does the history still begin at a Strategy-1 mobile's snapshot? An
     earlier merge serialized before it breaks this: the paper's anomaly,
     counted apart from aborted merges so that E2's headline number is
     the same with faults on or off. *)
  let snapshot_valid m =
    let prefix = Window.history ~upto:m.origin_pos window in
    State.equal (Protocol.replay workload.initial prefix) m.origin
  in

  let handle_connect m =
    Obs.Dist.observe_int obs_session_len (List.length m.tentative_rev);
    (if m.tentative_rev <> [] then
       let history = History.of_programs (List.rev m.tentative_rev) in
       match (config.isolation, config.protocol) with
       | Strategy1, Merging _ when not (snapshot_valid m) ->
         incr anomalies;
         Obs.Counter.incr obs_anomalies;
         ignore (Window.reprocess window ~origin:m.origin history)
       | _ ->
         (* Strategy 1 merges against its snapshot's suffix. *)
         ignore
           (Window.reconnect ~from:m.origin_pos window
              ~late:(m.window_started < !window_index)
              ~origin:m.origin history));
    reset_mobile m
  in

  let check_window () =
    incr windows_checked;
    Obs.Counter.incr obs_windows;
    let replayed = Protocol.replay !window_origin (Window.history window) in
    if not (State.equal replayed (Engine.state base)) then incr violations;
    match config.isolation with
    | Strategy2 ->
      window_origin := Engine.state base;
      Window.reset window;
      incr window_index
    | Strategy1 -> ()
  in

  let handle_event _t ev =
    Obs.Counter.incr obs_events;
    match ev with
    | Trace.Mobile_txn { mobile = i; program = p } ->
      let m = mobiles.(i) in
      ignore (Engine.execute m.engine p);
      m.tentative_rev <- p :: m.tentative_rev;
      incr tentative_txns
    | Trace.Base_txn { program = p } ->
      incr base_txns;
      ignore (Window.base_txn window p)
    | Trace.Connect { mobile = i } -> handle_connect mobiles.(i)
    | Trace.Window_boundary -> check_window ()
  in
  Obs.Span.with_ ~name:"sync.run" (fun () -> Trace.iter handle_event trace);
  check_window ();
  let c = Window.counts window in
  Obs.Counter.incr ~by:c.Window.late_sessions obs_late;
  Obs.Counter.incr ~by:c.Window.aborted_merges obs_aborted;
  {
    base_txns = !base_txns;
    tentative_txns = !tentative_txns;
    merges = c.Window.merges;
    saved = c.Window.saved;
    reexecuted = c.Window.reexecuted;
    rejected = c.Window.rejected;
    late_sessions = c.Window.late_sessions;
    late_txns = c.Window.late_txns;
    anomalies = !anomalies;
    aborted_merges = c.Window.aborted_merges;
    windows_checked = !windows_checked;
    serializability_violations = !violations;
    cost = Window.cost window;
    final_base = Engine.state base;
  }

let run config workload = run_trace config workload (Trace.generate (trace_params config) workload)

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>base=%d tentative=%d merges=%d saved=%d reexec=%d rejected=%d late=%d anomalies=%d \
     aborted=%d@ windows=%d violations=%d@ cost: %a@]"
    s.base_txns s.tentative_txns s.merges s.saved s.reexecuted s.rejected s.late_sessions
    s.anomalies s.aborted_merges s.windows_checked s.serializability_violations Cost.pp s.cost
