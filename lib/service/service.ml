open Repro_txn
open Repro_history
module Engine = Repro_db.Engine
module Protocol = Repro_replication.Protocol
module Sync = Repro_replication.Sync
module Window = Repro_replication.Window
module Cost = Repro_replication.Cost
module Trace = Repro_replication.Trace
module Obs = Repro_obs.Obs

(* Telemetry. Coordinator-side metrics below are observed on the main
   domain after each window's barrier. Worker-side metrics (everything
   the engine/protocol internals and the per-session spans record from
   inside component tasks) land in per-task [Obs.Shard] registries and
   are folded back in task order at the same barrier, so the merged
   registry is exact and bit-identical at any [domains] count — see
   docs/SERVICE.md. Wall-clock distributions are marked [timing] so
   deterministic comparisons ignore them. *)
let obs_sessions = Obs.Counter.make "service.sessions"
let obs_merges = Obs.Counter.make "service.merges"
let obs_late = Obs.Counter.make "service.late_sessions"
let obs_windows = Obs.Counter.make "service.windows"
let obs_components = Obs.Counter.make "service.components"
let obs_parallel_windows = Obs.Counter.make "service.parallel_windows"
let obs_violations = Obs.Counter.make "service.violations"
let obs_latency = Obs.Dist.make ~timing:true "service.session_latency_us"
let obs_comp_sessions = Obs.Dist.make "service.component_sessions"
let obs_worker_util = Obs.Dist.make ~timing:true "service.worker_utilization"
let obs_foldback_wait = Obs.Dist.make ~timing:true "service.foldback_wait_s"
let wal_forces_counter = Obs.Counter.make "db.wal_forces"

type config = {
  shards : int;
  domains : int;
  scheme : Smap.scheme;
  seed : int;  (* admission tie-break seed *)
}

let default_config = { shards = 16; domains = 1; scheme = Smap.Hash; seed = 11 }

(* Deterministic part of the report: a pure function of (trace, sync
   config, shards, scheme, seed) — identical across runs and across
   domain counts. This is what the determinism and serial-equivalence
   properties compare. *)
type det = {
  sessions : int;
  merges : int;
  saved : int;
  reexecuted : int;
  rejected : int;
  late_sessions : int;
  late_txns : int;
  base_txns : int;
  tentative_txns : int;
  windows : int;
  violations : int;
  components : int;
  parallel_windows : int;
  shard_conflicted_sessions : int;
  item_conflicted_sessions : int;
  cost_total : float;
  final_base : State.t;
}

(* Wall-clock measurements: machine- and scheduling-dependent. *)
type timing = {
  wall_s : float;
  work_s : float;  (* sum of per-component busy times *)
  sessions_per_sec : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
}

(* Per-shard and per-worker breakdown, outside [det]: the shard arrays
   are deterministic, the worker arrays are scheduling-dependent timing
   attribution. *)
type breakdown = {
  bd_shard_sessions : int array;
  bd_shard_conflicted : int array;
  bd_worker_tasks : int array;
  bd_worker_busy_s : float array;
}

type report = {
  det : det;
  speedup : float;
      (* cost-model speedup of the dispatched schedule on [domains]
         domains: total component work / LPT critical path, aggregated
         over windows. Hardware-independent; depends on [domains]. *)
  timing : timing;
  cost : Cost.tally;
  breakdown : breakdown;
}

(* Per-component worker result. [deltas] hold, for each event that
   changed an item, its window event index, the component engine's state
   just after it and the items it changed, in admission order: the
   canonical base takes the changed items' values from that state. *)
type comp_result = {
  r_counts : Window.counts;
  r_violation : bool;
  r_deltas : (int * State.t * Item.Set.t) list;
  r_latencies : float list;
  r_weight : float;
  r_busy : float;
  r_cost : Cost.tally;
}

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0 else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

(* Longest-processing-time-first schedule of [weights] onto [bins]:
   returns the makespan. Deterministic. *)
let lpt_makespan ~bins weights =
  let total = List.fold_left ( +. ) 0.0 weights in
  if bins <= 1 then total
  else begin
    let loads = Array.make bins 0.0 in
    let sorted = List.sort (fun a b -> compare (b : float) a) weights in
    List.iter
      (fun w ->
        let mi = ref 0 in
        Array.iteri (fun i l -> if l < loads.(!mi) then mi := i) loads;
        loads.(!mi) <- loads.(!mi) +. w)
      sorted;
    Array.fold_left max 0.0 loads
  end

(* One component of one window: an independent serial sub-simulation
   running the same Window handlers as Sync.run, against a scratch engine
   seeded with the window origin restricted to the component's footprint.
   No member reads or writes outside that footprint, so the projection
   holds every value the component can observe; a late session's origin
   window is restricted the same way, once per origin window. Items
   nobody in the component writes keep their origin values, the same
   values the serial run shows them, so the scratch outcomes equal the
   serial ones (the argument is spelled out in docs/SERVICE.md §5). *)
let run_component ~(sync : Sync.config) ~(origins : State.t array) ~window_index
    ~(events : Admission.wevent array) (comp : Dispatch.component) =
  let t_start = Unix.gettimeofday () in
  let members = comp.Dispatch.members and footprint = comp.Dispatch.footprint in
  let origin = State.restrict origins.(window_index) footprint in
  let late_origins = ref [] in
  let origin_of started =
    if started = window_index then origin
    else
      match List.assoc_opt started !late_origins with
      | Some o -> o
      | None ->
          let o = State.restrict origins.(started) footprint in
          late_origins := (started, o) :: !late_origins;
          o
  in
  let engine = Engine.create origin in
  let window = Window.create ~protocol:sync.Sync.protocol ~params:sync.Sync.params engine in
  let deltas = ref [] in
  let latencies = ref [] in
  List.iter
    (fun idx ->
      match events.(idx) with
      | Admission.Base { program; _ } ->
          let record = Window.base_txn window program in
          let changed =
            List.fold_left
              (fun acc (x, before, v) -> if before <> v then Item.Set.add x acc else acc)
              Item.Set.empty record.Interp.writes
          in
          if not (Item.Set.is_empty changed) then
            deltas := (idx, record.Interp.after, changed) :: !deltas
      | Admission.Session s ->
          let t0 = Unix.gettimeofday () in
          let before = Engine.state engine in
          Obs.Span.with_ ~lane:Obs.Event.Base ~name:"service.session" (fun () ->
              ignore
                (Window.reconnect window ~late:(s.window_started < window_index)
                   ~origin:(origin_of s.window_started)
                   (History.of_programs s.programs)));
          let after = Engine.state engine in
          let changed =
            Item.Set.filter (fun x -> State.get before x <> State.get after x) s.Admission.writes
          in
          if not (Item.Set.is_empty changed) then deltas := (idx, after, changed) :: !deltas;
          latencies := (Unix.gettimeofday () -. t0) :: !latencies)
    members;
  (* Per-component ground-truth serializability check, the component
     slice of Sync's window check: the component's logical history must
     replay from the window origin to the scratch engine's state. Both
     are projections onto the component's footprint, so whole-state
     equality is O(footprint). *)
  let replayed = Protocol.replay origin (Window.history window) in
  let violation = not (State.equal replayed (Engine.state engine)) in
  let busy = Unix.gettimeofday () -. t_start in
  {
    r_counts = Window.counts window;
    r_violation = violation;
    r_deltas = List.rev !deltas;
    r_latencies = List.rev !latencies;
    r_weight = Cost.total (Window.cost window) +. float_of_int (List.length members);
    r_busy = busy;
    r_cost = Window.cost window;
  }

let run ?recorder config (sync : Sync.config) (workload : Sync.workload) trace =
  if config.shards < 1 then invalid_arg "Service.run: shards must be >= 1";
  if config.domains < 1 then invalid_arg "Service.run: domains must be >= 1";
  (match sync.Sync.isolation with
  | Sync.Strategy2 -> ()
  | Sync.Strategy1 ->
      invalid_arg
        "Service.run: only Strategy 2 isolation is supported (per-mobile Strategy-1 snapshots \
         have no common origin to dispatch a window against)");
  (match sync.Sync.merge_runner with
  | None -> ()
  | Some _ -> invalid_arg "Service.run: custom merge runners are not supported");
  let t_start = Unix.gettimeofday () in
  let canonical = Engine.create workload.Trace.initial in
  let smap = Smap.make ~shards:config.shards config.scheme in
  let windows, base_txns, tentative_txns = Admission.windows ~seed:config.seed trace in
  let n_windows = List.length windows in
  let origins = Array.make (n_windows + 1) workload.Trace.initial in
  let cost = Cost.zero () in
  let sessions = ref 0
  and merges = ref 0
  and saved = ref 0
  and reexecuted = ref 0
  and rejected = ref 0
  and late_sessions = ref 0
  and late_txns = ref 0
  and violations = ref 0
  and components = ref 0
  and parallel_windows = ref 0
  and shard_conflicted = ref 0
  and item_conflicted = ref 0 in
  let total_weight = ref 0.0
  and critical_path = ref 0.0
  and work_s = ref 0.0 in
  let latencies = ref [] in
  (* Run-level breakdown accumulators. *)
  let bd_shard_sessions = Array.make config.shards 0 in
  let bd_shard_conflicted = Array.make config.shards 0 in
  let bd_worker_tasks = Array.make config.domains 0 in
  let bd_worker_busy = Array.make config.domains 0.0 in
  let last_wal_forces = ref (Obs.Counter.value wal_forces_counter) in
  let run_window (w : Admission.window) =
    let t_win0 = Unix.gettimeofday () in
    let comps, dstats = Dispatch.components ~smap w.Admission.events in
    let comp_arr = Array.of_list comps in
    (* Every component runs in a fresh Obs shard — also at [domains = 1]
       — and the shards are folded back in task order below, so the
       merged telemetry (metrics *and* trace events) is bit-identical
       across runs and domain counts. The window span is the merge
       anchor: worker spans re-parent under it. *)
    let anchor = Obs.Span.instance () in
    let depth_base = Obs.Span.depth () in
    let results =
      Pool.map_w ~domains:config.domains
        (fun ~worker i ->
          let r, shard =
            Obs.Shard.collect ~anchor ~depth_base (fun () ->
                Obs.Span.with_ ~lane:Obs.Event.Base ~name:"service.component" (fun () ->
                    run_component ~sync ~origins ~window_index:w.Admission.index
                      ~events:w.Admission.events comp_arr.(i)))
          in
          (r, shard, worker))
        (Array.length comp_arr)
    in
    let t_par = Unix.gettimeofday () -. t_win0 in
    (* Fold the telemetry shards back in task order. The [worker] tag on
       merged trace events is the *task index* — a deterministic virtual
       worker identity — not the physical domain, which is
       scheduling-dependent. *)
    Array.iteri
      (fun i (_, shard, _) ->
        Obs.Shard.merge ~worker:i shard;
        Obs.Shard.release shard)
      results;
    (* Fold results back into the canonical WAL-backed base in admission
       order: merge the per-component delta streams (each ascending in
       event index) and apply one update group per event. The whole
       window's fold-back rides one WAL commit group, so the per-event
       forces coalesce into a single device write + sync and a crash
       mid-window loses the window atomically. *)
    let all_deltas =
      List.sort
        (fun (a, _, _) (b, _, _) -> compare (a : int) b)
        (List.concat_map (fun (r, _, _) -> r.r_deltas) (Array.to_list results))
    in
    Engine.with_group canonical (fun () ->
        List.iter
          (fun (_idx, values, changed) -> Engine.apply_updates canonical values changed)
          all_deltas);
    (* Aggregate in task order — deterministic regardless of which
       domain ran what. *)
    let weights = ref [] in
    let win_worker_busy = Array.make config.domains 0.0 in
    Array.iter
      (fun (r, _, worker) ->
        let c = r.r_counts in
        merges := !merges + c.Window.merges;
        saved := !saved + c.Window.saved;
        reexecuted := !reexecuted + c.Window.reexecuted;
        rejected := !rejected + c.Window.rejected;
        late_sessions := !late_sessions + c.Window.late_sessions;
        late_txns := !late_txns + c.Window.late_txns;
        Cost.add cost r.r_cost;
        work_s := !work_s +. r.r_busy;
        latencies := List.rev_append r.r_latencies !latencies;
        weights := r.r_weight :: !weights;
        win_worker_busy.(worker) <- win_worker_busy.(worker) +. r.r_busy;
        bd_worker_tasks.(worker) <- bd_worker_tasks.(worker) + 1)
      results;
    Array.iteri (fun i b -> bd_worker_busy.(i) <- bd_worker_busy.(i) +. b) win_worker_busy;
    if Array.exists (fun (r, _, _) -> r.r_violation) results then incr violations;
    let weights = List.rev !weights in
    total_weight := !total_weight +. List.fold_left ( +. ) 0.0 weights;
    critical_path := !critical_path +. lpt_makespan ~bins:config.domains weights;
    let w_sessions = Array.fold_left (fun n c -> n + c.Dispatch.sessions) 0 comp_arr in
    sessions := !sessions + w_sessions;
    components := !components + dstats.Dispatch.components;
    if dstats.Dispatch.components >= 2 then incr parallel_windows;
    shard_conflicted := !shard_conflicted + dstats.Dispatch.shard_conflicted_sessions;
    item_conflicted := !item_conflicted + dstats.Dispatch.item_conflicted_sessions;
    Array.iteri
      (fun s n ->
        bd_shard_sessions.(s) <- bd_shard_sessions.(s) + n;
        bd_shard_conflicted.(s) <- bd_shard_conflicted.(s) + dstats.Dispatch.shard_conflicted.(s))
      dstats.Dispatch.shard_sessions;
    (* Coordinator-side metrics, after the barrier. *)
    Obs.Counter.incr obs_windows;
    Obs.Counter.incr ~by:w_sessions obs_sessions;
    Obs.Counter.incr ~by:dstats.Dispatch.components obs_components;
    if dstats.Dispatch.components >= 2 then Obs.Counter.incr obs_parallel_windows;
    Array.iter (fun c -> Obs.Dist.observe_int obs_comp_sessions c.Dispatch.sessions) comp_arr;
    Array.iter
      (fun (r, _, _) ->
        Obs.Counter.incr ~by:r.r_counts.Window.merges obs_merges;
        Obs.Counter.incr ~by:r.r_counts.Window.late_sessions obs_late;
        if r.r_violation then Obs.Counter.incr obs_violations;
        List.iter (fun l -> Obs.Dist.observe obs_latency (l *. 1e6)) r.r_latencies)
      results;
    (* Worker utilization and fold-back wait: how much of the window's
       parallel section each physical worker spent busy vs idle at the
       barrier. Wall-clock attribution — timing-only, outside [det]. *)
    let used_workers = min config.domains (max 1 (Array.length comp_arr)) in
    if Array.length comp_arr > 0 && t_par > 0.0 then
      for wk = 0 to used_workers - 1 do
        Obs.Dist.observe obs_worker_util (min 1.0 (win_worker_busy.(wk) /. t_par));
        Obs.Dist.observe obs_foldback_wait (Float.max 0.0 (t_par -. win_worker_busy.(wk)))
      done;
    (* The next window's common origin is the folded canonical state. *)
    origins.(w.Admission.index + 1) <- Engine.state canonical;
    (* Flight-recorder sample, after the fold-back barrier. *)
    match recorder with
    | None -> ()
    | Some emit ->
        let now = Unix.gettimeofday () in
        let wal_now = Obs.Counter.value wal_forces_counter in
        let d_wal = wal_now - !last_wal_forces in
        last_wal_forces := wal_now;
        let dt = now -. t_win0 in
        let win_latencies =
          List.concat_map (fun (r, _, _) -> r.r_latencies) (Array.to_list results)
        in
        let util =
          Array.map (fun b -> if t_par > 0.0 then min 1.0 (b /. t_par) else 0.0) win_worker_busy
        in
        emit
          {
            Flight.window = w.Admission.index;
            windows = n_windows;
            final = w.Admission.index = n_windows - 1;
            wall_s = now -. t_start;
            dt_s = dt;
            sessions = !sessions;
            d_sessions = w_sessions;
            rate = (if dt > 0.0 then float_of_int w_sessions /. dt else 0.0);
            components = dstats.Dispatch.components;
            queue_depth = Array.length w.Admission.events;
            conflict_rate =
              (if w_sessions > 0 then
                 float_of_int dstats.Dispatch.item_conflicted_sessions /. float_of_int w_sessions
               else 0.0);
            shard_sessions = dstats.Dispatch.shard_sessions;
            shard_conflicted = dstats.Dispatch.shard_conflicted;
            worker_busy_s = win_worker_busy;
            worker_util = util;
            latency_hist = Flight.histogram win_latencies;
            wal_forces = wal_now;
            d_wal_forces = d_wal;
          }
  in
  Obs.Span.with_ ~name:"service.run" (fun () ->
      List.iter
        (fun w -> Obs.Span.with_ ~name:"service.window" (fun () -> run_window w))
        windows);
  let wall_s = Unix.gettimeofday () -. t_start in
  let sorted = Array.of_list !latencies in
  Array.sort compare sorted;
  let sorted_us = Array.map (fun s -> s *. 1e6) sorted in
  {
    det =
      {
        sessions = !sessions;
        merges = !merges;
        saved = !saved;
        reexecuted = !reexecuted;
        rejected = !rejected;
        late_sessions = !late_sessions;
        late_txns = !late_txns;
        base_txns;
        tentative_txns;
        windows = n_windows;
        violations = !violations;
        components = !components;
        parallel_windows = !parallel_windows;
        shard_conflicted_sessions = !shard_conflicted;
        item_conflicted_sessions = !item_conflicted;
        cost_total = Cost.total cost;
        final_base = Engine.state canonical;
      };
    speedup = (if !critical_path > 0.0 then !total_weight /. !critical_path else 1.0);
    timing =
      {
        wall_s;
        work_s = !work_s;
        sessions_per_sec = (if wall_s > 0.0 then float_of_int !sessions /. wall_s else 0.0);
        p50_us = quantile sorted_us 0.50;
        p99_us = quantile sorted_us 0.99;
        p999_us = quantile sorted_us 0.999;
      };
    cost;
    breakdown =
      {
        bd_shard_sessions;
        bd_shard_conflicted;
        bd_worker_tasks;
        bd_worker_busy_s = bd_worker_busy;
      };
  }

(* Does the service's deterministic outcome match a serial Sync run over
   the same trace? The per-session verdict counters, the ground-truth
   checks, and the final base state must all agree; costs intentionally
   differ (component slices build smaller precedence graphs). *)
let agrees_with_sync (d : det) (s : Sync.stats) =
  d.merges = s.Sync.merges && d.saved = s.Sync.saved && d.reexecuted = s.Sync.reexecuted
  && d.rejected = s.Sync.rejected
  && d.late_sessions = s.Sync.late_sessions
  && d.late_txns = s.Sync.late_txns
  && d.base_txns = s.Sync.base_txns
  && d.tentative_txns = s.Sync.tentative_txns
  && d.windows = s.Sync.windows_checked
  && d.violations = s.Sync.serializability_violations
  && State.equal d.final_base s.Sync.final_base

let det_equal (a : det) (b : det) =
  a.sessions = b.sessions && a.merges = b.merges && a.saved = b.saved
  && a.reexecuted = b.reexecuted && a.rejected = b.rejected
  && a.late_sessions = b.late_sessions && a.late_txns = b.late_txns
  && a.base_txns = b.base_txns && a.tentative_txns = b.tentative_txns
  && a.windows = b.windows && a.violations = b.violations && a.components = b.components
  && a.parallel_windows = b.parallel_windows
  && a.shard_conflicted_sessions = b.shard_conflicted_sessions
  && a.item_conflicted_sessions = b.item_conflicted_sessions
  && a.cost_total = b.cost_total
  && State.equal a.final_base b.final_base

let pp_report ppf r =
  let d = r.det and t = r.timing and b = r.breakdown in
  Format.fprintf ppf
    "@[<v>sessions=%d merges=%d saved=%d reexec=%d rejected=%d late=%d violations=%d@ \
     windows=%d components=%d parallel_windows=%d shard_conflicted=%d item_conflicted=%d@ \
     speedup=%.2fx (cost-model) wall=%.3fs work=%.3fs sessions/sec=%.0f@ \
     latency us: p50=%.0f p99=%.0f p999=%.0f"
    d.sessions d.merges d.saved d.reexecuted d.rejected d.late_sessions d.violations d.windows
    d.components d.parallel_windows d.shard_conflicted_sessions d.item_conflicted_sessions
    r.speedup t.wall_s t.work_s t.sessions_per_sec t.p50_us t.p99_us t.p999_us;
  (* Per-shard breakdown: the four busiest shards (sessions, conflicted
     share); per-worker breakdown: tasks claimed and busy seconds. *)
  let order = Array.init (Array.length b.bd_shard_sessions) Fun.id in
  Array.sort
    (fun i j -> compare (b.bd_shard_sessions.(j), i) (b.bd_shard_sessions.(i), j))
    order;
  Format.fprintf ppf "@ shards (top):";
  Array.iteri
    (fun rank s ->
      if rank < 4 && b.bd_shard_sessions.(s) > 0 then
        Format.fprintf ppf " s%d=%d(%dc)" s b.bd_shard_sessions.(s) b.bd_shard_conflicted.(s))
    order;
  Format.fprintf ppf "@ workers:";
  Array.iteri
    (fun w n -> Format.fprintf ppf " w%d=%d tasks/%.3fs" w n b.bd_worker_busy_s.(w))
    b.bd_worker_tasks;
  Format.fprintf ppf "@]"
