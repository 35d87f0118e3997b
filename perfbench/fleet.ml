(* The two fleet workloads: seeded Sim traces served by Service.run on
   one domain, one trace after another (closed loop). One domain, because
   on a small shared machine a second one measures the scheduler: every
   window spawns and joins it, and every minor collection stops both. *)

open Repro_service
module Sync = Repro_replication.Sync
module Trace = Repro_replication.Trace
module Obs = Repro_obs.Obs

(* [hot = false]: Sim defaults at locality 0.99, a big fleet of tiny
   independent sessions. [hot = true]: locality 0.6 over 64 shared items,
   so every window collapses into one conflict component. fleet-hot is
   superlinear in fleet size (600 mobiles serve in about 0.3 s, 750 in
   about 0.9 s, 1k in about 2.3 s), so it is steadied with many traces
   per run, never with a bigger fleet: 750 mobiles leave room for 16
   traces in 30 s, where 1k left about 10. *)
let config ~hot ~size ~seed =
  let c = { Sim.default_config with Sim.domains = 1; seed } in
  let c = if hot then { c with Sim.locality = 0.6; shared_items = 64 } else c in
  match (hot, size) with
  | false, Stats.Full -> { c with Sim.mobiles = 25_000; duration = 30.0 }
  | true, Stats.Full -> { c with Sim.mobiles = 750; duration = 15.0 }
  | false, Stats.Tiny -> { c with Sim.mobiles = 400; duration = 10.0 }
  | true, Stats.Tiny -> { c with Sim.mobiles = 60; duration = 10.0 }

type instance = {
  sync : Sync.config;
  wl : Sync.workload;
  svc : Service.config;
  trace : Trace.t;
  generate_s : float;  (* Trace.generate alone *)
}

(* The set-up: workload model, shard map universe and trace. *)
let prepare cfg =
  let sync = Sim.sync_config cfg in
  let wl = Sim.workload cfg in
  let svc = Sim.service_config cfg in
  let trace, generate_s = Stats.timed (fun () -> Trace.generate (Sync.trace_params sync) wl) in
  { sync; wl; svc; trace; generate_s }

let serve ?recorder inst =
  Stats.timed (fun () -> Service.run ?recorder inst.svc inst.sync inst.wl inst.trace)

let check_report (r : Service.report) =
  if r.Service.det.Service.violations > 0 then
    [ Printf.sprintf "%d window(s) failed the ground-truth replay check" r.det.violations ]
  else []

(* Deterministic work fingerprint: the det counters and the final base.
   A change that does less work shows up here. *)
let fingerprint (d : Service.det) =
  Printf.sprintf
    "sessions=%d merges=%d saved=%d reexecuted=%d rejected=%d late=%d late_txns=%d base_txns=%d \
     tentative=%d windows=%d components=%d parallel_windows=%d final_base=%s"
    d.sessions d.merges d.saved d.reexecuted d.rejected d.late_sessions d.late_txns d.base_txns
    d.tentative_txns d.windows d.components d.parallel_windows (Stats.state_digest d.final_base)

let print_fingerprint ~name ~i ~seed (d : Service.det) =
  Printf.printf "fingerprint %s trace=%d seed=%d %s\n%!" name i seed (fingerprint d)

(* Traces per measured run, and set-ups timed per trace. fleet-local's
   traces barely differ between seeds, and its set-up takes over a
   second; fleet-hot's cost varies by about 15% from trace to trace, so
   it serves as many as fit in [seconds], at about 1.8 s per trace with
   its set-ups on a 2-vCPU VM. *)
let traces ~hot ~seconds = function
  | Stats.Tiny -> 2
  | Stats.Full -> if hot then max 2 (int_of_float (seconds /. 1.8)) else 2

let setups = 3

(* What one serve of a trace keeps. *)
type serve_result = {
  sample : Stats.sample;  (* the whole Service.run *)
  p50_us : float;
  p99_us : float;
}

(* What a measured run keeps of one trace: its set-ups, and the median
   of its serves. *)
type trace_result = {
  det : Service.det;
  setups_s : float list;  (* scaled processor seconds of each set-up *)
  cpu : float;  (* scaled processor seconds of a serve *)
  raw : float;  (* the same, unscaled *)
  wall : float;  (* wall seconds of a serve *)
  p50 : float;
  p99 : float;
  heap_mb : float;  (* live heap the trace and its first report add *)
  problems : string list;
}

(* One trace: its set-ups, each timed alone, then whole serves of it
   until [seconds] after the trace began, at least one. Every repeated
   serve must give the same det as the first. *)
let measure_trace m ~name ~hot ~size ~seconds i seed =
  let start = Stats.now () in
  let cfg = config ~hot ~size ~seed in
  let before = Stats.live_heap_mb () in
  let inst = ref None in
  let setups_s =
    List.init setups (fun _ ->
        inst := None;
        let x, sample = Stats.measure m (fun () -> prepare cfg) in
        inst := Some x;
        Stats.scaled sample)
  in
  let inst = Option.get !inst in
  let first = ref None and heap_mb = ref 0.0 and problems = ref [] in
  let serves =
    Stats.until ~seconds:(seconds -. (Stats.now () -. start)) ~min:1 (fun _ ->
        let r, sample = Stats.measure m (fun () -> fst (serve inst)) in
        let d = r.Service.det in
        (match !first with
        | None ->
          first := Some d;
          heap_mb := Stats.live_heap_mb () -. before
        | Some d0 ->
          if not (Service.det_equal d d0) then
            problems := Printf.sprintf "trace %d: repeated serves disagree" i :: !problems);
        problems := check_report r @ !problems;
        let t = r.Service.timing in
        let k = sample.Stats.scale in
        { sample; p50_us = t.Service.p50_us *. k; p99_us = t.Service.p99_us *. k })
  in
  let d = Option.get !first in
  print_fingerprint ~name ~i ~seed d;
  let all f = List.map f serves in
  let med f = Stats.median (all f) in
  Printf.eprintf "%s trace=%d sessions=%d setup_s=%s cpu_s=%s raw_s=%s wall_s=%s p50_us=%s p99_us=%s\n%!"
    name i d.Service.sessions (Stats.show setups_s)
    (Stats.show (all (fun s -> Stats.scaled s.sample)))
    (Stats.show (all (fun s -> s.sample.cpu_s)))
    (Stats.show (all (fun s -> s.sample.wall_s)))
    (Stats.show (all (fun s -> s.p50_us)))
    (Stats.show (all (fun s -> s.p99_us)));
  {
    det = d;
    setups_s;
    cpu = med (fun s -> Stats.scaled s.sample);
    raw = med (fun s -> s.sample.cpu_s);
    wall = med (fun s -> s.sample.wall_s);
    p50 = med (fun s -> s.p50_us);
    p99 = med (fun s -> s.p99_us);
    heap_mb = !heap_mb;
    problems = List.rev !problems;
  }

(* Measured run, Obs off: the seed's traces one after another, each for
   an equal share of [seconds]. Throughput is all the traces' sessions
   over the sum of their median serve processor times; the latencies are
   the mean over traces of each trace's median; set-up time is the median
   over every set-up of the run. *)
let measure ~name ~hot ~size ~seed ~seconds =
  let n = traces ~hot ~seconds size in
  let m = Stats.meter () in
  let per_trace =
    List.init n (fun i ->
        measure_trace m ~name ~hot ~size ~seconds:(seconds /. float_of_int n) i (Stats.input_seed seed i))
  in
  let total f = List.fold_left (fun n r -> n + f r.det) 0 per_trace in
  let each f = List.map f per_trace in
  let sessions = total (fun d -> d.Service.sessions) in
  let throughput = Stats.ratio (float_of_int sessions) (Stats.sum (each (fun r -> r.cpu))) in
  let raw_throughput = Stats.ratio (float_of_int sessions) (Stats.sum (each (fun r -> r.raw))) in
  let wall_throughput = Stats.ratio (float_of_int sessions) (Stats.sum (each (fun r -> r.wall))) in
  let setup_s = Stats.median (List.concat (each (fun r -> r.setups_s))) in
  let p50 = Stats.mean (each (fun r -> r.p50)) and p99 = Stats.mean (each (fun r -> r.p99)) in
  let heap = Stats.median (each (fun r -> r.heap_mb)) in
  let problems = List.concat (each (fun r -> r.problems)) in
  let failed = if problems = [] then 0 else sessions in
  Printf.printf
    "summary %s: traces=%d sessions_per_cpu_s=%.1f (unscaled %.1f) sessions_per_wall_s=%.1f merge_p50_us=%.1f \
     merge_p99_us=%.1f (%d sessions in one serve of each) saved_frac=%.4f failed_frac=%.4f \
     heap_live_mb=%.1f setup_s=%.4f\n%!"
    name n throughput raw_throughput wall_throughput p50 p99 sessions
    (Stats.ratio_i (total (fun d -> d.Service.saved)) (total (fun d -> d.Service.tentative_txns)))
    (Stats.ratio_i failed sessions) heap setup_s;
  {
    Stats.values =
      [
        ("setup_s", setup_s);
        ("throughput_per_cpu_s", throughput);
        ("session_p50_us", p50);
        ("heap_live_mb", heap);
      ];
    attempted = sessions;
    failed;
    problems;
  }

(* The admission and dispatch layers, timed by the benchmark's own spans:
   the same calls Service.run makes, made again outside it. *)
let admission_dispatch inst =
  let windows, _, _ =
    Obs.Span.with_ ~name:"perfbench.admission" (fun () ->
        Admission.windows ~seed:inst.svc.Service.seed inst.trace)
  in
  let smap = Smap.make ~shards:inst.svc.Service.shards inst.svc.Service.scheme in
  Obs.Span.with_ ~name:"perfbench.dispatch" (fun () ->
      List.iter (fun w -> ignore (Dispatch.components ~smap w.Admission.events)) windows)

(* Traced run: trace 0 of the seed served alternately with Obs off and
   on for about [seconds] (at least two pairs). Per-layer figures come
   from the first traced serve; the merge p99 from the untraced serve
   before it. *)
let trace ~hot ~size ~seed ~seconds =
  let inst = prepare (config ~hot ~size ~seed:(Stats.input_seed seed 0)) in
  let first = ref None in
  let pairs =
    Stats.until ~seconds ~min:2 (fun _ ->
        let r0, w0 = serve inst in
        Obs.reset ();
        let stamps = ref [] in
        let recorder _ = stamps := Stats.now () :: !stamps in
        let start = Stats.now () in
        let r1, w1 = Obs.with_enabled true (fun () -> serve ~recorder inst) in
        if !first = None then begin
          let window_max, _ =
            List.fold_left
              (fun (mx, prev) t -> (Float.max mx (t -. prev), t))
              (0.0, start) (List.rev !stamps)
          in
          Obs.with_enabled true (fun () -> admission_dispatch inst);
          first := Some (r0, r1, w1, Obs.snapshot (), window_max)
        end;
        let agree =
          if Service.det_equal r0.Service.det r1.Service.det then []
          else [ "telemetry changed the served outcome" ]
        in
        (w0, w1, agree @ check_report r0 @ check_report r1))
  in
  let plain, r, wall, snap, window_max = Option.get !first in
  let d = r.Service.det in
  let busy = Array.fold_left ( +. ) 0.0 r.Service.breakdown.Service.bd_worker_busy_s in
  let component_s = Layers.span snap "service.component" in
  let service =
    [
      ("workload.trace_generate_s", inst.generate_s);
      ("service.admission_s", Layers.span snap "perfbench.admission");
      ("service.dispatch_s", Layers.span snap "perfbench.dispatch");
      ("service.worker_busy_frac", Stats.ratio busy (wall *. float_of_int inst.svc.Service.domains));
      ("service.window_ms_max", window_max *. 1000.0);
      ("service.merge_p99_us", plain.Service.timing.Service.p99_us);
      ("service.components", float_of_int d.components);
      ("service.parallel_windows", float_of_int d.parallel_windows);
      ("service.item_conflict_frac", Stats.ratio_i d.item_conflicted_sessions d.sessions);
      ( "service.shard_false_sharing_frac",
        Stats.ratio_i (d.shard_conflicted_sessions - d.item_conflicted_sessions) d.sessions );
      ("service.component_s", component_s);
      ( "service.handler_s",
        component_s -. Layers.span snap "protocol.merge" -. Layers.span snap "protocol.reprocess" );
      ("obs.trace_overhead_frac", Stats.overhead pairs);
    ]
  in
  let problems = List.concat_map (fun (_, _, p) -> p) pairs in
  print_fingerprint ~name:"traced" ~i:0 ~seed:(Stats.input_seed seed 0) d;
  {
    Stats.values = service @ Layers.of_snapshot snap;
    attempted = d.sessions;
    failed = (if problems = [] then 0 else d.sessions);
    problems;
  }
