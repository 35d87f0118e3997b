open Repro_txn
module Rng = Repro_workload.Rng
module Gen = Repro_workload.Gen
module Zipf = Repro_workload.Zipf
module Sync = Repro_replication.Sync
module Protocol = Repro_replication.Protocol
module Trace = Repro_replication.Trace
module Obs = Repro_obs.Obs
module Report = Repro_obs.Report

type config = {
  mobiles : int;
  duration : float;
  window : float;
  mean_connect_gap : float;
  disconnect_alpha : float option;
  mean_mobile_txn_gap : float;
  mean_base_txn_gap : float;
  items_per_mobile : int;
  shared_items : int;
  locality : float;
  zipf_skew : float;
  commuting_fraction : float;
  seed : int;
  shards : int;
  domains : int;
  range_shards : bool;
}

let default_config =
  {
    mobiles = 10_000;
    duration = 15.0;
    window = 5.0;
    mean_connect_gap = 2.0;
    disconnect_alpha = Some 1.6;
    mean_mobile_txn_gap = 10.0;
    mean_base_txn_gap = 1.0;
    items_per_mobile = 8;
    shared_items = 128;
    locality = 0.99;
    zipf_skew = 0.9;
    commuting_fraction = 0.6;
    seed = 42;
    shards = 16;
    domains = 1;
    range_shards = true;
  }

let home_item mobile j = Gen.numbered2 "m" mobile ".d" j
let shared_item j = Gen.numbered "g" j

(* The mobile of a trace name [M<mobile>T<n>] ({!Trace.generate}); 0 for
   any other name. *)
let mobile_of_name name =
  let len = String.length name in
  let rec digits i = if i < len && name.[i] >= '0' && name.[i] <= '9' then digits (i + 1) else i in
  let m_end = digits 1 in
  if m_end > 1 && m_end < len && name.[0] = 'M' && name.[m_end] = 'T'
     && digits (m_end + 1) > m_end + 1
  then Option.value ~default:0 (int_of_string_opt (String.sub name 1 (m_end - 1)))
  else 0

let universe cfg =
  Array.init
    ((cfg.mobiles * cfg.items_per_mobile) + cfg.shared_items)
    (fun i ->
      if i < cfg.shared_items then shared_item i
      else
        let i = i - cfg.shared_items in
        home_item (i / cfg.items_per_mobile) (i mod cfg.items_per_mobile))

(* The salesperson's data model: each mobile works almost exclusively in
   its private home region (its accounts, its orders) and occasionally
   touches a small shared pool of hot global items, Zipf-skewed. The
   locality knob is what the service's throughput lives and dies by:
   every shared touch risks chaining the session into the window's big
   shared component. *)
let workload cfg : Sync.workload =
  let home_zipf = Zipf.make ~n:cfg.items_per_mobile ~skew:cfg.zipf_skew in
  let shared_zipf = Zipf.make ~n:cfg.shared_items ~skew:cfg.zipf_skew in
  let profile = { Gen.default_profile with commuting_fraction = cfg.commuting_fraction } in
  (* Programs name their items by the universe's own strings (its
     layout is in sim.mli), so a fleet's programs share one copy of
     each name. A mobile outside [0, mobiles), which only a library
     caller's trace can carry, has no home region there. *)
  let universe = universe cfg in
  let home mobile j =
    if mobile < cfg.mobiles then universe.(cfg.shared_items + (mobile * cfg.items_per_mobile) + j)
    else home_item mobile j
  in
  (* [k] distinct items for one transaction of mobile [mobile]
     ([mobile < 0]: base — shared pool only). Best effort: gives up on
     distinctness after a bounded number of draws, so a transaction can
     come out smaller under extreme skew, though never empty: the first
     draw cannot repeat. *)
  let pick rng ~mobile k =
    let out = ref [] and n = ref 0 and attempts = ref 0 in
    while !n < k && !attempts < (k * 8) + 8 do
      incr attempts;
      let x =
        if mobile >= 0 && Rng.bool rng cfg.locality then home mobile (Zipf.sample home_zipf rng)
        else universe.(Zipf.sample shared_zipf rng)
      in
      if not (List.exists (String.equal x) !out) then begin
        out := x :: !out;
        incr n
      end
    done;
    List.rev !out
  in
  let make rng ~name ~mobile =
    let n_writes = max 1 (Rng.in_range rng 1 2) in
    let n_reads = Rng.in_range rng 0 1 in
    let chosen = pick rng ~mobile (n_writes + n_reads) in
    let rec split k l =
      if k = 0 then ([], l)
      else
        match l with
        | [] -> ([], [])
        | x :: rest ->
            let a, b = split (k - 1) rest in
            (x :: a, b)
    in
    let writes, reads = split n_writes chosen in
    Gen.transaction_over profile rng ~name ~writes ~reads
  in
  let initial =
    let vrng = Rng.create (cfg.seed lxor 0x5eed) in
    Array.fold_left (fun s x -> State.set s x (Rng.in_range vrng 50 150)) State.empty universe
  in
  {
    initial;
    make_mobile_txn =
      (fun rng ~name -> make rng ~name ~mobile:(mobile_of_name name));
    make_base_txn = (fun rng ~name -> make rng ~name ~mobile:(-1));
  }

let sync_config cfg =
  {
    Sync.default_config with
    Sync.n_mobiles = cfg.mobiles;
    Sync.duration = cfg.duration;
    Sync.window = cfg.window;
    Sync.mean_connect_gap = cfg.mean_connect_gap;
    Sync.connect_alpha = cfg.disconnect_alpha;
    Sync.mean_mobile_txn_gap = cfg.mean_mobile_txn_gap;
    Sync.mean_base_txn_gap = cfg.mean_base_txn_gap;
    Sync.protocol = Sync.Merging Protocol.default_merge_config;
    Sync.isolation = Sync.Strategy2;
    Sync.seed = cfg.seed;
  }

let service_config cfg =
  {
    Service.shards = cfg.shards;
    Service.domains = cfg.domains;
    Service.scheme = (if cfg.range_shards then Smap.Range (universe cfg) else Smap.Hash);
    Service.seed = cfg.seed;
  }

type result = {
  report : Service.report;
  baseline : Service.report option;  (* same trace, domains = 1 *)
  baseline_matches : bool;  (* det_equal report baseline — true when no baseline ran *)
  obs_parity : bool option;
      (* merged Obs registry of the parallel run equals the baseline's
         on every deterministic metric (Report.strip_timings); None when
         no baseline ran or metrics are disabled *)
  wall_speedup : float option;
  events : int;
}

(* [run ?baseline ?recorder cfg] — generate one trace, serve it. With
   [baseline] (default: on whenever [domains > 1]) the same trace is
   first served on a single domain inside a detached Obs shard: its
   deterministic outcome must match the parallel one bit for bit (the
   cross-domain determinism check), its metric snapshot must equal the
   parallel run's after [Report.strip_timings] (the obs-parity check),
   and the wall ratio is the measured end-to-end speedup. The baseline's
   telemetry is discarded after the comparison, so the ambient registry
   carries exactly the parallel run's exact merged metrics and events. *)
let run ?baseline ?recorder cfg =
  let baseline = Option.value baseline ~default:(cfg.domains > 1) in
  let sync = sync_config cfg in
  let wl = workload cfg in
  let trace = Trace.generate (Sync.trace_params sync) wl in
  let svc = service_config cfg in
  let base, base_snap =
    if baseline && cfg.domains > 1 then begin
      let b, sh =
        Obs.Shard.collect (fun () ->
            Service.run { svc with Service.domains = 1 } sync wl trace)
      in
      let snap = Obs.Shard.snapshot sh in
      Obs.Shard.release sh;
      (Some b, Some snap)
    end
    else (None, None)
  in
  let report, shard = Obs.Shard.collect (fun () -> Service.run ?recorder svc sync wl trace) in
  let report_snap = Obs.Shard.snapshot shard in
  Obs.Shard.merge shard;
  Obs.Shard.release shard;
  let matches =
    match base with None -> true | Some b -> Service.det_equal report.Service.det b.Service.det
  in
  let obs_parity =
    match base_snap with
    | Some bs when Obs.enabled () -> Some (Report.deterministic_equal bs report_snap)
    | _ -> None
  in
  let wall_speedup =
    match base with
    | Some b when report.Service.timing.Service.wall_s > 0.0 ->
        Some (b.Service.timing.Service.wall_s /. report.Service.timing.Service.wall_s)
    | _ -> None
  in
  {
    report;
    baseline = base;
    baseline_matches = matches;
    obs_parity;
    wall_speedup;
    events = Trace.length trace;
  }

let pp_result ppf r =
  Format.fprintf ppf "@[<v>%a@]" Service.pp_report r.report;
  (match r.wall_speedup with
  | Some s -> Format.fprintf ppf "@ wall speedup vs 1 domain: %.2fx" s
  | None -> ());
  (match r.obs_parity with
  | Some true -> Format.fprintf ppf "@ obs parity vs 1 domain: ok"
  | Some false -> Format.fprintf ppf "@ WARNING: merged metrics diverged from single-domain run"
  | None -> ());
  if not r.baseline_matches then
    Format.fprintf ppf "@ WARNING: parallel run diverged from single-domain baseline"
