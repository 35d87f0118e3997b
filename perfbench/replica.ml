(* The replica-cluster workload: three Mbase replicas and eight roaming
   mobiles driven by a generated round schedule over 5%-lossy links, in
   steady state (no partitions, no crashes). Single-threaded. *)

module Cluster = Repro_multibase.Cluster
module Mbase = Repro_multibase.Mbase
module Gtxn = Repro_multibase.Gtxn
module P = Repro_replication.Protocol
module Net = Repro_fault.Net
module Session = Repro_fault.Session
module Exchange = Repro_multibase.Exchange
module Rng = Repro_workload.Rng
module Obs = Repro_obs.Obs

let bases = 3
let mobiles = 8
let accounts = 64
let link = Net.lossy ~drop_rate:0.05

(* Retry budgets twice the defaults: with the defaults a few sessions in
   a run exhaust their retries on the lossy links and abort. Steady state
   has no failed operations. *)
let session = { Session.default_config with Session.max_retries = 16 }
let xconfig = { Exchange.default_config with Exchange.max_retries = 12 }

(* Rounds are fixed per cluster because round time grows with the stable
   prefix: a run adds whole clusters, never longer ones. *)
let rounds = function Stats.Full -> 250 | Stats.Tiny -> 12

(* One round: each mobile syncs at a random base with probability 0.5,
   carrying 1–3 transactions; then each base submits a local
   transaction, runs one exchange with a random peer, and ticks. *)
let schedule ~size ~seed =
  let rng = Rng.create seed in
  let op_seed = ref (seed * 100_003) in
  let fresh () =
    incr op_seed;
    !op_seed
  in
  List.init (rounds size) (fun _ ->
      let sessions =
        List.concat
          (List.init mobiles (fun mobile ->
               if Rng.bool rng 0.5 then begin
                 let base = Rng.int rng bases in
                 let length = 1 + Rng.int rng 3 in
                 [ Cluster.Mobile_session { mobile; base; length; schedule = link; seed = fresh () } ]
               end
               else []))
      in
      let base_ops =
        List.concat
          (List.init bases (fun base ->
               let responder = (base + 1 + Rng.int rng (bases - 1)) mod bases in
               let txn = Cluster.Base_txn { base; seed = fresh () } in
               let exchange =
                 Cluster.Exchange { initiator = base; responder; schedule = link; seed = fresh () }
               in
               [ txn; exchange; Cluster.Tick { base } ]))
      in
      sessions @ base_ops)

let op_span = function
  | Cluster.Mobile_session _ -> "perfbench.session_op"
  | Cluster.Exchange _ -> "perfbench.exchange_op"
  | Cluster.Base_txn _ -> "perfbench.base_txn_op"
  | Cluster.Tick _ -> "perfbench.tick_op"
  | Cluster.Crash _ -> "perfbench.crash_op"

(* Read-only Mbase probes taken after every round: commit lag per
   transaction name, tentative depth and stable-prefix spread. *)
type probe = {
  first_seen : (string, int) Hashtbl.t;
  stable_at : (string, int) Hashtbl.t;  (* bases holding it in [stable] *)
  processed : int array;  (* stable entries already visited, per base *)
  mutable lags : float list;
  mutable depth_max : int;
  mutable spreads : float list;
}

let probe_round p cluster round =
  let see name = if not (Hashtbl.mem p.first_seen name) then Hashtbl.add p.first_seen name round in
  let lens =
    Array.mapi
      (fun i b ->
        let stable = Mbase.stable b in
        List.iteri
          (fun k ((g : Gtxn.t), _) ->
            if k >= p.processed.(i) then begin
              let name = Gtxn.name g in
              see name;
              let n = 1 + Option.value (Hashtbl.find_opt p.stable_at name) ~default:0 in
              Hashtbl.replace p.stable_at name n;
              if n = bases then
                p.lags <- float_of_int (round - Hashtbl.find p.first_seen name) :: p.lags
            end)
          stable;
        let len = List.length stable in
        p.processed.(i) <- len;
        List.iter (fun (bt : P.base_txn) -> see bt.P.program.Repro_txn.Program.name) (Mbase.tentative_view b);
        p.depth_max <- max p.depth_max (Mbase.tentative_count b);
        len)
      (Cluster.bases cluster)
  in
  let hi = Array.fold_left max 0 lens and lo = Array.fold_left min max_int lens in
  p.spreads <- float_of_int (hi - lo) :: p.spreads;
  lens

(* The set-up: the round schedule and a fresh cluster. *)
let setup ~size ~seed =
  let ops, generate_s = Stats.timed (fun () -> schedule ~size ~seed) in
  (ops, Cluster.create ~session ~xconfig ~bases ~mobiles ~n_accounts:accounts (), generate_s)

(* What one serve of a schedule keeps: summaries only, so a later serve's
   live heap does not include this one's cluster. *)
type served = {
  generate_s : float;
  round_s : float list;  (* processor seconds of each round, the sum of its ops *)
  session_us : float list;  (* processor microseconds of each Mobile_session op *)
  live_mb : float;  (* live heap the schedule, cluster and probes add *)
  decided : int;  (* transactions in [stable] at every base after the rounds *)
  sessions : int;
  exchanges : int;
  aborted : int;  (* aborted sessions plus aborted exchanges *)
  lags : float list;  (* commit lag in rounds, per transaction name *)
  depth_max : int;
  spread_mean : float;
  problems : string list;
  fingerprint : string;
}

let serve ~size ~seed =
  let before = Stats.live_heap_mb () in
  let ops, cluster, generate_s = setup ~size ~seed in
  let p =
    {
      first_seen = Hashtbl.create 1024;
      stable_at = Hashtbl.create 1024;
      processed = Array.make bases 0;
      lags = [];
      depth_max = 0;
      spreads = [];
    }
  in
  let lens = ref [||] and session_us = ref [] in
  let round_s =
    List.mapi
      (fun round ops ->
        let wall =
          List.fold_left
            (fun wall op ->
              let (), t =
                Stats.cpu_timed (fun () ->
                    Obs.Span.with_ ~name:(op_span op) (fun () -> Cluster.run_op cluster op))
              in
              (match op with
              | Cluster.Mobile_session _ -> session_us := (t *. 1e6) :: !session_us
              | _ -> ());
              wall +. t)
            0.0 ops
        in
        lens := probe_round p cluster (round + 1);
        wall)
      ops
  in
  let st = Cluster.stats cluster in
  let sessions = st.Cluster.sessions and exchanges = st.Cluster.exchanges in
  let aborted = st.Cluster.session_aborts + st.Cluster.exchange_aborts in
  let decided = Array.fold_left min max_int !lens in
  let live_mb = Stats.live_heap_mb () -. before in
  let problems = Cluster.check cluster in
  let stable = Mbase.stable (Cluster.bases cluster).(0) in
  let fingerprint =
    Printf.sprintf
      "stable=%d committed=%d rejected=%d decided=%d sessions=%d exchanges=%d stable_seq=%s"
      (List.length stable) st.Cluster.committed st.Cluster.rejected decided sessions exchanges
      (Stats.digest
         (List.map (fun ((g : Gtxn.t), ok) -> Printf.sprintf "%s:%b" (Gtxn.name g) ok) stable))
  in
  {
    generate_s;
    round_s;
    session_us = List.rev !session_us;
    live_mb;
    decided;
    sessions;
    exchanges;
    aborted;
    lags = p.lags;
    depth_max = p.depth_max;
    spread_mean = Stats.mean p.spreads;
    problems;
    fingerprint;
  }

let print_fingerprint ~name ~i ~seed s =
  Printf.printf "fingerprint %s cluster=%d seed=%d %s\n%!" name i seed s.fingerprint

(* Clusters per measured run. Throughput varies from schedule to
   schedule, so a run averages several. *)
let clusters = function Stats.Full -> 6 | Stats.Tiny -> 2

(* Set-ups are timed in batches: one takes about 0.2 ms, too short to
   time alone. *)
let setup_batch = 100

(* What one serve keeps, in processor time. Only summaries are kept, so
   the next serve's live heap does not include this one's cluster. *)
type pass = {
  served : served;
  setup_s : float;  (* per set-up, from the batch timed before the serve *)
  cpu : float;  (* the rounds: the sum of their ops, scaled *)
  raw : float;  (* the same, unscaled *)
  p50_us : float;  (* per-session time, over this serve's sessions *)
  p99_us : float;
}

(* What a measured run keeps of one cluster: the median of its serves. *)
type cluster_result = {
  first : served;
  setups : float list;
  c_cpu : float;
  c_raw : float;
  c_p50 : float;
  c_p99 : float;
  c_rounds_ms : float list;  (* every round of every serve *)
  problems : string list;
}

(* One cluster: a batch of set-ups and a whole serve from a fresh
   cluster, repeated until [seconds] after the cluster began, at least
   once. Every serve must reach the same stable sequence. *)
let measure_cluster m ~name ~size ~seconds i seed =
  let passes =
    Stats.until ~seconds ~min:1 (fun _ ->
        let (), setup =
          Stats.measure m (fun () ->
              for _ = 1 to setup_batch do
                ignore (Sys.opaque_identity (setup ~size ~seed))
              done)
        in
        let s, sample = Stats.measure m (fun () -> serve ~size ~seed) in
        let k = sample.Stats.scale in
        {
          served = s;
          setup_s = Stats.scaled setup /. float_of_int setup_batch;
          cpu = k *. Stats.sum s.round_s;
          raw = Stats.sum s.round_s;
          p50_us = k *. Stats.quantile s.session_us 0.5;
          p99_us = k *. Stats.quantile s.session_us 0.99;
        })
  in
  let s = (List.hd passes).served in
  let agree = List.for_all (fun p -> p.served.fingerprint = s.fingerprint) passes in
  print_fingerprint ~name ~i ~seed s;
  let all f = List.map f passes in
  let med f = Stats.median (all f) in
  Printf.eprintf "%s cluster=%d setup_s=%s cpu_s=%s raw_s=%s p50_us=%s p99_us=%s\n%!" name i
    (Stats.show (all (fun p -> p.setup_s)))
    (Stats.show (all (fun p -> p.cpu)))
    (Stats.show (all (fun p -> p.raw)))
    (Stats.show (all (fun p -> p.p50_us)))
    (Stats.show (all (fun p -> p.p99_us)));
  {
    first = s;
    setups = all (fun p -> p.setup_s);
    c_cpu = med (fun p -> p.cpu);
    c_raw = med (fun p -> p.raw);
    c_p50 = med (fun p -> p.p50_us);
    c_p99 = med (fun p -> p.p99_us);
    c_rounds_ms = List.concat_map (fun p -> List.map (fun w -> w *. 1000.0) p.served.round_s) passes;
    problems =
      (if agree then [] else [ Printf.sprintf "cluster %d: repeated serves disagree" i ])
      @ List.concat_map (fun p -> p.served.problems) passes;
  }

(* Measured run, Obs off: the seed's clusters one after another, each for
   an equal share of [seconds]. Throughput is the clusters' decided
   transactions over the sum of their median round processor times; the
   latencies average the clusters' medians; set-up time is the median
   set-up of the run. *)
let measure ~name ~size ~seed ~seconds =
  let n = clusters size in
  let m = Stats.meter () in
  let runs =
    List.init n (fun i ->
        measure_cluster m ~name ~size ~seconds:(seconds /. float_of_int n) i (Stats.input_seed seed i))
  in
  let firsts = List.map (fun r -> r.first) runs in
  let total f = List.fold_left (fun n s -> n + f s) 0 firsts in
  let each f = List.map f runs in
  let rounds_ms = List.concat (each (fun r -> r.c_rounds_ms)) in
  let lags = List.concat_map (fun s -> s.lags) firsts in
  let attempted = total (fun s -> s.sessions + s.exchanges) in
  let failed = total (fun s -> s.aborted) in
  let setup_s = Stats.median (List.concat (each (fun r -> r.setups))) in
  let heap = Stats.median (List.map (fun s -> s.live_mb) firsts) in
  let decided = float_of_int (total (fun s -> s.decided)) in
  let throughput = Stats.ratio decided (Stats.sum (each (fun r -> r.c_cpu))) in
  let raw_throughput = Stats.ratio decided (Stats.sum (each (fun r -> r.c_raw))) in
  let p50 = Stats.mean (each (fun r -> r.c_p50)) and p99 = Stats.mean (each (fun r -> r.c_p99)) in
  Printf.printf
    "summary %s: clusters=%d commits_per_cpu_s=%.1f (unscaled %.1f) round_p50_ms=%.3f round_p90_ms=%.3f (%d \
     rounds) commit_lag_rounds_p50=%.2f commit_lag_rounds_p99=%.2f (%d transactions) \
     session_p50_us=%.1f session_p99_us=%.1f failed_frac=%.4f heap_live_mb=%.2f setup_s=%.6f\n%!"
    name n throughput raw_throughput (Stats.quantile rounds_ms 0.5) (Stats.quantile rounds_ms 0.9)
    (List.length rounds_ms) (Stats.quantile lags 0.5) (Stats.quantile lags 0.99) (List.length lags) p50
    p99 (Stats.ratio_i failed attempted) heap setup_s;
  {
    Stats.values =
      [
        ("setup_s", setup_s);
        ("throughput_per_cpu_s", throughput);
        ("session_p50_us", p50);
        ("heap_live_mb", heap);
      ];
    attempted;
    failed;
    problems = List.concat (each (fun r -> r.problems));
  }

(* Traced run: cluster 0 of the seed served alternately with Obs off
   and on for about [seconds] (at least two pairs). Per-layer figures
   come from the first traced serve; the session p99 from the untraced
   serve before it. *)
let trace ~size ~seed ~seconds =
  let seed0 = Stats.input_seed seed 0 in
  let first = ref None in
  let pairs =
    Stats.until ~seconds ~min:2 (fun _ ->
        let s0 = serve ~size ~seed:seed0 in
        Obs.reset ();
        let s1 = Obs.with_enabled true (fun () -> serve ~size ~seed:seed0) in
        if !first = None then first := Some (s0, s1, Obs.snapshot ());
        let problems =
          if s0.fingerprint = s1.fingerprint then []
          else [ "telemetry changed the cluster outcome" ]
        in
        (Stats.sum s0.round_s, Stats.sum s1.round_s, s0.problems @ s1.problems @ problems ))
  in
  let plain, s, snap = Option.get !first in
  let op_ms kind = Layers.mean_ms snap ("perfbench." ^ kind ^ "_op") in
  let walls = s.round_s in
  let tenth = max 1 (List.length walls / 10) in
  let first_tenth = List.filteri (fun i _ -> i < tenth) walls in
  let last_tenth = List.filteri (fun i _ -> i >= List.length walls - tenth) walls in
  let rounds_ms = List.map (fun w -> w *. 1000.0) walls in
  let cluster =
    [
      ("workload.schedule_generate_s", s.generate_s);
      ("multibase.session_op_ms", op_ms "session");
      ("multibase.session_op_p99_us", Stats.quantile plain.session_us 0.99);
      ("multibase.exchange_op_ms", op_ms "exchange");
      ("multibase.base_txn_op_ms", op_ms "base_txn");
      ("multibase.tick_op_ms", op_ms "tick");
      ("multibase.tentative_depth_max", float_of_int s.depth_max);
      ("multibase.stable_spread", s.spread_mean);
      ("multibase.round_growth", Stats.ratio (Stats.mean last_tenth) (Stats.mean first_tenth));
      ("multibase.round_p50_ms", Stats.quantile rounds_ms 0.5);
      ("multibase.round_p90_ms", Stats.quantile rounds_ms 0.9);
      ("multibase.commit_lag_rounds_p50", Stats.quantile s.lags 0.5);
      ("multibase.commit_lag_rounds_p99", Stats.quantile s.lags 0.99);
      ("obs.trace_overhead_frac", Stats.overhead pairs);
    ]
  in
  print_fingerprint ~name:"traced" ~i:0 ~seed:seed0 s;
  {
    Stats.values = cluster @ Layers.of_snapshot snap;
    attempted = s.sessions + s.exchanges;
    failed = s.aborted;
    problems = List.concat_map (fun (_, _, p) -> p) pairs;
  }
