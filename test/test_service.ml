(* Tests for the concurrent merge service: shard map, admission,
   dispatch, and the two core properties — serial equivalence (the
   sharded/parallel service computes exactly what serial Sync.run does on
   the same trace) and determinism (same seed + same shard count give the
   same deterministic report across runs and domain counts). *)

open Repro_txn
open Repro_service
module Sync = Repro_replication.Sync
module Protocol = Repro_replication.Protocol
module Trace = Repro_replication.Trace
module Banking = Repro_workload.Banking
module Gen = Repro_workload.Gen
module Rng = Repro_workload.Rng

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* -------------------------------------------------------------------- *)
(* Shard map *)

let test_smap_hash_stable () =
  let m = Smap.make ~shards:16 Smap.Hash in
  let m' = Smap.make ~shards:16 Smap.Hash in
  List.iter
    (fun x ->
      let s = Smap.shard_of_item m x in
      checkb "in range" true (s >= 0 && s < 16);
      checki "stable across maps" s (Smap.shard_of_item m' x))
    [ "a"; "d17"; "m42.d3"; "g0"; "" ]

let test_smap_range_blocks () =
  let universe = Array.init 100 (fun i -> Printf.sprintf "x%03d" i) in
  let m = Smap.make ~shards:4 (Smap.Range universe) in
  (* Contiguous rank blocks: shard is monotone in rank, all 4 used. *)
  let shards = Array.map (Smap.shard_of_item m) universe in
  Array.iteri (fun i s -> if i > 0 then checkb "monotone" true (s >= shards.(i - 1))) shards;
  checki "first block" 0 shards.(0);
  checki "last block" 3 shards.(99);
  (* Off-universe items still land in range. *)
  let s = Smap.shard_of_item m "unknown" in
  checkb "fallback in range" true (s >= 0 && s < 4)

(* The range construction [Smap.make] used to run: a heap sort under
   polymorphic compare, then a hash probe per item, so each item keeps the
   rank of its first copy. Off-universe items hash. *)
let reference_range ~shards universe =
  let sorted = Array.copy universe in
  Array.sort compare sorted;
  let index = Hashtbl.create (Array.length sorted * 2) in
  Array.iteri (fun i x -> if not (Hashtbl.mem index x) then Hashtbl.add index x i) sorted;
  let hash = Smap.make ~shards Smap.Hash in
  ( sorted,
    fun x ->
      match Hashtbl.find_opt index x with
      | Some i -> i * shards / max 1 (Array.length sorted)
      | None -> Smap.shard_of_item hash x )

let test_smap_range_matches_reference () =
  let rng = Random.State.make [| 2026 |] in
  (* 600 names and 400 repeats of them, shuffled. *)
  let names = Array.init 600 (fun i -> Printf.sprintf "m%d.d%d" (i mod 41) i) in
  let universe =
    Array.append names (Array.init 400 (fun _ -> names.(Random.State.int rng (Array.length names))))
  in
  for i = Array.length universe - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = universe.(i) in
    universe.(i) <- universe.(j);
    universe.(j) <- x
  done;
  List.iter
    (fun shards ->
      let m = Smap.make ~shards (Smap.Range universe) in
      let sorted, expected = reference_range ~shards universe in
      checkb "sorted universe" true (Smap.scheme m = Smap.Range sorted);
      Array.iter (fun x -> checki x (expected x) (Smap.shard_of_item m x)) universe;
      List.iter
        (fun x -> checki x (expected x) (Smap.shard_of_item m x))
        [ ""; "unknown"; "m0"; "m40.d599x"; "zzz" ])
    [ 1; 4; 16 ]

let test_smap_footprint () =
  let universe = Array.init 8 (fun i -> Printf.sprintf "x%d" i) in
  let m = Smap.make ~shards:4 (Smap.Range universe) in
  let fp = Smap.footprint m (Item.Set.of_names [ "x0"; "x1"; "x7" ]) in
  Alcotest.(check (list int)) "distinct ascending" [ 0; 3 ] fp

(* -------------------------------------------------------------------- *)
(* Admission + dispatch on a hand-built scenario *)

let prog name items =
  Program.make ~name
    (List.map (fun x -> Repro_txn.Stmt.Update (x, Repro_txn.Expr.Add (Repro_txn.Expr.Item x, Repro_txn.Expr.Const 1))) items)

let wevent_session mobile at items =
  let p = prog (Printf.sprintf "M%dT1" mobile) items in
  Admission.Session
    {
      Admission.mobile;
      at;
      window_started = 0;
      programs = [ p ];
      reads = Program.readset p;
      writes = Program.writeset p;
    }

let test_dispatch_disjoint_parallel () =
  let universe = Array.init 4 (fun i -> Printf.sprintf "x%d" i) in
  let smap = Smap.make ~shards:4 (Smap.Range universe) in
  let events =
    [| wevent_session 0 1.0 [ "x0" ]; wevent_session 1 2.0 [ "x1" ]; wevent_session 2 3.0 [ "x2" ] |]
  in
  let comps, stats = Dispatch.components ~smap events in
  checki "three components" 3 (List.length comps);
  checki "no conflicts" 0 stats.Dispatch.item_conflicted_sessions

let test_dispatch_overlap_grouped () =
  let universe = Array.init 4 (fun i -> Printf.sprintf "x%d" i) in
  let smap = Smap.make ~shards:4 (Smap.Range universe) in
  let events =
    [|
      wevent_session 0 1.0 [ "x0"; "x1" ];
      wevent_session 1 2.0 [ "x1"; "x2" ];
      wevent_session 2 3.0 [ "x3" ];
    |]
  in
  let comps, stats = Dispatch.components ~smap events in
  checki "two components" 2 (List.length comps);
  (match comps with
  | [ a; b ] ->
      Alcotest.(check (list int)) "chained sessions" [ 0; 1 ] a.Dispatch.members;
      Alcotest.(check (list int)) "independent session" [ 2 ] b.Dispatch.members
  | _ -> Alcotest.fail "expected two components");
  checki "conflicted sessions" 2 stats.Dispatch.item_conflicted_sessions

(* Read-read sharing of an item nobody writes must not chain sessions. *)
let test_dispatch_read_only_sharing () =
  let universe = Array.init 4 (fun i -> Printf.sprintf "x%d" i) in
  let smap = Smap.make ~shards:4 (Smap.Range universe) in
  let read_write name w r =
    Program.make ~name
      [ Repro_txn.Stmt.Read r; Repro_txn.Stmt.Update (w, Repro_txn.Expr.Add (Repro_txn.Expr.Item w, Repro_txn.Expr.Const 1)) ]
  in
  let session mobile at w r =
    let p = read_write (Printf.sprintf "M%dT1" mobile) w r in
    Admission.Session
      {
        Admission.mobile;
        at;
        window_started = 0;
        programs = [ p ];
        reads = Program.readset p;
        writes = Program.writeset p;
      }
  in
  (* Both read x3 (never written); write disjoint items. *)
  let events = [| session 0 1.0 "x0" "x3"; session 1 2.0 "x1" "x3" |] in
  let comps, stats = Dispatch.components ~smap events in
  checki "read-read does not chain" 2 (List.length comps);
  checki "no item conflicts" 0 stats.Dispatch.item_conflicted_sessions;
  (* At shard granularity they do collide on x3's shard. *)
  checki "shard-level false sharing" 2 stats.Dispatch.shard_conflicted_sessions

(* Random windows of 0-30 events over 12 items and 1-6 hash shards. An
   event reads up to two items and writes up to two (some write nothing,
   so some items are only read); about half are sessions. *)
let dispatch_case_gen =
  QCheck.Gen.(
    let* shards = int_range 1 6 in
    let* n = int_bound 30 in
    let item = map (Printf.sprintf "x%d") (int_bound 11) in
    let event k =
      let* reads = list_size (int_bound 2) item in
      let* writes = list_size (int_bound 2) item in
      let* session = bool in
      let p =
        Program.make ~name:(Printf.sprintf "E%d" k)
          (List.map (fun x -> Repro_txn.Stmt.Read x) reads
          @ List.map
              (fun x ->
                Repro_txn.Stmt.Update (x, Repro_txn.Expr.Add (Repro_txn.Expr.Item x, Repro_txn.Expr.Const 1)))
              (List.sort_uniq compare writes))
      in
      return
        (if session then
           Admission.Session
             {
               Admission.mobile = k;
               at = float_of_int k;
               window_started = 0;
               programs = [ p ];
               reads = Program.readset p;
               writes = Program.writeset p;
             }
         else Admission.Base { at = float_of_int k; program = p })
    in
    let* events = flatten_l (List.init n event) in
    return (shards, Array.of_list events))

let pp_dispatch_case (shards, events) =
  Format.asprintf "@[<v>shards=%d@ %a@]" shards
    (Format.pp_print_list (fun ppf ev ->
         Format.fprintf ppf "%s footprint=%a writes=%a"
           (match ev with Admission.Session _ -> "session" | Admission.Base _ -> "base")
           Item.Set.pp (Admission.footprint ev) Item.Set.pp (Admission.write_set ev)))
    (Array.to_list events)

(* The events [linked] reaches from [root] by BFS, ascending. *)
let bfs n linked root =
  let seen = Array.make n false in
  seen.(root) <- true;
  let rec go acc = function
    | [] -> List.sort compare acc
    | i :: rest ->
        let next = List.filter (fun j -> (not seen.(j)) && linked i j) (List.init n Fun.id) in
        List.iter (fun j -> seen.(j) <- true) next;
        go (next @ acc) (next @ rest)
  in
  go [ root ] [ root ]

(* The connected parts of [linked] over [0, n): by smallest member,
   members ascending. *)
let bfs_partition n linked =
  let placed = Array.make n false in
  List.filter_map
    (fun r ->
      if placed.(r) then None
      else begin
        let part = bfs n linked r in
        List.iter (fun i -> placed.(i) <- true) part;
        Some part
      end)
    (List.init n Fun.id)

(* Dispatch against BFS over shared keys: the members partition the
   events; no statically written item lies in two components' footprints;
   each component is connected through shared written items; and the
   conflict counts equal those of the BFS partitions, items for the
   dispatched level and shards for the measured one. *)
let prop_dispatch_matches_bfs =
  QCheck.Test.make ~count:500 ~name:"components and stats = BFS partitions"
    (QCheck.make ~print:pp_dispatch_case dispatch_case_gen)
    (fun (shards, events) ->
      let smap = Smap.make ~shards Smap.Hash in
      let comps, stats = Dispatch.components ~smap events in
      let n = Array.length events in
      let footprints = Array.map Admission.footprint events in
      let shard_footprints = Array.map (Smap.footprint smap) footprints in
      let written =
        Array.fold_left
          (fun acc ev -> Item.Set.union acc (Admission.write_set ev))
          Item.Set.empty events
      in
      let shares_written a b = not (Item.Set.disjoint written (Item.Set.inter a b)) in
      let item_linked i j = shares_written footprints.(i) footprints.(j) in
      let shard_linked i j =
        List.exists (fun s -> List.mem s shard_footprints.(j)) shard_footprints.(i)
      in
      let members = List.map (fun c -> c.Dispatch.members) comps in
      let is_session i = match events.(i) with Admission.Session _ -> true | Admission.Base _ -> false in
      let sessions part = List.length (List.filter is_session part) in
      let conflicted parts =
        List.fold_left (fun acc p -> if sessions p >= 2 then acc + sessions p else acc) 0 parts
      in
      let item_parts = bfs_partition n item_linked in
      let per_shard in_part =
        Array.init shards (fun s ->
            List.length
              (List.filter
                 (fun i -> is_session i && List.mem s shard_footprints.(i) && in_part i)
                 (List.init n Fun.id)))
      in
      let in_conflicted i = List.exists (fun p -> List.mem i p && sessions p >= 2) item_parts in
      List.sort compare (List.concat members) = List.init n Fun.id
      && List.for_all (fun m -> List.sort_uniq compare m = m) members
      && List.sort compare (List.map List.hd members) = List.map List.hd members
      && List.for_all
           (fun c ->
             Item.Set.equal c.Dispatch.footprint
               (List.fold_left
                  (fun acc i -> Item.Set.union acc footprints.(i))
                  Item.Set.empty c.Dispatch.members)
             && c.Dispatch.sessions = sessions c.Dispatch.members
             && List.for_all
                  (fun c' -> c == c' || not (shares_written c.Dispatch.footprint c'.Dispatch.footprint))
                  comps)
           comps
      && List.for_all
           (fun m -> bfs n (fun i j -> List.mem j m && item_linked i j) (List.hd m) = m)
           members
      && stats.Dispatch.components = List.length comps
      && stats.Dispatch.item_conflicted_sessions = conflicted item_parts
      && stats.Dispatch.shard_conflicted_sessions = conflicted (bfs_partition n shard_linked)
      && stats.Dispatch.shard_sessions = per_shard (fun _ -> true)
      && stats.Dispatch.shard_conflicted = per_shard in_conflicted)

(* -------------------------------------------------------------------- *)
(* Serial equivalence + determinism properties *)

let bank = Banking.make ~n_accounts:8

let banking_workload =
  {
    Sync.initial = Banking.initial_state bank;
    Sync.make_mobile_txn =
      (fun rng ~name -> Banking.random_transaction bank rng ~name ~commuting_bias:0.6);
    Sync.make_base_txn =
      (fun rng ~name -> Banking.random_transaction bank rng ~name ~commuting_bias:0.6);
  }

let profile_workload seed =
  let pool = Gen.pool { Gen.default_profile with Gen.n_items = 24; Gen.zipf_skew = 0.9 } in
  {
    Sync.initial = Gen.initial_state pool (Rng.create (seed + 1));
    Sync.make_mobile_txn = (fun rng ~name -> Gen.transaction pool rng ~name);
    Sync.make_base_txn = (fun rng ~name -> Gen.transaction pool rng ~name);
  }

(* A handful of mobiles over a small shared item pool: every window is
   one or a few dense components. *)
let small_case seed =
  let wl = if seed mod 2 = 0 then banking_workload else profile_workload seed in
  let sync =
    {
      Sync.default_config with
      Sync.n_mobiles = 2 + (seed mod 5);
      Sync.duration = 60.0 +. float_of_int (seed mod 40);
      Sync.window = 12.0 +. float_of_int (seed mod 10);
      Sync.mean_connect_gap = 8.0;
      Sync.connect_alpha = (if seed mod 3 = 0 then Some 1.7 else None);
      Sync.mean_mobile_txn_gap = 2.0;
      (* One seed in five reprocesses every session instead of merging. *)
      Sync.protocol =
        (if (seed / 11) mod 5 = 0 then Sync.Reprocessing else Sync.default_config.Sync.protocol);
      Sync.isolation = Sync.Strategy2;
      Sync.seed;
    }
  in
  let svc =
    {
      Service.default_config with
      Service.shards = 1 + (seed mod 8);
      Service.scheme = (if seed mod 4 = 0 then Smap.Range (Array.of_list (List.init 24 (Printf.sprintf "d%d"))) else Smap.Hash);
      Service.seed;
    }
  in
  (wl, sync, svc)

(* Sim-shaped: a fleet of mobiles each working in its own 8-item home
   region at locality 0.99, so that a component's footprint is a small
   slice of the state. In one seed of two, acceptance compares each late
   re-execution with its original record, which only the session's own
   origin window reproduces. *)
let sim_case seed =
  let cfg =
    {
      Sim.default_config with
      Sim.mobiles = 50 + (seed mod 201);
      Sim.items_per_mobile = 8;
      Sim.locality = 0.99;
      Sim.shards = 1 + (seed mod 8);
      Sim.seed;
    }
  in
  let sync = Sim.sync_config cfg in
  let sync =
    if (seed / 3) mod 2 = 0 then
      {
        sync with
        Sync.protocol =
          Sync.Merging
            {
              Protocol.default_merge_config with
              Protocol.acceptance = Protocol.accept_within ~tolerance:0;
            };
      }
    else sync
  in
  (Sim.workload cfg, sync, Sim.service_config cfg)

(* One seed in three is Sim-shaped. *)
let case_of_seed seed = if seed mod 3 = 2 then sim_case seed else small_case seed

let prop_service_equals_serial =
  QCheck.Test.make ~count:60 ~name:"service (sharded, parallel) == serial Sync.run"
    (QCheck.make (QCheck.Gen.int_bound 1_000_000))
    (fun seed ->
      let wl, sync, svc = case_of_seed seed in
      let trace = Trace.generate (Sync.trace_params sync) wl in
      let serial = Sync.run_trace sync wl trace in
      let r1 = Service.run { svc with Service.domains = 1 } sync wl trace in
      let r3 = Service.run { svc with Service.domains = 3 } sync wl trace in
      Service.agrees_with_sync r1.Service.det serial
      && Service.det_equal r1.Service.det r3.Service.det)

let prop_service_deterministic =
  QCheck.Test.make ~count:20 ~name:"service report deterministic across runs"
    (QCheck.make (QCheck.Gen.int_bound 1_000_000))
    (fun seed ->
      let wl, sync, svc = case_of_seed seed in
      let trace = Trace.generate (Sync.trace_params sync) wl in
      let a = Service.run svc sync wl trace in
      let b = Service.run svc sync wl trace in
      Service.det_equal a.Service.det b.Service.det)

(* Telemetry parity: the merged Obs registry of a multi-domain run — the
   deterministic metrics AND the logical-clock Chrome trace — is
   bit-identical to the single-domain run's. This is the tentpole
   property of the sharded registry design. *)
let prop_service_obs_parity =
  let module Obs = Repro_obs.Obs in
  let module Report = Repro_obs.Report in
  let module Chrome = Repro_obs.Chrome in
  QCheck.Test.make ~count:15 ~name:"merged telemetry identical across domain counts"
    (QCheck.make (QCheck.Gen.int_bound 1_000_000))
    (fun seed ->
      let wl, sync, svc = case_of_seed seed in
      let trace = Trace.generate (Sync.trace_params sync) wl in
      let telemetry domains =
        Obs.with_enabled true (fun () ->
            Obs.Event.with_capturing true (fun () ->
                let (), sh =
                  Obs.Shard.collect (fun () ->
                      Obs.Event.clear ();
                      ignore (Service.run { svc with Service.domains } sync wl trace))
                in
                ( Report.strip_timings (Obs.Shard.snapshot sh),
                  Chrome.to_json ~clock:`Logical (Obs.Shard.events sh) )))
      in
      let m1, t1 = telemetry 1 in
      let m3, t3 = telemetry 3 in
      Report.to_json m1 = Report.to_json m3 && String.equal t1 t3)

(* The serial simulator itself must be unchanged by the trace refactor:
   run = run_trace over the generated trace. *)
let test_sync_run_is_trace_run () =
  let sync = { Sync.default_config with Sync.n_mobiles = 5; Sync.seed = 123 } in
  let a = Sync.run sync banking_workload in
  let trace = Trace.generate (Sync.trace_params sync) banking_workload in
  let b = Sync.run_trace sync banking_workload trace in
  checkb "identical stats" true
    (a.Sync.merges = b.Sync.merges && a.Sync.saved = b.Sync.saved
    && a.Sync.base_txns = b.Sync.base_txns
    && a.Sync.tentative_txns = b.Sync.tentative_txns
    && State.equal a.Sync.final_base b.Sync.final_base)

(* -------------------------------------------------------------------- *)
(* Strategy-1 and custom runners are rejected *)

let test_requires_strategy2 () =
  let sync = { Sync.default_config with Sync.isolation = Sync.Strategy1 } in
  let trace = Trace.generate (Sync.trace_params sync) banking_workload in
  Alcotest.check_raises "strategy 1 rejected"
    (Invalid_argument
       "Service.run: only Strategy 2 isolation is supported (per-mobile Strategy-1 snapshots \
        have no common origin to dispatch a window against)") (fun () ->
      ignore (Service.run Service.default_config sync banking_workload trace))

(* -------------------------------------------------------------------- *)
(* Small-fleet service-sim smoke: zero violations, some parallelism *)

let test_sim_smoke () =
  let cfg =
    {
      Sim.default_config with
      Sim.mobiles = 200;
      Sim.duration = 12.0;
      Sim.window = 3.0;
      Sim.shards = 8;
      Sim.domains = 2;
      Sim.seed = 7;
    }
  in
  let r = Sim.run cfg in
  let d = r.Sim.report.Service.det in
  checki "zero violations" 0 d.Service.violations;
  (* The exact figures of this fixed config: the equivalence properties
     compare service with serial only, so they cannot see both move. *)
  checki "sessions" 190 d.Service.sessions;
  checki "merges" 98 d.Service.merges;
  checki "saved" 96 d.Service.saved;
  checki "reexecuted" 116 d.Service.reexecuted;
  checki "rejected" 0 d.Service.rejected;
  checki "late sessions" 92 d.Service.late_sessions;
  checki "components" 187 d.Service.components;
  checki "parallel windows" 4 d.Service.parallel_windows;
  checkb "baseline matches" true r.Sim.baseline_matches;
  checkb "speedup sane" true (r.Sim.report.Service.speedup >= 1.0)

(* A hot window: at locality 0.6 over 64 shared items every window is one
   conflict component, so each merge's graph spans the window's history.
   [cost_total] carries every merge's node and edge counts through the
   §7.1 tally, and the [precedence.nodes]/[precedence.edges]
   distributions record each graph's size: a wrong edge count anywhere in
   the service path moves one of them. *)
let test_sim_hot_window () =
  let module Obs = Repro_obs.Obs in
  let module Report = Repro_obs.Report in
  let cfg =
    {
      Sim.default_config with
      Sim.mobiles = 300;
      Sim.window = 5.0;
      Sim.locality = 0.6;
      Sim.shared_items = 64;
      Sim.domains = 1;
      Sim.seed = 7;
    }
  in
  let r, shard = Obs.with_enabled true (fun () -> Obs.Shard.collect (fun () -> Sim.run cfg)) in
  let d = r.Sim.report.Service.det in
  let dists = (Obs.Shard.snapshot shard).Report.dists in
  let dist name = List.find (fun (x : Report.dist) -> x.Report.d_name = name) dists in
  let nodes = dist "precedence.nodes" and edges = dist "precedence.edges" in
  checki "zero violations" 0 d.Service.violations;
  checki "sessions" 350 d.Service.sessions;
  checki "merges" 239 d.Service.merges;
  checki "saved" 166 d.Service.saved;
  checki "reexecuted" 228 d.Service.reexecuted;
  checki "rejected" 0 d.Service.rejected;
  checki "late sessions" 111 d.Service.late_sessions;
  checki "late txns" 135 d.Service.late_txns;
  checki "base txns" 8 d.Service.base_txns;
  checki "tentative txns" 455 d.Service.tentative_txns;
  checki "windows" 4 d.Service.windows;
  checki "components" 152 d.Service.components;
  checki "parallel windows" 3 d.Service.parallel_windows;
  checki "shard-conflicted sessions" 350 d.Service.shard_conflicted_sessions;
  checki "item-conflicted sessions" 217 d.Service.item_conflicted_sessions;
  Alcotest.(check (float 0.0)) "cost total" 0x1.f5d2666666667p+13 d.Service.cost_total;
  checki "graphs" 239 nodes.Report.count;
  Alcotest.(check (float 0.0)) "nodes summed" 5092.0 nodes.Report.total;
  checki "edge samples" 239 edges.Report.count;
  Alcotest.(check (float 0.0)) "edges summed" 16011.0 edges.Report.total

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "repro_service"
    [
      ( "smap",
        [
          Alcotest.test_case "hash stable" `Quick test_smap_hash_stable;
          Alcotest.test_case "range blocks" `Quick test_smap_range_blocks;
          Alcotest.test_case "range ranks = heap-sort reference" `Quick
            test_smap_range_matches_reference;
          Alcotest.test_case "footprint" `Quick test_smap_footprint;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "disjoint parallel" `Quick test_dispatch_disjoint_parallel;
          Alcotest.test_case "overlap grouped" `Quick test_dispatch_overlap_grouped;
          Alcotest.test_case "read-only sharing" `Quick test_dispatch_read_only_sharing;
        ]
        @ qsuite [ prop_dispatch_matches_bfs ] );
      ( "equivalence",
        [
          Alcotest.test_case "run = run_trace" `Quick test_sync_run_is_trace_run;
          Alcotest.test_case "strategy-2 only" `Quick test_requires_strategy2;
        ]
        @ qsuite
            [ prop_service_equals_serial; prop_service_deterministic; prop_service_obs_parity ] );
      ( "sim",
        [
          Alcotest.test_case "smoke" `Quick test_sim_smoke;
          Alcotest.test_case "hot window" `Quick test_sim_hot_window;
        ] );
    ]
