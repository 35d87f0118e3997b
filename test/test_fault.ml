(* Tests for the fault-injection subsystem: transport determinism and
   fault primitives, resumable merge sessions (idempotent duplicate
   delivery, retry under loss, crash-resume, torn commit groups, in-doubt
   resolution), and the nemesis exactly-once property over arbitrary
   fault schedules. *)

open Repro_txn
open Repro_history
module Engine = Repro_db.Engine
module Block = Repro_db.Block
module Rng = Repro_workload.Rng
module Banking = Repro_workload.Banking
module P = Repro_replication.Protocol
module Cost = Repro_replication.Cost
module Sync = Repro_replication.Sync
module Net = Repro_fault.Net
module Session = Repro_fault.Session
module Nemesis = Repro_fault.Nemesis
module Sweep = Repro_fault.Sweep
module G = Test_support.Generators

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let check_state = Alcotest.check G.state

(* ------------------------------------------------------------------ *)
(* Transport                                                          *)
(* ------------------------------------------------------------------ *)

let drain net ~dst =
  let rec go acc now =
    match Net.next_arrival net ~dst with
    | None -> List.rev acc
    | Some t -> (
      match Net.recv net ~now:(max now t) ~dst with
      | Some m -> go (m :: acc) (max now t)
      | None -> List.rev acc)
  in
  go [] 0.0

let test_net_deterministic () =
  let run () =
    let net = Net.create ~seed:42 { Net.ideal with Net.drop_rate = 0.3; dup_rate = 0.2 } in
    for i = 0 to 19 do
      Net.send net ~now:(float_of_int i *. 0.01) ~dst:Net.Base i
    done;
    let delivered = drain net ~dst:Net.Base in
    (delivered, Net.stats net)
  in
  let d1, s1 = run () in
  let d2, s2 = run () in
  checkb "same deliveries" true (d1 = d2);
  checkb "same stats" true (s1 = s2);
  checki "conservation" s1.Net.sent (s1.Net.dropped + s1.Net.delivered - s1.Net.duplicated)

let test_net_drop_all () =
  let net = Net.create ~seed:1 (Net.lossy ~drop_rate:1.0) in
  for i = 0 to 9 do
    Net.send net ~now:0.0 ~dst:Net.Base i
  done;
  checkb "nothing in flight" true (Net.next_arrival net ~dst:Net.Base = None);
  checki "all dropped" 10 (Net.stats net).Net.dropped

let test_net_duplicates_all () =
  let net = Net.create ~seed:1 { Net.ideal with Net.dup_rate = 1.0 } in
  for i = 0 to 4 do
    Net.send net ~now:0.0 ~dst:Net.Mobile i
  done;
  checki "every send doubled" 10 (List.length (drain net ~dst:Net.Mobile))

let test_net_partition () =
  let net =
    Net.create ~seed:1 { Net.ideal with Net.partitions = [ (1.0, 2.0) ] }
  in
  Net.send net ~now:0.5 ~dst:Net.Base 0;
  Net.send net ~now:1.5 ~dst:Net.Base 1;
  Net.send net ~now:2.5 ~dst:Net.Base 2;
  checkb "partitioned inside the window" true (Net.partitioned net 1.5);
  checkb "link up outside" false (Net.partitioned net 2.5);
  checkb "middle send lost" true (drain net ~dst:Net.Base = [ 0; 2 ])

let test_net_reordering_from_latency () =
  (* with a wide latency spread, back-to-back sends can overtake *)
  let net =
    Net.create ~seed:3 { Net.ideal with Net.min_latency = 0.01; max_latency = 5.0 }
  in
  for i = 0 to 19 do
    Net.send net ~now:0.0 ~dst:Net.Base i
  done;
  let got = drain net ~dst:Net.Base in
  checki "all delivered" 20 (List.length got);
  checkb "some pair overtook" true (got <> List.sort compare got)

(* ------------------------------------------------------------------ *)
(* Sessions                                                           *)
(* ------------------------------------------------------------------ *)

(* A fixed banking workload shared by the session tests: the reference
   engine merges atomically, the session engine goes over the wire. *)
let fixture seed =
  let rng = Rng.create seed in
  let bank = Banking.make ~n_accounts:8 in
  let s0 = Banking.initial_state bank in
  let base_h = Banking.random_history bank rng ~prefix:"B" ~length:5 ~commuting_bias:0.5 in
  let tentative = Banking.random_history bank rng ~prefix:"M" ~length:7 ~commuting_bias:0.5 in
  let mk () =
    let e = Engine.create s0 in
    let records = Engine.execute_batch e (History.entries base_h) in
    let history =
      List.map2 (fun p record -> { P.program = p; record }) (History.programs base_h) records
    in
    (e, P.index_history history)
  in
  (s0, tentative, mk)

let run_session ?(session = Session.default_config) ~schedule ~net_seed (s0, tentative, mk) =
  let engine, base_history = mk () in
  let net = Net.create ~seed:net_seed schedule in
  let res =
    Session.run_merge ~net ~session ~config:P.default_merge_config ~params:Cost.default_params
      ~base:engine ~base_history ~origin:s0 ~tentative ()
  in
  (res, engine)

let reference (s0, tentative, mk) =
  let engine, base_history = mk () in
  let report =
    P.merge ~config:P.default_merge_config ~params:Cost.default_params ~base:engine
      ~base_history ~origin:s0 ~tentative
  in
  (report, engine)

let markers engine = List.length (Engine.session_journal engine)

let expect_completed (res : Session.result) =
  match res.Session.outcome with
  | Session.Completed report -> report
  | Session.Aborted reason -> Alcotest.failf "session aborted: %s" reason

(* The oracle of the shared commit ([Protocol.commit]): over an ideal
   wire a session must return the atomic merge's whole report, reach its
   final state and leave one marker. Every cost agrees except I/O, which
   is one force for the session's commit group against one per forced
   transaction for the merge. Returns the first disagreement. *)
let ideal_wire_disagreement seed =
  let ((s0, tentative, mk) as fx) = fixture seed in
  let forces engine = Repro_db.Wal.force_count (Engine.log engine) in
  let ref_engine, base_history = mk () in
  let set_up_forces = forces ref_engine in
  let want =
    P.merge ~config:P.default_merge_config ~params:Cost.default_params ~base:ref_engine
      ~base_history ~origin:s0 ~tentative
  in
  let merge_forces = forces ref_engine - set_up_forces in
  let res, engine = run_session ~schedule:Net.ideal ~net_seed:1 fx in
  match res.Session.outcome with
  | Session.Aborted reason -> Some ("session aborted: " ^ reason)
  | Session.Completed got ->
    (* Both merges ran against equal histories, so either expands both. *)
    let names (r : P.merge_report) =
      List.map
        (fun (bt : P.base_txn) -> bt.P.program.Program.name)
        (P.merged_history base_history r.P.splice)
    in
    let io = Cost.default_params.Cost.io_per_force in
    let cost f = f got.P.cost = f want.P.cost in
    List.find_map
      (fun (what, agrees) -> if agrees then None else Some what)
      [
        ("bad", Names.Set.equal got.P.bad want.P.bad);
        ("affected", Names.Set.equal got.P.affected want.P.affected);
        ("saved", Names.Set.equal got.P.saved want.P.saved);
        ("backed_out", Names.Set.equal got.P.backed_out want.P.backed_out);
        ("txns (order and outcome)", got.P.txns = want.P.txns);
        ("splice", got.P.splice.P.first = want.P.splice.P.first);
        ("merged history names", names got = names want);
        ("pruned_by_compensation", got.P.pruned_by_compensation = want.P.pruned_by_compensation);
        ("communication", cost (fun c -> c.Cost.communication));
        ("base_cpu", cost (fun c -> c.Cost.base_cpu));
        ("mobile_cpu", cost (fun c -> c.Cost.mobile_cpu));
        ("session base_io is one force", got.P.cost.Cost.base_io = io);
        ("session forces once", forces engine - set_up_forces = 1);
        ( "merge base_io is one per force",
          want.P.cost.Cost.base_io = io *. float_of_int merge_forces );
        ("no retries", res.Session.retries = 0);
        ("not resumed", not res.Session.resumed);
        ("final state", State.equal (Engine.state engine) (Engine.state ref_engine));
        ("exactly one applied marker", markers engine = 1);
      ]

let test_session_ideal_matches_merge () =
  match ideal_wire_disagreement 11 with
  | None -> ()
  | Some what -> Alcotest.failf "seed 11: session and atomic merge differ in %s" what

let prop_ideal_wire_matches_merge =
  QCheck.Test.make ~count:100 ~name:"session: ideal wire = atomic merge (whole report)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      match ideal_wire_disagreement seed with
      | None -> true
      | Some what -> QCheck.Test.fail_reportf "seed %d: differs in %s" seed what)

(* Each labelled session config is refused before the session starts,
   with the base untouched. *)
let check_session_configs_rejected configs =
  let s0, tentative, mk = fixture 17 in
  List.iter
    (fun (what, session) ->
      let engine, base_history = mk () in
      let pre = Engine.state engine in
      let net = Net.create ~seed:1 Net.ideal in
      (match
         Session.run_merge ~net ~session ~config:P.default_merge_config
           ~params:Cost.default_params ~base:engine ~base_history ~origin:s0 ~tentative ()
       with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s accepted" what);
      check_state (what ^ ": base untouched") pre (Engine.state engine))
    configs

let test_session_jitter_out_of_range () =
  check_session_configs_rejected
    (List.map
       (fun jitter -> (Printf.sprintf "jitter %g" jitter, { Session.default_config with Session.jitter }))
       [ -0.1; 1.5; 3.0; Float.nan ])

(* A wait that is not positive puts the retry deadline in the past. *)
let test_session_retry_wait_not_positive () =
  let cases field set = List.map (fun x -> (Printf.sprintf "%s %g" field x, set x)) [ 0.0; -1.0; Float.nan ] in
  check_session_configs_rejected
    (cases "retry_timeout" (fun retry_timeout -> { Session.default_config with Session.retry_timeout })
    @ cases "backoff" (fun backoff -> { Session.default_config with Session.backoff }))

let test_session_duplicate_delivery_idempotent () =
  let fx = fixture 12 in
  let _, ref_engine = reference fx in
  let res, engine =
    run_session ~schedule:{ Net.ideal with Net.dup_rate = 1.0 } ~net_seed:2 fx
  in
  ignore (expect_completed res);
  check_state "duplicates applied once" (Engine.state ref_engine) (Engine.state engine);
  checki "exactly one applied marker" 1 (markers engine)

let test_session_retries_through_loss () =
  let fx = fixture 13 in
  let _, ref_engine = reference fx in
  let res, engine = run_session ~schedule:(Net.lossy ~drop_rate:0.4) ~net_seed:5 fx in
  ignore (expect_completed res);
  checkb "lost acks forced retries" true (res.Session.retries > 0);
  check_state "still exactly-once" (Engine.state ref_engine) (Engine.state engine);
  checki "exactly one applied marker" 1 (markers engine)

let crash_case name schedule ~net_seed =
  Alcotest.test_case name `Quick (fun () ->
      let fx = fixture 14 in
      let _, ref_engine = reference fx in
      let res, engine = run_session ~schedule ~net_seed fx in
      ignore (expect_completed res);
      checkb "a crash was injected" true (res.Session.crashes > 0);
      check_state "recovered to the fault-free state" (Engine.state ref_engine)
        (Engine.state engine);
      checki "exactly one applied marker" 1 (markers engine);
      check_state "committed state durable" (Engine.state engine) (Engine.recover engine))

let test_session_drop_everything_aborts () =
  let fx = fixture 15 in
  let session = { Session.default_config with Session.retry_timeout = 0.1; max_retries = 3; commit_retries = 3 } in
  let engine, base_history =
    let _, _, mk = fx in
    mk ()
  in
  let pre = Engine.state engine in
  let s0, tentative, _ = fx in
  let net = Net.create ~seed:9 (Net.lossy ~drop_rate:1.0) in
  let res =
    Session.run_merge ~net ~session ~config:P.default_merge_config ~params:Cost.default_params
      ~base:engine ~base_history ~origin:s0 ~tentative ()
  in
  (match res.Session.outcome with
  | Session.Aborted _ -> ()
  | Session.Completed _ -> Alcotest.fail "expected abort on a dead link");
  check_state "base untouched" pre (Engine.state engine);
  checki "no applied marker" 0 (markers engine);
  (* the caller's fallback still works *)
  let rr =
    P.reprocess ~acceptance:P.accept_always ~params:Cost.default_params ~base:engine ~origin:s0
      ~tentative
  in
  checkb "reprocessing fallback proceeds" true (List.length rr.P.txns > 0)

let test_session_storage_loss_aborts_untouched () =
  (* The commit group's force (device sync #4: attach, initial checkpoint,
     base-history batch, then the commit) lies, and the base crashes right
     after committing. Reload loses the whole group — journal marker
     included — and detects the believed-durable gap: the session must
     abort with the base rolled back to its pre-session state, never
     resolve the in-doubt commit as applied. *)
  let rng = Rng.create 21 in
  let bank = Banking.make ~n_accounts:8 in
  let s0 = Banking.initial_state bank in
  let base_h = Banking.random_history bank rng ~prefix:"B" ~length:5 ~commuting_bias:0.5 in
  let tentative = Banking.random_history bank rng ~prefix:"M" ~length:7 ~commuting_bias:0.5 in
  let device = Block.create { Block.faithful with Block.fsync_lies = [ 4 ] } in
  let engine = Engine.create ~device s0 in
  let records = Engine.execute_batch engine (History.entries base_h) in
  let base_history =
    P.index_history
      (List.map2 (fun p record -> { P.program = p; record }) (History.programs base_h) records)
  in
  let pre = Engine.state engine in
  let net = Net.create ~seed:3 { Net.ideal with Net.crashes = [ Net.Base_after_commit ] } in
  let res =
    Session.run_merge ~net ~session:Session.default_config ~config:P.default_merge_config
      ~params:Cost.default_params ~base:engine ~base_history ~origin:s0 ~tentative ()
  in
  (match res.Session.outcome with
  | Session.Aborted _ -> ()
  | Session.Completed _ -> Alcotest.fail "phantom commit: completed on lost storage");
  checkb "flagged as a storage failure" true res.Session.storage_failure;
  checki "no applied marker" 0 (markers engine);
  check_state "base rolled back to the pre-session state" pre (Engine.state engine);
  checkb "a crash was injected" true (res.Session.crashes > 0)

let test_dead_link_aborts_counted_in_sync () =
  (* Regression for the retransmission cap: on a dead link every session
     must exhaust its bounded retries and abort cleanly, the simulator
     must count each abort in [aborted_merges], and the reprocessing
     fallback must keep the system serializable. *)
  let bank = Banking.make ~n_accounts:8 in
  let workload =
    {
      Sync.initial = Banking.initial_state bank;
      Sync.make_mobile_txn =
        (fun rng ~name -> Banking.random_transaction bank rng ~name ~commuting_bias:0.8);
      Sync.make_base_txn =
        (fun rng ~name -> Banking.random_transaction bank rng ~name ~commuting_bias:0.8);
    }
  in
  let session =
    { Session.default_config with Session.retry_timeout = 0.05; max_retries = 3; commit_retries = 3 }
  in
  let runner, totals =
    Session.sync_runner ~schedule:(Net.lossy ~drop_rate:1.0) ~session ~net_seed:77 ()
  in
  let stats =
    Sync.run
      {
        Sync.default_config with
        Sync.duration = 120.0;
        Sync.window = 30.0;
        Sync.seed = 5;
        Sync.protocol = Sync.Merging P.default_merge_config;
        Sync.merge_runner = Some runner;
      }
      workload
  in
  checkb "sessions were attempted" true (totals.Session.sessions > 0);
  checki "every session hit the retry cap and aborted" totals.Session.sessions
    totals.Session.aborted;
  checki "each abort counted by the simulator" totals.Session.aborted stats.Sync.aborted_merges;
  checki "nothing saved over a dead link" 0 stats.Sync.saved;
  checki "fallback kept the system serializable" 0 stats.Sync.serializability_violations

(* The fault runner goes through the same window handlers as the direct
   merge. Over an ideal wire every session completes, so Sync.run with
   the runner must reach the direct run's verdicts and final base under
   both isolation strategies — Strategy 1 merging against its snapshot's
   suffix of the history. Costs differ by design (the session layer
   charges its messages), so they are not compared. *)
let prop_sync_runner_matches_direct =
  QCheck.Test.make ~count:20 ~name:"sync: ideal-wire runner = direct merge (both strategies)"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let bank = Banking.make ~n_accounts:8 in
      let txn rng ~name = Banking.random_transaction bank rng ~name ~commuting_bias:0.6 in
      let workload =
        {
          Sync.initial = Banking.initial_state bank;
          Sync.make_mobile_txn = txn;
          Sync.make_base_txn = txn;
        }
      in
      List.for_all
        (fun isolation ->
          let config =
            {
              Sync.default_config with
              Sync.isolation;
              Sync.seed;
              Sync.duration = 60.0;
              Sync.window = 20.0;
            }
          in
          let direct = Sync.run config workload in
          let runner, _ =
            Session.sync_runner ~schedule:Net.ideal ~session:Session.default_config
              ~net_seed:seed ()
          in
          let run = Sync.run { config with Sync.merge_runner = Some runner } workload in
          let check cond msg = cond || QCheck.Test.fail_report msg in
          let same what f =
            f direct = f run
            || QCheck.Test.fail_reportf "%s: direct %d, runner %d" what (f direct) (f run)
          in
          same "merges" (fun s -> s.Sync.merges)
          && same "saved" (fun s -> s.Sync.saved)
          && same "reexecuted" (fun s -> s.Sync.reexecuted)
          && same "rejected" (fun s -> s.Sync.rejected)
          && same "late" (fun s -> s.Sync.late_sessions)
          && same "anomalies" (fun s -> s.Sync.anomalies)
          && check (run.Sync.serializability_violations = 0) "runner run not serializable"
          && check (run.Sync.aborted_merges = 0) "an ideal-wire session aborted"
          && check (State.equal direct.Sync.final_base run.Sync.final_base) "final bases differ")
        [ Sync.Strategy1; Sync.Strategy2 ])

let test_session_backoff_jitter_deterministic () =
  let fx = fixture 16 in
  let session = { Session.default_config with Session.jitter = 0.3 } in
  let lossy = Net.lossy ~drop_rate:0.4 in
  let run retry_seed =
    let s0, tentative, mk = fx in
    let engine, base_history = mk () in
    let net = Net.create ~seed:4 lossy in
    let res =
      Session.run_merge ~retry_seed ~net ~session ~config:P.default_merge_config
        ~params:Cost.default_params ~base:engine ~base_history ~origin:s0 ~tentative ()
    in
    (res, engine)
  in
  let r1, e1 = run 9 in
  let r2, e2 = run 9 in
  ignore (expect_completed r1);
  checkb "retries happened" true (r1.Session.retries > 0);
  checkb "same retry seed, same timing trace" true
    (r1.Session.retries = r2.Session.retries && r1.Session.elapsed = r2.Session.elapsed);
  check_state "same final state" (Engine.state e1) (Engine.state e2);
  (* jitter perturbs the retransmission timing but not correctness *)
  let r0, _ =
    run_session ~session:{ session with Session.jitter = 0.0 } ~schedule:lossy ~net_seed:4 fx
  in
  ignore (expect_completed r0);
  checkb "jittered timing differs from the bare exponential" true
    (r1.Session.elapsed <> r0.Session.elapsed)

(* ------------------------------------------------------------------ *)
(* Nemesis                                                            *)
(* ------------------------------------------------------------------ *)

let prop_nemesis_exactly_once =
  QCheck.Test.make ~count:60 ~name:"nemesis: exactly-once under arbitrary fault schedules"
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let schedule = Nemesis.random_schedule (Rng.create (1 + (131 * a) + b)) in
      match Nemesis.check_case ~seed:(100 + b) ~schedule () with
      | Ok _ -> true
      | Error msg -> QCheck.Test.fail_report msg)

(* One combined disk+net case: [a] and [b] pick the fault schedules,
   [b] also the workload. *)
let disk_net_case (a, b) =
  let rng = Rng.create (7 + (131 * a) + b) in
  let schedule = Nemesis.random_schedule rng in
  let disk = Nemesis.random_disk_schedule rng in
  Nemesis.check_case ~disk ~seed:(500 + b) ~schedule ()

let prop_nemesis_disk_corruption_safe =
  QCheck.Test.make ~count:40 ~name:"nemesis: corruption-safe under combined disk+net faults"
    QCheck.(pair small_nat small_nat)
    (fun ab ->
      match disk_net_case ab with Ok _ -> true | Error msg -> QCheck.Test.fail_report msg)

(* Every input in 0..100 x 0..100 on which the property above once
   failed: the base sent [Done], then a crash-restart found durable
   records lost, the commit group with them, yet the session reported
   [Completed]. Each must now abort on the detected storage failure. *)
let test_nemesis_done_then_storage_loss () =
  List.iter
    (fun ((a, b) as ab) ->
      match disk_net_case ab with
      | Ok v ->
        checkb
          (Printf.sprintf "(%d, %d): aborted on the detected loss" a b)
          true
          (v.Nemesis.damaged && not v.Nemesis.completed)
      | Error msg -> Alcotest.failf "(%d, %d): %s" a b msg)
    [ (0, 43); (10, 63); (33, 8); (54, 66); (68, 60); (85, 34) ]

let test_nemesis_sweep_clean () =
  let sweep = Nemesis.run_sweep ~seed:2026 ~count:30 () in
  checki "no violations" 0 (List.length sweep.Sweep.failures);
  checki "all cases accounted" sweep.Sweep.cases (List.length sweep.Sweep.passed);
  checkb "faults actually fired" true
    (List.exists
       (fun (v : Nemesis.verdict) -> v.Nemesis.retries > 0 || v.Nemesis.crashes > 0)
       sweep.Sweep.passed)

let test_sweep_driver () =
  let sweep =
    Sweep.run ~seed:10 ~count:4 (fun s ->
        if s mod 2 = 0 then Ok (s * 10) else Error (Printf.sprintf "odd %d" s))
  in
  Alcotest.(check (list int)) "passing results in seed order" [ 100; 120 ] sweep.Sweep.passed;
  Alcotest.(check (list (pair int string)))
    "failures in seed order" [ (11, "odd 11"); (13, "odd 13") ] sweep.Sweep.failures;
  let header ppf (s : int Sweep.t) =
    Format.fprintf ppf "cases=%d ok=%d" s.Sweep.cases (List.length s.Sweep.passed)
  in
  Alcotest.(check string)
    "header, then one FAIL line per failure"
    "cases=4 ok=2\nFAIL seed=11: odd 11\nFAIL seed=13: odd 13"
    (Format.asprintf "%a" (Sweep.pp header) sweep)

let test_nemesis_disk_sweep_clean () =
  let sweep = Nemesis.run_sweep ~disk:true ~seed:2026 ~count:40 () in
  checki "no violations" 0 (List.length sweep.Sweep.failures);
  checki "all cases accounted" sweep.Sweep.cases (List.length sweep.Sweep.passed);
  checkb "storage failures were actually provoked and detected" true
    (List.exists (fun (v : Nemesis.verdict) -> v.Nemesis.damaged) sweep.Sweep.passed)

(* ------------------------------------------------------------------ *)
(* Two interleaved sessions against one base (ROADMAP item 5)          *)
(* ------------------------------------------------------------------ *)

(* Exactly-once with two mobiles sharing one base: each session leaves
   exactly one applied marker iff it completed, and the base's final
   state is the serial composition of the completed merges — the second
   mobile connects against whatever logical history the first left
   behind, exactly as a reconnecting client would. *)
let prop_two_sessions_exactly_once =
  QCheck.Test.make ~count:50
    ~name:"sessions: two mobiles on one base commit exactly once each"
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let seed = 11 + (131 * a) + b in
      let rng = Rng.create seed in
      let sched1 = Nemesis.random_schedule rng in
      let sched2 = Nemesis.random_schedule rng in
      let bank = Banking.make ~n_accounts:8 in
      let s0 = Banking.initial_state bank in
      let base_h = Banking.random_history bank rng ~prefix:"B" ~length:4 ~commuting_bias:0.6 in
      let t1 =
        Banking.random_history bank rng ~prefix:"M1x" ~length:(2 + Rng.int rng 4)
          ~commuting_bias:0.6
      in
      let t2 =
        Banking.random_history bank rng ~prefix:"M2x" ~length:(2 + Rng.int rng 4)
          ~commuting_bias:0.6
      in
      let engine = Engine.create s0 in
      let records = Engine.execute_batch engine (History.entries base_h) in
      let history0 =
        List.map2 (fun p record -> { P.program = p; record }) (History.programs base_h) records
      in
      (* A session and the logical history it leaves behind. *)
      let run ~sid ~schedule ~tentative ~base_history =
        let net = Net.create ~seed:(seed + (7919 * sid)) schedule in
        let indexed = P.index_history base_history in
        let res =
          Session.run_merge ~sid ~retry_seed:(seed + (31 * sid)) ~net
            ~session:Session.default_config ~config:P.default_merge_config
            ~params:Cost.default_params ~base:engine ~base_history:indexed ~origin:s0 ~tentative
            ()
        in
        match res.Session.outcome with
        | Session.Completed rep -> (res, P.merged_history indexed rep.P.splice)
        | Session.Aborted _ -> (res, base_history)
      in
      let check cond msg = if cond then true else QCheck.Test.fail_report msg in
      let r1, h1 = run ~sid:1 ~schedule:sched1 ~tentative:t1 ~base_history:history0 in
      let r2, h2 = run ~sid:2 ~schedule:sched2 ~tentative:t2 ~base_history:h1 in
      let want r =
        match r.Session.outcome with Session.Completed _ -> 1 | Session.Aborted _ -> 0
      in
      let m1 = Session.applied_markers engine ~sid:1 in
      let m2 = Session.applied_markers engine ~sid:2 in
      check
        ((not r1.Session.storage_failure) && not r2.Session.storage_failure)
        "storage failure without a disk fault"
      && check (m1 = want r1) (Printf.sprintf "sid 1: %d applied markers (want %d)" m1 (want r1))
      && check (m2 = want r2) (Printf.sprintf "sid 2: %d applied markers (want %d)" m2 (want r2))
      && check
           (State.equal (Engine.state engine) (P.replay s0 h2))
           "base state is not the serial composition of the completed merges"
      && check
           (State.equal (Engine.recover engine) (Engine.state engine))
           "committed state not durable")

(* ------------------------------------------------------------------ *)
(* Crash-point x retry-budget matrix (widened in-doubt rule)           *)
(* ------------------------------------------------------------------ *)

(* One row of the crash-point x budget-exhaustion matrix. A permanent
   partition opens at [cut] (seconds into the run, fixed seed 42 over an
   ideal link, so the message timeline is deterministic) and the session
   exhausts whatever retry budget it is in at that moment. The widened
   in-doubt rule under test: once a [Forward] was ever on the wire, any
   budget exhaustion — including a {e resumed} session dying in its
   [Hello] budget — must resolve through the durable journal peek, never
   blindly abort. The peek's verdict then decides the row: a marker
   (crash after the commit force) completes to the reference state; no
   marker (torn commit group, or a crash before the Forward) aborts with
   the base untouched. A completed row also names the in-doubt branch
   that resolved it, by what the mobile's processor was charged: an
   exhausted [Forward] budget reuses the rewrite the mobile still holds
   (charged once, as in the fault-free merge), and a give-up after a
   restart recomputes it (charged again). *)
let in_doubt_case name ~crash ~cut ~expect ~resumed ~forced =
  Alcotest.test_case name `Quick (fun () ->
      let fx = fixture 31 in
      let s0, tentative, mk = fx in
      let engine, base_history = mk () in
      let pre = Engine.state engine in
      let session =
        {
          Session.default_config with
          Session.retry_timeout = 0.2;
          max_retries = 4;
          commit_retries = 4;
        }
      in
      let schedule = { Net.ideal with Net.crashes = [ crash ]; partitions = [ (cut, 1e9) ] } in
      let net = Net.create ~seed:42 schedule in
      let res =
        Session.run_merge ~sid:1 ~net ~session ~config:P.default_merge_config
          ~params:Cost.default_params ~base:engine ~base_history ~origin:s0 ~tentative ()
      in
      checkb "a crash was injected" true (res.Session.crashes > 0);
      checkb "resumed as expected" resumed res.Session.resumed;
      checkb "journal peek engaged as expected" forced res.Session.forced_resolution;
      match (expect, res.Session.outcome) with
      | `Completed rewrite, Session.Completed report ->
        checki "exactly one applied marker" 1 (Session.applied_markers engine ~sid:1);
        let ref_report, ref_engine = reference fx in
        check_state "resolved to the reference merge state" (Engine.state ref_engine)
          (Engine.state engine);
        checkb "same saved set" true (Names.Set.equal report.P.saved ref_report.P.saved);
        let mobile_cpu (r : P.merge_report) = r.P.cost.Cost.mobile_cpu in
        (match rewrite with
        | `Reused ->
          checkb "rewrite reused: mobile charged once" true
            (mobile_cpu report = mobile_cpu ref_report)
        | `Recomputed ->
          checkb "rewrite recomputed: mobile charged again" true
            (mobile_cpu report > mobile_cpu ref_report));
        check_state "committed state durable" (Engine.state engine) (Engine.recover engine)
      | `Aborted, Session.Aborted _ ->
        checki "no applied marker" 0 (Session.applied_markers engine ~sid:1);
        check_state "base untouched" pre (Engine.state engine)
      | `Completed _, Session.Aborted reason ->
        Alcotest.failf "expected in-doubt completion, aborted: %s" reason
      | `Aborted, Session.Completed _ -> Alcotest.fail "expected abort, completed")

let in_doubt_matrix =
  [
    in_doubt_case "marker present, commit retries exhausted -> resolved"
      ~crash:Net.Base_after_commit ~cut:0.30 ~expect:(`Completed `Reused) ~resumed:false
      ~forced:true;
    in_doubt_case "marker present, resumed hello budget exhausted -> resolved"
      ~crash:Net.Base_after_commit ~cut:0.50 ~expect:(`Completed `Recomputed) ~resumed:true
      ~forced:true;
    in_doubt_case "torn group, commit retries exhausted -> abort"
      ~crash:Net.Base_mid_commit ~cut:0.30 ~expect:`Aborted ~resumed:false ~forced:true;
    in_doubt_case "torn group, resumed hello budget exhausted -> abort"
      ~crash:Net.Base_mid_commit ~cut:0.50 ~expect:`Aborted ~resumed:true ~forced:true;
    in_doubt_case "crash before forward, ship budget exhausted -> plain abort"
      ~crash:(Net.Base_after_handling 2) ~cut:0.30 ~expect:`Aborted ~resumed:false
      ~forced:false;
  ]

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "repro_fault"
    [
      ( "net",
        [
          Alcotest.test_case "deterministic" `Quick test_net_deterministic;
          Alcotest.test_case "drop all" `Quick test_net_drop_all;
          Alcotest.test_case "duplicate all" `Quick test_net_duplicates_all;
          Alcotest.test_case "partition" `Quick test_net_partition;
          Alcotest.test_case "reordering" `Quick test_net_reordering_from_latency;
        ] );
      ( "session",
        [
          Alcotest.test_case "ideal wire = atomic merge" `Quick test_session_ideal_matches_merge;
          Alcotest.test_case "duplicate delivery idempotent" `Quick
            test_session_duplicate_delivery_idempotent;
          Alcotest.test_case "retries through loss" `Quick test_session_retries_through_loss;
          crash_case "resume after base crash"
            { Net.ideal with Net.crashes = [ Net.Base_after_handling 3 ] }
            ~net_seed:6;
          crash_case "torn commit group (mid-commit crash)"
            { Net.ideal with Net.crashes = [ Net.Base_mid_commit ] }
            ~net_seed:7;
          crash_case "in-doubt commit (crash after force)"
            { Net.ideal with Net.crashes = [ Net.Base_after_commit ] }
            ~net_seed:8;
          crash_case "mobile crash and reboot"
            { Net.ideal with Net.crashes = [ Net.Mobile_after_handling 2 ] }
            ~net_seed:9;
          Alcotest.test_case "dead link aborts cleanly" `Quick test_session_drop_everything_aborts;
          Alcotest.test_case "storage loss aborts with base untouched" `Quick
            test_session_storage_loss_aborts_untouched;
          Alcotest.test_case "dead-link aborts counted by the simulator" `Quick
            test_dead_link_aborts_counted_in_sync;
          Alcotest.test_case "backoff jitter deterministic" `Quick
            test_session_backoff_jitter_deterministic;
          Alcotest.test_case "jitter outside [0, 1] rejected" `Quick
            test_session_jitter_out_of_range;
          Alcotest.test_case "retry timeout or backoff not positive rejected" `Quick
            test_session_retry_wait_not_positive;
        ]
        @ qsuite
            [
              prop_two_sessions_exactly_once;
              prop_sync_runner_matches_direct;
              prop_ideal_wire_matches_merge;
            ] );
      ("in-doubt", in_doubt_matrix);
      ( "nemesis",
        [
          Alcotest.test_case "fixed-seed sweep" `Quick test_nemesis_sweep_clean;
          Alcotest.test_case "fixed-seed disk sweep" `Quick test_nemesis_disk_sweep_clean;
          Alcotest.test_case "sweep driver" `Quick test_sweep_driver;
          Alcotest.test_case "storage loss after Done aborts" `Quick
            test_nemesis_done_then_storage_loss;
        ]
        @ qsuite [ prop_nemesis_exactly_once; prop_nemesis_disk_corruption_safe ] );
    ]
