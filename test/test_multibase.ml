(* Tests for the multi-base replication layer: epidemic propagation and
   decentralized commitment (Mbase), the anti-entropy exchange protocol
   under faults (Exchange), the cluster harness and its convergence
   contract (Cluster), and the base-partition nemesis (Mb_nemesis). *)

module Engine = Repro_db.Engine
module Rng = Repro_workload.Rng
module Banking = Repro_workload.Banking
module Net = Repro_fault.Net
module Gtxn = Repro_multibase.Gtxn
module Mbase = Repro_multibase.Mbase
module Exchange = Repro_multibase.Exchange
module Cluster = Repro_multibase.Cluster
module MN = Repro_multibase.Mb_nemesis
module Sweep = Repro_fault.Sweep
module Obs = Repro_obs.Obs
module G = Test_support.Generators

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let check_state = Alcotest.check G.state

(* A tiny standalone cluster: shared registry, [n] bases. *)
let mk ?(n_accounts = 6) n =
  let bank = Banking.make ~n_accounts in
  let s0 = Banking.initial_state bank in
  let registry : (Gtxn.id, Gtxn.t) Hashtbl.t = Hashtbl.create 16 in
  let store =
    {
      Mbase.register = (fun (g : Gtxn.t) -> Hashtbl.replace registry g.Gtxn.id g);
      lookup = (fun id -> Hashtbl.find registry id);
    }
  in
  ( bank,
    Array.init n (fun i -> Mbase.create ~id:i ~n ~s0 ~config:Mbase.default_config ~store ())
  )

let xrun ?(schedule = Net.ideal) ~seed a b =
  let net = Net.create ~describe:Exchange.wire_label ~seed schedule in
  Exchange.run ~net ~config:Exchange.default_config ~initiator:a ~responder:b ()

(* Fault-free healing rounds: tick everyone, exchange all ordered pairs. *)
let heal ?(rounds = 5) bases =
  let n = Array.length bases in
  for r = 1 to rounds do
    Array.iter Mbase.tick bases;
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j then ignore (xrun ~seed:(1000 * r) bases.(i) bases.(j))
      done
    done
  done

let assert_converged bases =
  let b0 = bases.(0) in
  Array.iter
    (fun b ->
      checki
        (Printf.sprintf "base %d: tentative drained" (Mbase.id b))
        0 (Mbase.tentative_count b);
      check_state
        (Printf.sprintf "base %d: stable state matches base 0" (Mbase.id b))
        (Mbase.stable_state b0) (Mbase.stable_state b);
      checkb
        (Printf.sprintf "base %d: identical stable sequence" (Mbase.id b))
        true
        (List.map (fun ((g : Gtxn.t), ok) -> (g.Gtxn.id, ok)) (Mbase.stable b)
        = List.map (fun ((g : Gtxn.t), ok) -> (g.Gtxn.id, ok)) (Mbase.stable b0));
      check_state
        (Printf.sprintf "base %d: applied = stable" (Mbase.id b))
        (Mbase.stable_state b) (Mbase.applied b);
      check_state
        (Printf.sprintf "base %d: stable state durable" (Mbase.id b))
        (Mbase.applied b)
        (Engine.recover (Mbase.engine b)))
    bases

(* ------------------------------------------------------------------ *)
(* Mbase                                                              *)
(* ------------------------------------------------------------------ *)

let test_two_bases_converge () =
  let bank, bases = mk 2 in
  ignore (Mbase.submit bases.(0) (Banking.deposit bank ~name:"t0" ~account:0 ~amount:7));
  ignore (Mbase.submit bases.(1) (Banking.transfer bank ~name:"t1" ~from_:1 ~to_:2 ~amount:3));
  ignore (Mbase.submit bases.(0) (Banking.withdraw bank ~name:"t2" ~account:2 ~amount:1));
  heal bases;
  assert_converged bases;
  checki "all three committed or rejected" 3 (Mbase.stable_len bases.(0))

let test_exchange_idempotent () =
  let bank, bases = mk 2 in
  ignore (Mbase.submit bases.(0) (Banking.deposit bank ~name:"i0" ~account:0 ~amount:5));
  let r1 = xrun ~seed:1 bases.(0) bases.(1) in
  checki "first exchange ships the txn" 1 r1.Exchange.pushed;
  let r2 = xrun ~seed:2 bases.(0) bases.(1) in
  checki "second exchange ships nothing" 0 r2.Exchange.pushed;
  checki "nothing pulled either" 0 r2.Exchange.pulled

let test_restore_rebuilds_state () =
  let bank, bases = mk 2 in
  ignore (Mbase.submit bases.(0) (Banking.deposit bank ~name:"r0" ~account:0 ~amount:4));
  ignore (Mbase.submit bases.(1) (Banking.deposit bank ~name:"r1" ~account:1 ~amount:2));
  ignore (xrun ~seed:3 bases.(0) bases.(1));
  ignore (xrun ~seed:4 bases.(1) bases.(0));
  let before_applied = Mbase.applied bases.(0) in
  let before_stable = Mbase.stable_len bases.(0) in
  let before_tentative = Mbase.tentative_count bases.(0) in
  let d1 = Mbase.digest bases.(0) in
  ignore (Mbase.restore bases.(0));
  check_state "applied state survives crash-restart" before_applied (Mbase.applied bases.(0));
  checki "stable prefix survives" before_stable (Mbase.stable_len bases.(0));
  checki "tentative layer survives" before_tentative (Mbase.tentative_count bases.(0));
  let d2 = Mbase.digest bases.(0) in
  checkb "durable clock never regresses across a crash" true
    (d2.Mbase.clock >= d1.Mbase.clock);
  checkb "coverage never regresses across a crash" true
    (Array.for_all2 ( <= ) d1.Mbase.have d2.Mbase.have);
  (* and the cluster still converges after the restart *)
  heal bases;
  assert_converged bases

let test_commit_is_deterministic_across_bases () =
  (* Conflicting writes from both sides: whatever the acceptance rule
     decides, both bases must decide it identically. *)
  let bank, bases = mk 3 in
  ignore (Mbase.submit bases.(0) (Banking.withdraw bank ~name:"c0" ~account:0 ~amount:10));
  ignore (Mbase.submit bases.(1) (Banking.withdraw bank ~name:"c1" ~account:0 ~amount:10));
  ignore (Mbase.submit bases.(2) (Banking.apply_fee bank ~name:"c2" ~account:0));
  heal bases;
  assert_converged bases;
  checki "every transaction decided" 3 (Mbase.stable_len bases.(0))

let test_commit_rejects_divergent_shape () =
  (* Both bases drain the same account while disconnected: each
     [safe_withdraw] succeeds at its origin (100 >= 70), but in the
     global commit order the later one's guard fails and it writes
     nothing — its shape diverges from the origin witness, so the
     commitment rule must reject it, identically at every base, as a
     clean global abort. *)
  let bank, bases = mk 2 in
  ignore (Mbase.submit bases.(0) (Banking.safe_withdraw bank ~name:"d0" ~account:0 ~amount:70));
  ignore (Mbase.submit bases.(1) (Banking.safe_withdraw bank ~name:"d1" ~account:0 ~amount:70));
  heal bases;
  assert_converged bases;
  let decisions = List.map snd (Mbase.stable bases.(0)) in
  checki "both decided" 2 (List.length decisions);
  checki "exactly one rejected" 1
    (List.length (List.filter (fun ok -> not ok) decisions));
  (* the committed one really withdrew: 100 - 70 = 30 *)
  checkb "winner's effect is in the stable state" true
    (Repro_txn.State.to_list (Mbase.stable_state bases.(0))
    |> List.exists (fun (_, v) -> v = 30))

(* ------------------------------------------------------------------ *)
(* Exchange under faults                                              *)
(* ------------------------------------------------------------------ *)

let test_exchange_hard_partition_aborts_then_heals () =
  let bank, bases = mk 2 in
  ignore (Mbase.submit bases.(0) (Banking.deposit bank ~name:"p0" ~account:0 ~amount:9));
  let parted = { Net.ideal with Net.partitions = [ (0.0, 1e9) ] } in
  let r = xrun ~schedule:parted ~seed:5 bases.(0) bases.(1) in
  checkb "partitioned exchange aborts" true
    (match r.Exchange.outcome with Exchange.Aborted _ -> true | Exchange.Completed -> false);
  checki "nothing propagated through the partition" 0 (r.Exchange.pushed + r.Exchange.pulled);
  heal bases;
  assert_converged bases;
  checki "the transaction committed after healing" 1 (Mbase.stable_len bases.(0))

let test_exchange_responder_crash_recovers () =
  let bank, bases = mk 2 in
  ignore (Mbase.submit bases.(0) (Banking.deposit bank ~name:"x0" ~account:0 ~amount:3));
  ignore (Mbase.submit bases.(1) (Banking.deposit bank ~name:"x1" ~account:1 ~amount:6));
  let sched = { Net.ideal with Net.crashes = [ Net.Base_after_handling 2 ] } in
  let r = xrun ~schedule:sched ~seed:6 bases.(0) bases.(1) in
  checkb "responder crash was injected" true (r.Exchange.crashes >= 1);
  heal bases;
  assert_converged bases

let test_exchange_commit_window_crashes () =
  (* Crash points around the responder's commitment run: before it
     (mid-commit) and after it but before the ack (after-commit, the
     in-doubt window — the retransmitted Bye re-runs commitment). *)
  List.iter
    (fun crash ->
      let bank, bases = mk 2 in
      ignore (Mbase.submit bases.(0) (Banking.deposit bank ~name:"w0" ~account:0 ~amount:2));
      ignore (Mbase.submit bases.(1) (Banking.deposit bank ~name:"w1" ~account:1 ~amount:2));
      let sched = { Net.ideal with Net.crashes = [ crash ] } in
      ignore (xrun ~schedule:sched ~seed:7 bases.(0) bases.(1));
      heal bases;
      assert_converged bases)
    [ Net.Base_mid_commit; Net.Base_after_commit ]

(* Each injected crash is counted once: [multibase.exchange_crashes]
   moves by exactly the result's [crashes], for an initiator crash (which
   aborts the exchange) as for a responder crash. *)
let test_exchange_crashes_counted_once () =
  List.iter
    (fun (who, crash) ->
      let bank, bases = mk 2 in
      List.iter
        (fun account ->
          let name = Printf.sprintf "c%d" account in
          ignore (Mbase.submit bases.(1) (Banking.deposit bank ~name ~account ~amount:2)))
        [ 0; 1; 2 ];
      Obs.reset ();
      let r =
        Obs.with_enabled true (fun () ->
            xrun ~schedule:{ Net.ideal with Net.crashes = [ crash ] } ~seed:9 bases.(0) bases.(1))
      in
      checki (who ^ ": one crash in the result") 1 r.Exchange.crashes;
      checki (who ^ ": counted once") r.Exchange.crashes
        (Obs.Counter.value (Obs.Counter.make "multibase.exchange_crashes")))
    [ ("initiator", Net.Mobile_after_handling 1); ("responder", Net.Base_after_handling 1) ];
  Obs.reset ()

(* A wait that is not positive puts the retry deadline in the past. *)
let test_exchange_retry_wait_not_positive () =
  let cases field set =
    List.map (fun x -> (Printf.sprintf "%s %g" field x, set x)) [ 0.0; -1.0; Float.nan ]
  in
  List.iter
    (fun (what, config) ->
      let bank, bases = mk 2 in
      ignore (Mbase.submit bases.(0) (Banking.deposit bank ~name:"n0" ~account:0 ~amount:5));
      ignore (Mbase.submit bases.(1) (Banking.deposit bank ~name:"n1" ~account:1 ~amount:3));
      let seen b = (Mbase.digest b, Mbase.tentative_count b, Mbase.stable_len b) in
      let before = Array.map (fun b -> (seen b, Mbase.applied b)) bases in
      let net = Net.create ~describe:Exchange.wire_label ~seed:1 (Net.lossy ~drop_rate:0.4) in
      (match Exchange.run ~net ~config ~initiator:bases.(0) ~responder:bases.(1) () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s accepted" what);
      Array.iteri
        (fun i b ->
          let seen0, applied0 = before.(i) in
          let untouched = Printf.sprintf "%s: base %d untouched" what i in
          checkb untouched true (seen b = seen0);
          check_state untouched applied0 (Mbase.applied b))
        bases)
    (cases "retry_timeout" (fun retry_timeout -> { Exchange.default_config with Exchange.retry_timeout })
    @ cases "backoff" (fun backoff -> { Exchange.default_config with Exchange.backoff }))

let test_asymmetric_link () =
  (* Requests all dropped, replies clean: the exchange must abort (or
     degrade) without corrupting either side; healing converges. *)
  let bank, bases = mk 2 in
  ignore (Mbase.submit bases.(0) (Banking.deposit bank ~name:"a0" ~account:0 ~amount:8));
  let sched = { Net.ideal with Net.to_base_drop = Some 1.0 } in
  let r = xrun ~schedule:sched ~seed:8 bases.(0) bases.(1) in
  checkb "one-way-dead link aborts" true
    (match r.Exchange.outcome with Exchange.Aborted _ -> true | Exchange.Completed -> false);
  heal bases;
  assert_converged bases

(* ------------------------------------------------------------------ *)
(* Cluster                                                            *)
(* ------------------------------------------------------------------ *)

let test_cluster_mobile_reanchors () =
  let c = Cluster.create ~bases:3 ~mobiles:1 ~n_accounts:6 () in
  Cluster.run_ops c
    [
      Cluster.Mobile_session
        { mobile = 0; base = 0; length = 3; schedule = Net.ideal; seed = 11 };
      Cluster.Base_txn { base = 1; seed = 12 };
      Cluster.Exchange { initiator = 1; responder = 0; schedule = Net.ideal; seed = 13 };
      (* reconnect at a different base with new disconnected work *)
      Cluster.Mobile_session
        { mobile = 0; base = 1; length = 2; schedule = Net.ideal; seed = 14 };
      Cluster.Base_txn { base = 2; seed = 15 };
    ];
  (match Cluster.check c with
  | [] -> ()
  | vs -> Alcotest.failf "violations: %s" (String.concat "; " vs));
  checki "the mobile re-anchored at a new base" 1 (Cluster.stats c).Cluster.reanchored;
  checki "both sessions completed" 2 (Cluster.stats c).Cluster.completed

let test_cluster_aborted_session_retries_elsewhere () =
  (* The first sync dies on a dead link; the mobile keeps its tentative
     history and completes it later against a different base. *)
  let c = Cluster.create ~bases:2 ~mobiles:1 ~n_accounts:6 () in
  let dead = { Net.ideal with Net.drop_rate = 1.0 } in
  Cluster.run_ops c
    [
      Cluster.Mobile_session { mobile = 0; base = 0; length = 3; schedule = dead; seed = 21 };
      Cluster.Mobile_session
        { mobile = 0; base = 1; length = 0; schedule = Net.ideal; seed = 22 };
    ];
  let s = Cluster.stats c in
  checki "first session aborted" 1 s.Cluster.session_aborts;
  checki "retry completed" 1 s.Cluster.completed;
  (match Cluster.check c with
  | [] -> ()
  | vs -> Alcotest.failf "violations: %s" (String.concat "; " vs));
  checkb "all three mobile transactions decided" true
    (Mbase.stable_len (Cluster.bases c).(0) >= 3)

let test_cluster_partitioned_exchanges_heal () =
  let c = Cluster.create ~bases:3 ~mobiles:2 ~n_accounts:6 () in
  let parted = { Net.ideal with Net.partitions = [ (0.0, 1e9) ] } in
  Cluster.run_ops c
    [
      Cluster.Mobile_session
        { mobile = 0; base = 0; length = 2; schedule = Net.ideal; seed = 31 };
      Cluster.Base_txn { base = 1; seed = 32 };
      Cluster.Exchange { initiator = 0; responder = 1; schedule = parted; seed = 33 };
      Cluster.Exchange { initiator = 1; responder = 2; schedule = parted; seed = 34 };
      Cluster.Crash { base = 1 };
      Cluster.Mobile_session
        { mobile = 1; base = 2; length = 2; schedule = Net.ideal; seed = 35 };
      Cluster.Tick { base = 0 };
    ];
  let s = Cluster.stats c in
  checki "both partitioned exchanges aborted" 2 s.Cluster.exchange_aborts;
  match Cluster.check c with
  | [] -> ()
  | vs -> Alcotest.failf "violations: %s" (String.concat "; " vs)

(* ------------------------------------------------------------------ *)
(* Nemesis                                                            *)
(* ------------------------------------------------------------------ *)

let test_mb_nemesis_fixed_sweep () =
  let sweep = MN.run_sweep ~seed:2026 ~count:25 () in
  (match sweep.Sweep.failures with
  | [] -> ()
  | (seed, msg) :: _ -> Alcotest.failf "seed %d: %s" seed msg);
  checki "all cases pass" sweep.Sweep.cases (List.length sweep.Sweep.passed);
  let fired (s : Cluster.stats) =
    s.Cluster.exchange_aborts > 0 || s.Cluster.base_crashes > 0 || s.Cluster.session_aborts > 0
  in
  checkb "faults actually fired" true (List.exists fired sweep.Sweep.passed);
  checkb "transactions actually committed" true
    (List.exists (fun (s : Cluster.stats) -> s.Cluster.committed > 0) sweep.Sweep.passed)

let prop_mb_nemesis_convergence =
  QCheck.Test.make ~count:30 ~name:"mb-nemesis: convergence contract under random faults"
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      match MN.check_case ~seed:(3000 + (131 * a) + b) () with
      | Ok _ -> true
      | Error msg -> QCheck.Test.fail_report msg)

(* Each base's stable sequence is append-only — across crash-restarts,
   which rebuild it from the journal, too — strictly increasing under
   [Gtxn.compare_order], and [stable_len] is its length; any two bases'
   sequences are prefix-related with equal verdicts. Checked after every
   op of a random nemesis case and after healing. *)
let prop_stable_only_grows =
  QCheck.Test.make ~count:100 ~name:"stable sequences only grow, crashes included"
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let seed = 7000 + (131 * a) + b in
      let case = MN.random_case ~seed () in
      let c = Cluster.create ~bases:case.MN.bases ~mobiles:case.MN.mobiles ~n_accounts:8 () in
      let ids base = List.map (fun ((g : Gtxn.t), ok) -> (g.Gtxn.id, ok)) (Mbase.stable base) in
      let seen = Array.map ids (Cluster.bases c) in
      let rec extends old now =
        match (old, now) with
        | [], _ -> true
        | x :: old', y :: now' -> x = y && extends old' now'
        | _ :: _, [] -> false
      in
      let rec increasing = function
        | ((a : Gtxn.t), _) :: ((b, _) :: _ as rest) -> Gtxn.compare_order a b < 0 && increasing rest
        | _ -> true
      in
      let check_after step =
        Array.iteri
          (fun i base ->
            let now = ids base in
            if not (extends seen.(i) now) then
              QCheck.Test.fail_reportf "seed %d, after %s: base %d's stable sequence shrank or changed"
                seed step i;
            if Mbase.stable_len base <> List.length now then
              QCheck.Test.fail_reportf "seed %d, after %s: base %d's stable_len %d, stable has %d" seed
                step i (Mbase.stable_len base) (List.length now);
            if not (increasing (Mbase.stable base)) then
              QCheck.Test.fail_reportf
                "seed %d, after %s: base %d's stable sequence is not increasing in commit order" seed
                step i;
            seen.(i) <- now)
          (Cluster.bases c);
        (* Comparing (id, verdict) pairs: nested sequences with equal
           verdicts. *)
        Array.iteri
          (fun i a ->
            Array.iteri
              (fun j b ->
                if i < j && not (extends a b || extends b a) then
                  QCheck.Test.fail_reportf
                    "seed %d, after %s: bases %d and %d's stable sequences are not prefix-related \
                     with equal verdicts"
                    seed step i j)
              seen)
          seen
      in
      List.iteri
        (fun k op ->
          Cluster.run_op c op;
          check_after (Printf.sprintf "op %d" k))
        case.MN.ops;
      ignore (Cluster.converge c);
      check_after "healing";
      true)

(* The commitment counters and base 0's decisions on one fixed-seed
   cluster (the [bases-sim] run at [--ops 60 --base-partition-rate 0.4
   --seed 2026]), with Obs on. The values were taken from a build that
   ran the semantic prediction on every commit, so they also pin that
   computing [commit_semantic_miss] on re-anchoring commits only moves
   no counter and no decision. *)
let test_commit_counters_pinned () =
  Obs.reset ();
  let case = MN.random_case ~partition_rate:0.4 ~bases:3 ~mobiles:3 ~n_ops:60 ~seed:2026 () in
  let c = Cluster.create ~bases:3 ~mobiles:3 ~n_accounts:8 () in
  let violations =
    Obs.with_enabled true (fun () ->
        Cluster.run_ops c case.MN.ops;
        Cluster.check c)
  in
  (match violations with
  | [] -> ()
  | vs -> Alcotest.failf "violations: %s" (String.concat "; " vs));
  let counter name = Obs.Counter.value (Obs.Counter.make name) in
  checki "metadata-only commits" 10 (counter "multibase.commit_fast");
  checki "re-anchoring commits" 3 (counter "multibase.commit_reanchor");
  checki "semantic misses" 0 (counter "multibase.commit_semantic_miss");
  (* origin/seq, then + committed or - rejected *)
  Alcotest.check
    Alcotest.(list string)
    "base 0's stable ids and verdicts"
    [
      "1/1+"; "2/1+"; "1/2+"; "2/2+"; "0/1+"; "1/3+"; "2/3+"; "0/2+"; "1/4+"; "2/4+";
      "0/3+"; "1/5+"; "2/5+"; "0/4+"; "1/6+"; "2/6+"; "0/5+"; "2/7+"; "2/8+"; "2/9+";
      "2/10+"; "2/11+"; "2/12+"; "2/13+"; "2/14+"; "2/15+"; "2/16+"; "1/7+"; "1/8+"; "1/9+";
      "1/10+"; "2/17+"; "2/18+"; "0/6+"; "1/11+"; "0/7+"; "1/12+"; "0/8+"; "1/13+"; "0/9+";
      "1/14+"; "0/10+"; "1/15+"; "0/11+"; "1/16+"; "0/12+"; "1/17+"; "0/13+"; "1/18+"; "1/19+";
    ]
    (List.map
       (fun ((g : Gtxn.t), ok) ->
         Printf.sprintf "%d/%d%c" g.Gtxn.id.Gtxn.origin g.Gtxn.id.Gtxn.seq
           (if ok then '+' else '-'))
       (Mbase.stable (Cluster.bases c).(0)));
  Obs.reset ()

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "repro_multibase"
    [
      ( "mbase",
        [
          Alcotest.test_case "two bases converge" `Quick test_two_bases_converge;
          Alcotest.test_case "exchange idempotent" `Quick test_exchange_idempotent;
          Alcotest.test_case "restore rebuilds replication state" `Quick
            test_restore_rebuilds_state;
          Alcotest.test_case "conflicting writes decided identically" `Quick
            test_commit_is_deterministic_across_bases;
          Alcotest.test_case "divergent shape rejected everywhere" `Quick
            test_commit_rejects_divergent_shape;
          Alcotest.test_case "commitment counters pinned" `Quick test_commit_counters_pinned;
        ]
        @ qsuite [ prop_stable_only_grows ] );
      ( "exchange",
        [
          Alcotest.test_case "hard partition aborts then heals" `Quick
            test_exchange_hard_partition_aborts_then_heals;
          Alcotest.test_case "responder crash recovers" `Quick
            test_exchange_responder_crash_recovers;
          Alcotest.test_case "commit-window crashes" `Quick test_exchange_commit_window_crashes;
          Alcotest.test_case "asymmetric link" `Quick test_asymmetric_link;
          Alcotest.test_case "crashes counted once" `Quick test_exchange_crashes_counted_once;
          Alcotest.test_case "retry timeout or backoff not positive rejected" `Quick
            test_exchange_retry_wait_not_positive;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "mobile re-anchors across bases" `Quick
            test_cluster_mobile_reanchors;
          Alcotest.test_case "aborted session retries elsewhere" `Quick
            test_cluster_aborted_session_retries_elsewhere;
          Alcotest.test_case "partitioned exchanges heal" `Quick
            test_cluster_partitioned_exchanges_heal;
        ] );
      ( "nemesis",
        [ Alcotest.test_case "fixed-seed sweep" `Quick test_mb_nemesis_fixed_sweep ]
        @ qsuite [ prop_mb_nemesis_convergence ] );
    ]
