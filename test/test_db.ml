(* Tests for the single-node engine: WAL bookkeeping, batch forcing,
   forwarded-update application, physical undo, checkpointing and crash
   recovery — plus the corruption-safe storage layer: the fault-injecting
   block device, the checksummed on-disk format, corruption-detecting
   recovery, and scrub/salvage. *)

open Repro_txn
open Repro_history
module Engine = Repro_db.Engine
module Wal = Repro_db.Wal
module Block = Repro_db.Block
module Scrub = Repro_db.Scrub
module Salvage = Repro_db.Salvage
module G = Test_support.Generators

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let check_state = Alcotest.check G.state

let inc name item delta =
  Program.make ~name [ Stmt.Update (item, Expr.Add (Expr.Item item, Expr.Const delta)) ]

let s0 = State.of_list [ ("a", 10); ("b", 20); ("c", 30) ]

let test_execute_updates_state () =
  let e = Engine.create s0 in
  let r = Engine.execute e (inc "T1" "a" 5) in
  check_state "state advanced" (State.of_list [ ("a", 15); ("b", 20); ("c", 30) ]) (Engine.state e);
  checki "one commit" 1 (Engine.transactions_committed e);
  checkb "record reflects run" true
    (Item.Set.equal (Interp.dynamic_writeset r) (Item.Set.of_names [ "a" ]))

let test_wal_structure () =
  let e = Engine.create s0 in
  ignore (Engine.execute e (inc "T1" "a" 5));
  let entries = Wal.entries (Engine.log e) in
  let kinds =
    List.map
      (function
        | Wal.Checkpoint _ -> "ckpt"
        | Wal.Begin _ -> "begin"
        | Wal.Read _ -> "read"
        | Wal.Write _ -> "write"
        | Wal.Commit _ -> "commit"
        | Wal.Abort _ -> "abort"
        | Wal.Session _ -> "session")
      entries
  in
  Alcotest.check (Alcotest.list Alcotest.string) "log structure"
    [ "ckpt"; "begin"; "read"; "write"; "commit" ] kinds

let test_batch_forces_once () =
  let e = Engine.create s0 in
  let before = Wal.force_count (Engine.log e) in
  let entries =
    List.map
      (fun p -> { History.program = p; History.fix = Fix.empty })
      [ inc "T1" "a" 1; inc "T2" "b" 1; inc "T3" "c" 1 ]
  in
  ignore (Engine.execute_batch e entries);
  checki "single force for the batch" 1 (Wal.force_count (Engine.log e) - before);
  check_state "all applied" (State.of_list [ ("a", 11); ("b", 21); ("c", 31) ]) (Engine.state e)

let test_apply_updates () =
  let e = Engine.create s0 in
  let before = Wal.force_count (Engine.log e) in
  let values = State.of_list [ ("a", 100); ("c", 300); ("ignored", 9) ] in
  Engine.apply_updates e values (Item.Set.of_names [ "a"; "c" ]);
  check_state "forwarded" (State.of_list [ ("a", 100); ("b", 20); ("c", 300) ]) (Engine.state e);
  checki "one force" 1 (Wal.force_count (Engine.log e) - before)

(* [apply_updates] against the get-then-set loop it replaced: the same
   log entries after the creation checkpoint (one [Write] per item, in
   item order, with the engine's before-image and [values]' value) and
   the same bindings. States bind explicit zeros, and items "g" and "h"
   are bound in neither. *)
let prop_apply_updates_matches_get_then_set =
  let binding x =
    QCheck.Gen.(map (Option.map (fun v -> (x, v))) (opt ~ratio:0.7 (int_range (-2) 2)))
  in
  let state_gen =
    QCheck.Gen.(
      map
        (fun bs -> State.of_list (List.filter_map Fun.id bs))
        (flatten_l (List.map binding [ "a"; "b"; "c"; "d"; "e"; "f" ])))
  in
  let items_gen =
    QCheck.Gen.(
      map Item.Set.of_list
        (list_size (int_range 0 8) (oneofl [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ])))
  in
  QCheck.Test.make ~count:1000 ~name:"apply_updates = get-then-set reference"
    (QCheck.make
       ~print:(fun ((s, v), items) ->
         Format.asprintf "%a / %a / %a" State.pp s State.pp v Item.Set.pp items)
       QCheck.Gen.(pair (pair state_gen state_gen) items_gen))
    (fun ((s, values), items) ->
      let e = Engine.create s in
      ignore (Engine.execute e (inc "T1" "a" 1));
      let pre = Engine.state e and txid = Engine.next_txid e in
      let skip = List.length (Wal.entries (Engine.log e)) in
      Engine.apply_updates e values items;
      let writes, expected =
        Item.Set.fold
          (fun x (ws, st) ->
            let before = State.get st x and after = State.get values x in
            (Wal.Write (txid, x, before, after) :: ws, State.set st x after))
          items ([], pre)
      in
      let logged = List.filteri (fun i _ -> i >= skip) (Wal.entries (Engine.log e)) in
      logged = (Wal.Begin txid :: List.rev writes) @ [ Wal.Commit txid ]
      && State.to_list (Engine.state e) = State.to_list expected)

let test_undo_restores_before_images () =
  let e = Engine.create s0 in
  let r = Engine.execute e (inc "T1" "a" 5) in
  ignore (Engine.execute e (inc "T2" "b" 7));
  Engine.undo e r;
  check_state "a restored, b kept" (State.of_list [ ("a", 10); ("b", 27); ("c", 30) ])
    (Engine.state e)

let test_recovery_drops_unforced () =
  let e = Engine.create s0 in
  ignore (Engine.execute e (inc "T1" "a" 5));
  ignore (Engine.execute ~durably:false e (inc "T2" "b" 7));
  check_state "live state has both" (State.of_list [ ("a", 15); ("b", 27); ("c", 30) ])
    (Engine.state e);
  check_state "recovery drops the unforced commit"
    (State.of_list [ ("a", 15); ("b", 20); ("c", 30) ])
    (Engine.recover e)

let test_torn_batch_lost_atomically () =
  (* A crash between execute_batch's commits and its single force must
     lose the whole batch: no prefix of it survives recovery. *)
  let e = Engine.create s0 in
  ignore (Engine.execute e (inc "T0" "a" 5));
  let entries =
    List.map
      (fun p -> { History.program = p; History.fix = Fix.empty })
      [ inc "T1" "a" 1; inc "T2" "b" 1; inc "T3" "c" 1 ]
  in
  ignore (Engine.execute_batch ~force:false e entries);
  check_state "live state has the batch" (State.of_list [ ("a", 16); ("b", 21); ("c", 31) ])
    (Engine.state e);
  ignore (Engine.crash_restart e : Wal.recovery);
  check_state "the whole batch vanished" (State.of_list [ ("a", 15); ("b", 20); ("c", 30) ])
    (Engine.state e);
  (* the restarted engine keeps working, and new commits are durable *)
  ignore (Engine.execute e (inc "T4" "b" 2));
  check_state "post-restart commit durable" (Engine.state e) (Engine.recover e)

let test_session_journal_commit_group () =
  (* A session marker inside an unforced commit group is durable exactly
     when the group's effects are. *)
  let e = Engine.create s0 in
  ignore (Engine.execute ~durably:false e (inc "T1" "a" 1));
  Engine.journal e ~session:7 "applied 1 1";
  checkb "marker not durable before force" true (Engine.session_journal e = []);
  ignore (Engine.crash_restart e : Wal.recovery);
  checkb "crash loses marker and effects together" true
    (Engine.session_journal e = [] && State.equal s0 (Engine.state e));
  ignore (Engine.execute ~durably:false e (inc "T2" "a" 1));
  Engine.journal e ~session:7 "applied 2 2";
  Engine.force e;
  ignore (Engine.crash_restart e : Wal.recovery);
  checkb "after the force both survive" true
    (Engine.session_journal e = [ (7, "applied 2 2") ]
    && State.equal (State.of_list [ ("a", 11); ("b", 20); ("c", 30) ]) (Engine.state e))

let test_rewind_txns () =
  let e = Engine.create s0 in
  ignore (Engine.execute e (inc "T1" "a" 5));
  let first = Engine.next_txid e in
  ignore (Engine.execute e (inc "T2" "b" 7));
  ignore (Engine.execute e (inc "T3" "a" 2));
  let last = Engine.next_txid e - 1 in
  check_state "rewind unapplies the range"
    (State.of_list [ ("a", 15); ("b", 20); ("c", 30) ])
    (Engine.rewind_txns e ~first ~last);
  check_state "empty range is the current state" (Engine.state e)
    (Engine.rewind_txns e ~first ~last:(first - 1))

let test_recovery_after_checkpoint () =
  let e = Engine.create s0 in
  ignore (Engine.execute e (inc "T1" "a" 5));
  Engine.checkpoint e;
  ignore (Engine.execute e (inc "T2" "b" 7));
  check_state "checkpoint + redo" (Engine.state e) (Engine.recover e)

let prop_recovery_equals_state_when_forced =
  QCheck.Test.make ~count:200 ~name:"recovery = live state when every commit is forced"
    (QCheck.pair (QCheck.make G.state_gen) (QCheck.make (G.history_gen ~length:6)))
    (fun (s0, h) ->
      let e = Engine.create s0 in
      List.iter (fun p -> ignore (Engine.execute e p)) (History.programs h);
      State.equal (Engine.state e) (Engine.recover e))

let prop_engine_matches_interpreter =
  QCheck.Test.make ~count:200 ~name:"engine serial execution = interpreter fold"
    (QCheck.pair (QCheck.make G.state_gen) (QCheck.make (G.history_gen ~length:6)))
    (fun (s0, h) ->
      let e = Engine.create s0 in
      List.iter (fun p -> ignore (Engine.execute e p)) (History.programs h);
      State.equal (Engine.state e) (History.final_state s0 h))

let prop_undo_inverts_last =
  QCheck.Test.make ~count:200 ~name:"undo of the latest transaction restores the prior state"
    (QCheck.pair (QCheck.make G.state_gen) (QCheck.make (G.program_gen ~name:"P")))
    (fun (s0, p) ->
      let e = Engine.create s0 in
      let r = Engine.execute e p in
      Engine.undo e r;
      State.equal s0 (Engine.state e))

(* [commit] of a record interpreted on the engine's own state leaves
   exactly what [execute] of its program leaves: the same log, durable
   prefix, forces, state and transaction counters. *)
let prop_commit_matches_execute =
  QCheck.Test.make ~count:200 ~name:"commit of an interpreted record = execute"
    (QCheck.triple (QCheck.make G.state_gen) (QCheck.make (G.history_gen ~length:6)) QCheck.bool)
    (fun (s0, h, durably) ->
      let a = Engine.create s0 and b = Engine.create s0 in
      List.iter
        (fun p ->
          ignore (Engine.execute ~durably a p);
          Engine.commit ~durably b (Interp.run (Engine.state b) p))
        (History.programs h);
      let same f = List.equal Wal.entry_equal (f (Engine.log a)) (f (Engine.log b)) in
      same Wal.entries && same Wal.durable_entries
      && Wal.force_count (Engine.log a) = Wal.force_count (Engine.log b)
      && State.equal (Engine.state a) (Engine.state b)
      && Engine.next_txid a = Engine.next_txid b
      && Engine.transactions_committed a = Engine.transactions_committed b)

(* A record computed on any state but the engine's current one is
   refused before anything is logged, even when that state is equal. *)
let test_commit_refuses_stale_record () =
  let refused =
    Invalid_argument "Engine.commit: record was not computed on the engine's current state"
  in
  let e = Engine.create s0 in
  let stale = Interp.run (Engine.state e) (inc "T1" "a" 5) in
  ignore (Engine.execute e (inc "T2" "b" 7));
  let wal_before = Wal.length (Engine.log e) in
  Alcotest.check_raises "stale record" refused (fun () -> Engine.commit e stale);
  let copy = Interp.run (State.of_list (State.to_list (Engine.state e))) (inc "T3" "a" 1) in
  Alcotest.check_raises "equal but distinct state" refused (fun () -> Engine.commit e copy);
  checki "nothing logged" wal_before (Wal.length (Engine.log e));
  checki "no txid spent" 2 (Engine.next_txid e);
  checki "one commit" 1 (Engine.transactions_committed e);
  check_state "state untouched" (State.of_list [ ("a", 10); ("b", 27); ("c", 30) ]) (Engine.state e)

let test_wal_durability_bookkeeping () =
  let w = Wal.create () in
  Wal.append w (Wal.Begin 1);
  Wal.append w (Wal.Commit 1);
  checki "nothing durable before force" 0 (List.length (Wal.durable_entries w));
  Wal.force w;
  checki "force count" 1 (Wal.force_count w);
  checki "both durable" 2 (List.length (Wal.durable_entries w));
  Wal.append w (Wal.Begin 2);
  checki "tail not durable" 2 (List.length (Wal.durable_entries w));
  checki "length counts tail" 3 (Wal.length w);
  (* idempotent force: no new durability point when nothing was appended *)
  Wal.force w;
  Wal.force w;
  checki "force idempotent on empty tail" 2 (Wal.force_count w)

let test_undo_is_logged_and_recoverable () =
  let e = Engine.create s0 in
  let r = Engine.execute e (inc "T1" "a" 5) in
  Engine.undo e r;
  check_state "undo recovers too" (Engine.state e) (Engine.recover e)

(* ------------------------------------------------------------------ *)
(* Block device: the fault-injecting disk                             *)
(* ------------------------------------------------------------------ *)

let is_string_prefix s full =
  String.length s <= String.length full && String.equal s (String.sub full 0 (String.length s))

let test_block_faithful_roundtrip () =
  let d = Block.create Block.faithful in
  Block.append d "hello\n";
  checki "volatile until sync" 0 (Block.durable_length d);
  Block.sync d;
  checkb "synced bytes durable" true (String.equal (Block.durable_contents d) "hello\n");
  Block.append d "tail\n";
  Block.crash d;
  checkb "unsynced tail lost whole" true (String.equal (Block.contents d) "hello\n");
  checkb "read is faithful" true (String.equal (Block.read d) "hello\n")

let test_block_scripted_fsync_lie () =
  let d = Block.create { Block.faithful with Block.fsync_lies = [ 2 ] } in
  Block.append d "a\n";
  Block.sync d;
  (* sync #2 lies: acknowledged, but the durable mark must not move *)
  Block.append d "b\n";
  Block.sync d;
  checki "lie counted" 1 (Block.stats d).Block.lies_told;
  checki "durable mark did not advance" 2 (Block.durable_length d);
  Block.crash d;
  checkb "acknowledged write gone after the crash" true (String.equal (Block.contents d) "a\n");
  (* a later honest sync hardens everything that is still there *)
  Block.append d "c\n";
  Block.sync d;
  checki "honest sync recovers durability" 4 (Block.durable_length d)

let test_block_short_write () =
  let d = Block.create ~seed:5 { Block.faithful with Block.short_write_rate = 1.0 } in
  Block.append d "0123456789";
  checkb "only a prefix persisted" true (Block.length d < 10);
  checkb "what persisted is a prefix" true (is_string_prefix (Block.contents d) "0123456789");
  checki "short write counted" 1 (Block.stats d).Block.short_writes

let test_block_torn_crash () =
  let d = Block.create ~seed:7 { Block.faithful with Block.torn_write_rate = 1.0 } in
  Block.append d "base\n";
  Block.sync d;
  Block.append d "0123456789";
  let pre = Block.contents d in
  Block.crash d;
  let c = Block.contents d in
  checki "torn crash counted" 1 (Block.stats d).Block.torn_crashes;
  checkb "a nonempty prefix of the tail survived" true (String.length c > 5);
  checkb "the medium is a prefix of what was written" true (is_string_prefix c pre)

let test_block_read_faults_leave_medium () =
  let d = Block.create ~seed:11 { Block.faithful with Block.bitflip_rate = 1.0 } in
  Block.append d "a quick brown fox\n";
  Block.sync d;
  let faithful = Block.contents d in
  let snap = Block.read d in
  checkb "the snapshot was damaged" false (String.equal snap faithful);
  checkb "the medium itself is untouched" true (String.equal (Block.contents d) faithful);
  checkb "read fault counted" true ((Block.stats d).Block.read_faults > 0)

let test_block_deterministic () =
  let run () =
    let d =
      Block.create ~seed:3
        {
          Block.faithful with
          Block.short_write_rate = 0.5;
          bitflip_rate = 0.5;
          truncate_read_rate = 0.5;
          fsync_lie_rate = 0.5;
          torn_write_rate = 0.5;
        }
    in
    for i = 0 to 9 do
      Block.append d (Printf.sprintf "line %d\n" i);
      if i mod 3 = 0 then Block.sync d
    done;
    let r1 = Block.read d in
    Block.crash d;
    (r1, Block.read d, Block.contents d, Block.stats d)
  in
  checkb "same seed, same fault trace" true (run () = run ())

let test_block_truncate () =
  let d = Block.create Block.faithful in
  Block.append d "abcdef";
  Block.sync d;
  Block.truncate d 3;
  checkb "bytes discarded" true (String.equal (Block.contents d) "abc");
  checki "rest marked durable" 3 (Block.durable_length d);
  Block.truncate d 100;
  checkb "past-the-end truncate is a no-op" true (String.equal (Block.contents d) "abc")

(* ------------------------------------------------------------------ *)
(* On-disk format v2: verified decoding                               *)
(* ------------------------------------------------------------------ *)

(* Craft a log image by hand: header, checksummed records, one barrier
   covering all entries. *)
let image_of_payloads payloads =
  let buf = Buffer.create 128 in
  Buffer.add_string buf Wal.format_header;
  Buffer.add_char buf '\n';
  List.iteri
    (fun seq payload ->
      Buffer.add_string buf (Wal.record_line ~seq payload);
      Buffer.add_char buf '\n')
    payloads;
  Buffer.contents buf

(* The v2 image of [entries] with a barrier record after each coverage
   point in [barriers] (oldest first): the layout the legacy writer
   produced. *)
let v2_image ~entries ~barriers =
  let rec lines count entries barriers =
    match (barriers, entries) with
    | b :: rest, _ when b = count -> Printf.sprintf "barrier %d" b :: lines count entries rest
    | _, [] -> []
    | _, e :: es -> Wal.entry_to_line e :: lines (count + 1) es barriers
  in
  image_of_payloads (lines 0 entries barriers)

let image_of_entries entries = v2_image ~entries ~barriers:[ List.length entries ]

let expect_decode raw =
  match Wal.decode raw with Ok d -> d | Error msg -> Alcotest.failf "decode failed: %s" msg

let rec entries_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | _ :: _, [] -> false
  | x :: xs', y :: ys' -> Wal.entry_equal x y && entries_prefix xs' ys'

let test_decode_empty_image () =
  let d = expect_decode "" in
  checkb "no entries" true (d.Wal.d_entries = []);
  checkb "empty decodes as a torn-but-lossless tail" true (d.Wal.d_verdict = Wal.Torn_tail 0)

let test_decode_clean_image () =
  let entries = [ Wal.Begin 1; Wal.Write (1, "a", 10, 15); Wal.Commit 1 ] in
  let d = expect_decode (image_of_entries entries) in
  checkb "clean" true (d.Wal.d_verdict = Wal.Clean);
  checkb "all entries surfaced" true
    (List.length d.Wal.d_entries = 3 && entries_prefix d.Wal.d_entries entries);
  checki "nothing dropped" 0 d.Wal.d_dropped

let test_decode_respects_barrier_coverage () =
  (* Valid entries beyond the last valid barrier are NOT durable: a force's
     records and its barrier harden together. *)
  let p1 = [ Wal.entry_to_line (Wal.Begin 1); Wal.entry_to_line (Wal.Commit 1); "barrier 2" ] in
  let p2 = [ Wal.entry_to_line (Wal.Begin 2); Wal.entry_to_line (Wal.Abort 2); "barrier 4" ] in
  let raw = image_of_payloads (p1 @ p2) in
  (* cut into the second barrier record: the whole second group must drop *)
  let torn = String.sub raw 0 (String.length raw - 4) in
  let d = expect_decode torn in
  (match d.Wal.d_verdict with
  | Wal.Torn_tail n -> checki "three record lines discarded" 3 n
  | v -> Alcotest.failf "want torn tail, got %s" (Format.asprintf "%a" Wal.pp_verdict v));
  checkb "only the first barrier's entries survive" true
    (List.length d.Wal.d_entries = 2
    && entries_prefix d.Wal.d_entries [ Wal.Begin 1; Wal.Commit 1 ]);
  checkb "the cut transaction is reported lost" true (List.mem 2 d.Wal.d_lost_txids)

let test_decode_duplicate_sequence () =
  (* A replayed/duplicated record carries a stale sequence number; with a
     self-valid record after it this is interior damage, not a torn tail. *)
  let raw =
    String.concat "\n"
      [
        Wal.format_header;
        Wal.record_line ~seq:0 (Wal.entry_to_line (Wal.Begin 1));
        Wal.record_line ~seq:0 (Wal.entry_to_line (Wal.Begin 1));
        Wal.record_line ~seq:2 (Wal.entry_to_line (Wal.Commit 1));
        "";
      ]
  in
  match (expect_decode raw).Wal.d_verdict with
  | Wal.Corrupt { seq; reason } ->
    checki "damage located at the duplicate" 1 seq;
    checkb "classified as a sequence error" true
      (String.length reason >= 8 && String.sub reason 0 8 = "sequence")
  | v -> Alcotest.failf "want corrupt, got %s" (Format.asprintf "%a" Wal.pp_verdict v)

let test_decode_interior_flip_is_corrupt () =
  let entries = [ Wal.Begin 1; Wal.Commit 1; Wal.Begin 2; Wal.Commit 2 ] in
  let raw = image_of_entries entries in
  (* flip one payload character of the first record; later records stay
     valid, so this must classify as interior corruption *)
  let b = Bytes.of_string raw in
  let pos = String.length Wal.format_header + 1 + String.length (Wal.record_line ~seq:0 "") in
  Bytes.set b pos (if Bytes.get b pos = 'x' then 'y' else 'x');
  let d = expect_decode (Bytes.to_string b) in
  (match d.Wal.d_verdict with
  | Wal.Corrupt { seq = 0; _ } -> ()
  | v -> Alcotest.failf "want corrupt at record 0, got %s" (Format.asprintf "%a" Wal.pp_verdict v));
  checkb "nothing surfaced past the damage" true (d.Wal.d_entries = [])

let test_decode_mid_record_tear () =
  let entries = [ Wal.Begin 1; Wal.Commit 1 ] in
  let raw = image_of_entries entries in
  (* drop the trailing newline and a few bytes: the only barrier is cut,
     so nothing is covered and every record line counts as dropped *)
  let torn = String.sub raw 0 (String.length raw - 3) in
  let d = expect_decode torn in
  (match d.Wal.d_verdict with
  | Wal.Torn_tail 3 -> ()
  | v -> Alcotest.failf "want torn tail 3, got %s" (Format.asprintf "%a" Wal.pp_verdict v));
  checkb "uncovered entries not surfaced" true (d.Wal.d_entries = [])

let test_decode_torn_header () =
  (* a torn write of the header line itself is an empty log, not garbage *)
  let d = expect_decode (String.sub Wal.format_header 0 6) in
  checkb "torn header is an empty log" true
    (d.Wal.d_entries = [] && d.Wal.d_verdict = Wal.Torn_tail 1);
  match Wal.decode "definitely not a wal\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an unrecognizable-header error"

let test_decode_bad_barrier_coverage () =
  let raw =
    image_of_payloads [ Wal.entry_to_line (Wal.Begin 1); "barrier 5" ]
  in
  let d = expect_decode raw in
  checkb "over-claiming barrier rejected" true
    (match d.Wal.d_verdict with Wal.Torn_tail _ | Wal.Corrupt _ -> true | Wal.Clean -> false);
  checkb "its entries are not durable" true (d.Wal.d_entries = [])

(* ------------------------------------------------------------------ *)
(* Device-backed recovery through Engine/Wal.reload                   *)
(* ------------------------------------------------------------------ *)

let test_engine_device_clean_recovery () =
  let dev = Block.create Block.faithful in
  let e = Engine.create ~device:dev s0 in
  ignore (Engine.execute e (inc "T1" "a" 5));
  ignore (Engine.execute ~durably:false e (inc "T2" "b" 7));
  let r = Engine.crash_restart e in
  checkb "clean verdict" true (r.Wal.verdict = Wal.Clean);
  checki "no durable loss" 0 r.Wal.lost_durable;
  check_state "forced commit survived, unforced did not"
    (State.of_list [ ("a", 15); ("b", 20); ("c", 30) ])
    (Engine.state e);
  (* the reloaded engine keeps writing through the same device *)
  ignore (Engine.execute e (inc "T3" "c" 1));
  let r2 = Engine.crash_restart e in
  checkb "still clean after more traffic" true (r2.Wal.verdict = Wal.Clean && r2.Wal.lost_durable = 0);
  checki "post-restart commit durable" 31 (State.get (Engine.state e) "c")

let test_engine_device_fsync_lie_detected () =
  (* Syncs: attach #1, initial checkpoint force #2, T1's force #3 (lies).
     The crash then eats T1 wholesale — a Clean-looking log — and the
     believed-durable counter is what exposes the loss. *)
  let dev = Block.create { Block.faithful with Block.fsync_lies = [ 3 ] } in
  let e = Engine.create ~device:dev s0 in
  ignore (Engine.execute e (inc "T1" "a" 5));
  let r = Engine.crash_restart e in
  checkb "verdict alone cannot see a lie" true (r.Wal.verdict = Wal.Clean);
  checki "but the believed-durable gap can: begin+read+write+commit lost" 4 r.Wal.lost_durable;
  check_state "state rolled back to the last honest sync" s0 (Engine.state e)

let test_engine_device_torn_force_recovers_prefix () =
  (* A lying sync leaves the force's records in the page cache; a torn
     crash then keeps a partial prefix of them. Recovery must classify
     the tear, drop the partial group, and report the loss. *)
  let dev =
    Block.create ~seed:13
      { Block.faithful with Block.fsync_lies = [ 3 ]; Block.torn_write_rate = 1.0 }
  in
  let e = Engine.create ~device:dev s0 in
  ignore (Engine.execute e (inc "T1" "a" 5));
  let r = Engine.crash_restart e in
  checkb "loss detected" true (r.Wal.lost_durable = 4);
  checkb "not silently clean with bytes torn mid-group" true
    (match r.Wal.verdict with
    | Wal.Torn_tail _ -> true
    | Wal.Clean -> (Block.stats dev).Block.torn_crashes = 0
    | Wal.Corrupt _ -> false);
  check_state "half a commit group never surfaces" s0 (Engine.state e);
  (* the truncated device now reads back clean *)
  checkb "medium scrubs clean after recovery truncation" true
    (Scrub.is_clean (Scrub.of_string (Block.contents dev)))

let test_engine_device_empty_recovery_keeps_later_commits () =
  (* Syncs #1 (attach) and #2 (initial checkpoint force) lie, so the
     crash leaves an empty medium. Recovery must write the log header
     again: without it every later force appends frames that no reload
     can find, and every later commit is lost. *)
  let dev = Block.create { Block.faithful with Block.fsync_lies = [ 1; 2 ] } in
  let e = Engine.create ~device:dev s0 in
  let r = Engine.crash_restart e in
  checki "the checkpoint's loss is reported" 1 r.Wal.lost_durable;
  Engine.apply_updates e (State.of_list [ ("a", 42) ]) (Item.Set.of_names [ "a" ]);
  let r2 = Engine.crash_restart e in
  checkb "clean after an honest commit" true (r2.Wal.verdict = Wal.Clean);
  checki "no durable loss" 0 r2.Wal.lost_durable;
  checki "the commit survived" 42 (State.get (Engine.state e) "a")

(* ------------------------------------------------------------------ *)
(* Scrub / salvage                                                    *)
(* ------------------------------------------------------------------ *)

let test_scrub_reports () =
  let entries = [ Wal.Begin 1; Wal.Commit 1 ] in
  let raw = image_of_entries entries in
  let clean = Scrub.of_string raw in
  checkb "clean image is clean" true (Scrub.is_clean clean);
  checki "entries counted" 2 clean.Scrub.entries;
  checki "barriers counted" 1 clean.Scrub.barriers;
  let damaged = Scrub.of_string (String.sub raw 0 (String.length raw - 2)) in
  checkb "torn image is not clean" false (Scrub.is_clean damaged);
  let garbage = Scrub.of_string "???\n" in
  checkb "garbage reports corrupt instead of raising" true
    (match garbage.Scrub.verdict with Wal.Corrupt _ -> true | _ -> false)

let test_salvage_identity_on_clean () =
  let raw = image_of_entries [ Wal.Begin 1; Wal.Write (1, "a", 0, 1); Wal.Commit 1 ] in
  let o = Salvage.of_string raw in
  checkb "salvaging an undamaged log is the identity" true (String.equal o.Salvage.output raw);
  checki "nothing dropped" 0 o.Salvage.dropped

let test_salvage_recovers_longest_valid_prefix () =
  let p1 = [ Wal.entry_to_line (Wal.Begin 1); Wal.entry_to_line (Wal.Commit 1); "barrier 2" ] in
  let p2 = [ Wal.entry_to_line (Wal.Begin 2); Wal.entry_to_line (Wal.Commit 2); "barrier 4" ] in
  let raw = image_of_payloads (p1 @ p2) in
  let torn = String.sub raw 0 (String.length raw - 5) in
  let o = Salvage.of_string torn in
  checkb "output is the verified byte prefix" true (is_string_prefix o.Salvage.output torn);
  checki "first group recovered" 2 (List.length o.Salvage.entries);
  checkb "lost transaction identified" true (List.mem 2 o.Salvage.lost_txids);
  checkb "salvaged image scrubs clean" true (Scrub.is_clean (Scrub.of_string o.Salvage.output));
  (* headerless garbage salvages to a fresh empty log in the default
     (v3) format *)
  let o2 = Salvage.of_string "???" in
  checkb "no header: fresh empty log" true
    (String.equal o2.Salvage.output (Wal.format_header_v3 ^ "\n"))

(* ------------------------------------------------------------------ *)
(* Typed line-codec errors                                            *)
(* ------------------------------------------------------------------ *)

let test_entry_of_line_typed_errors () =
  let expect line pred name =
    match Wal.entry_of_line line with
    | Ok _ -> Alcotest.failf "%s: expected a parse error for %S" name line
    | Error e -> checkb name true (pred e)
  in
  expect "frob 1" (function Wal.Unknown_record _ -> true | _ -> false) "unknown record";
  expect "begin zz"
    (function Wal.Bad_int { field = "begin txid"; value = "zz" } -> true | _ -> false)
    "bad begin txid";
  expect "begin 0x10" (function Wal.Bad_int _ -> true | _ -> false) "no hex literals";
  expect "begin 99999999999999999999999"
    (function Wal.Bad_int _ -> true | _ -> false)
    "overflow rejected";
  expect "read 1 a 1 2" (function Wal.Unknown_record _ -> true | _ -> false) "arity enforced";
  expect "write 1 a 0 nope"
    (function Wal.Bad_int { field = "write after-image"; _ } -> true | _ -> false)
    "bad after-image";
  expect "checkpoint a=1,b=x" (function Wal.Bad_state "b=x" -> true | _ -> false) "bad binding";
  expect "checkpoint =1,a=2" (function Wal.Bad_state _ -> true | _ -> false) "empty item name";
  checkb "messages render" true
    (String.length (Wal.string_of_parse_error (Wal.Bad_item "a b")) > 0)

(* ------------------------------------------------------------------ *)
(* Format properties                                                  *)
(* ------------------------------------------------------------------ *)

let entry_gen =
  let open QCheck.Gen in
  let item = oneofl [ "a"; "b"; "c"; "d" ] in
  let id = map (fun n -> n mod 1000) nat in
  let v = map (fun n -> (n mod 2001) - 1000) nat in
  oneof
    [
      map (fun i -> Wal.Begin i) id;
      map3 (fun i x value -> Wal.Read (i, x, value)) id item v;
      map (fun ((i, x), (b, a)) -> Wal.Write (i, x, b, a)) (pair (pair id item) (pair v v));
      map (fun i -> Wal.Commit i) id;
      map (fun i -> Wal.Abort i) id;
      map (fun s -> Wal.Checkpoint s) G.state_gen;
      map2
        (fun i (a, b) -> Wal.Session (i, Printf.sprintf "applied %d %d" a b))
        id (pair small_nat small_nat);
    ]

let prop_entry_line_roundtrip =
  QCheck.Test.make ~count:300 ~name:"entry_to_line / entry_of_line roundtrip"
    (QCheck.make entry_gen)
    (fun e ->
      match Wal.entry_of_line (Wal.entry_to_line e) with
      | Ok e' -> Wal.entry_equal e e'
      | Error err -> QCheck.Test.fail_report (Wal.string_of_parse_error err))

let prop_mutation_never_silent =
  (* Flip any single byte of a valid image to any character: decoding must
     either reject the image or surface a strict structural prefix of the
     original entries — never different data. *)
  QCheck.Test.make ~count:500 ~name:"one-byte mutation: decode rejects or yields a prefix"
    (QCheck.triple
       (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 1 8) entry_gen))
       QCheck.small_nat QCheck.small_nat)
    (fun (entries, pos, repl) ->
      let raw = image_of_entries entries in
      let b = Bytes.of_string raw in
      let pos = pos mod Bytes.length b in
      Bytes.set b pos (Char.chr (32 + (repl mod 95)));
      match Wal.decode (Bytes.to_string b) with
      | Error _ -> true
      | Ok d -> entries_prefix d.Wal.d_entries entries)

let prop_durable_image_decodes_clean =
  (* Whatever the engine forces through a faithful device always reads
     back Clean and surfaces exactly the durable entries. *)
  QCheck.Test.make ~count:100 ~name:"forced image decodes clean to the durable entries"
    (QCheck.pair (QCheck.make G.state_gen) (QCheck.make (G.history_gen ~length:5)))
    (fun (s0, h) ->
      let dev = Block.create Block.faithful in
      let e = Engine.create ~device:dev s0 in
      List.iter (fun p -> ignore (Engine.execute e p)) (History.programs h);
      match Wal.decode (Block.contents dev) with
      | Error _ -> false
      | Ok d ->
        d.Wal.d_verdict = Wal.Clean
        && List.length d.Wal.d_entries = List.length (Wal.durable_entries (Engine.log e))
        && entries_prefix d.Wal.d_entries (Wal.durable_entries (Engine.log e)))

(* persistence *)

let with_temp_file f =
  let path = Filename.temp_file "repro_wal" ".log" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_wal_line_roundtrip () =
  let entries =
    [
      Wal.Begin 4;
      Wal.Read (4, "a", -7);
      Wal.Write (4, "b", 2, 9);
      Wal.Commit 4;
      Wal.Abort 5;
      Wal.Checkpoint (State.of_list [ ("a", 1); ("b", -2) ]);
    ]
  in
  List.iter
    (fun e ->
      match Wal.entry_of_line (Wal.entry_to_line e) with
      | Ok e' -> checkb "roundtrip" true (e = e')
      | Error err -> Alcotest.fail (Wal.string_of_parse_error err))
    entries;
  (match Wal.entry_of_line "write nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected malformed-line error");
  Alcotest.check_raises "unserializable item name"
    (Invalid_argument "Wal: item name \"a b\" not serializable") (fun () ->
      ignore (Wal.entry_to_line (Wal.Read (1, "a b", 0))))

let test_persist_restart_roundtrip () =
  with_temp_file (fun path ->
      let e = Engine.create s0 in
      ignore (Engine.execute e (inc "T1" "a" 5));
      ignore (Engine.execute e (inc "T2" "b" 7));
      (* the tail after the last force must NOT survive *)
      ignore (Engine.execute ~durably:false e (inc "T3" "c" 9));
      Engine.persist e ~path;
      match Engine.restart ~path with
      | Error msg -> Alcotest.fail msg
      | Ok (e', verdict) ->
        checkb "undamaged file restarts clean" true (verdict = Wal.Clean);
        check_state "restart = recover" (Engine.recover e) (Engine.state e');
        check_state "durable effects present"
          (State.of_list [ ("a", 15); ("b", 27); ("c", 30) ])
          (Engine.state e');
        (* the restarted engine keeps working *)
        ignore (Engine.execute e' (inc "T4" "c" 1));
        checki "keeps executing" 31 (State.get (Engine.state e') "c"))

let test_restart_rejects_garbage () =
  with_temp_file (fun path ->
      Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc "nonsense\n");
      match Engine.restart ~path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "expected an error")

let test_restart_empty_file () =
  with_temp_file (fun path ->
      Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc "");
      match Wal.load ~path with
      | Error msg -> Alcotest.fail msg
      | Ok (entries, verdict) ->
        checkb "an empty file is an empty log" true
          (entries = [] && verdict = Wal.Torn_tail 0))

let test_load_reports_torn_file () =
  with_temp_file (fun path ->
      let e = Engine.create s0 in
      ignore (Engine.execute e (inc "T1" "a" 5));
      Engine.persist e ~path;
      let raw = In_channel.with_open_text path In_channel.input_all in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (String.sub raw 0 (String.length raw - 4)));
      match Wal.load ~path with
      | Error msg -> Alcotest.fail msg
      | Ok (entries, verdict) ->
        checkb "tear reported" true (match verdict with Wal.Torn_tail _ -> true | _ -> false);
        checkb "only barrier-covered entries load" true
          (List.length entries < Wal.length (Engine.log e)))

let prop_persist_restart_equals_live_state =
  QCheck.Test.make ~count:100 ~name:"persist + restart = live state (all commits forced)"
    (QCheck.pair (QCheck.make G.state_gen) (QCheck.make (G.history_gen ~length:5)))
    (fun (s0, h) ->
      with_temp_file (fun path ->
          let e = Engine.create s0 in
          List.iter (fun p -> ignore (Engine.execute e p)) (History.programs h);
          Engine.persist e ~path;
          match Engine.restart ~path with
          | Error _ -> false
          | Ok (e', verdict) -> verdict = Wal.Clean && State.equal (Engine.state e) (Engine.state e')))

(* ------------------------------------------------------------------ *)
(* v3 binary frames                                                   *)
(* ------------------------------------------------------------------ *)

let v3_header = Wal.format_header_v3 ^ "\n"

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1)) in
  go 0

let test_v3_roundtrip_hostile_values () =
  (* Binary frames carry what the v2 line codec must reject: names with
     separators, notes with newlines, extreme integers. *)
  let entries =
    [
      Wal.Begin max_int;
      Wal.Read (1, "a b=c,d", min_int);
      Wal.Write (2, "x\ny", -1, max_int);
      Wal.Commit 0;
      Wal.Abort 3;
      Wal.Session (4, "line one\nline two");
      Wal.Checkpoint (State.of_list [ ("k 1", -5); ("z", max_int) ]);
    ]
  in
  let raw = Wal.image_of ~entries ~barriers:[ List.length entries ] in
  match Wal.decode raw with
  | Error e -> Alcotest.fail e
  | Ok d ->
    checki "format detected" 3 d.Wal.d_format;
    checkb "clean" true (d.Wal.d_verdict = Wal.Clean);
    checkb "every value survives" true
      (List.length d.Wal.d_entries = List.length entries
      && List.for_all2 Wal.entry_equal entries d.Wal.d_entries)

let v3_two_groups =
  (* two commit groups: [Begin 1; Commit 1 | barrier] [Begin 2; Commit 2
     | barrier] — crafted frame by frame so the tests control exactly
     which bytes they damage *)
  String.concat ""
    [
      v3_header;
      Wal.frame ~seq:0 (`Entry (Wal.Begin 1));
      Wal.frame ~seq:1 (`Entry (Wal.Commit 1));
      Wal.frame ~seq:2 (`Barrier 2);
      Wal.frame ~seq:3 (`Entry (Wal.Begin 2));
      Wal.frame ~seq:4 (`Entry (Wal.Commit 2));
      Wal.frame ~seq:5 (`Barrier 4);
    ]

let test_v3_crafted_frames_decode () =
  let d = expect_decode v3_two_groups in
  checkb "clean two-group image" true
    (d.Wal.d_verdict = Wal.Clean
    && List.length d.Wal.d_entries = 4
    && d.Wal.d_barriers = [ 2; 4 ])

let test_v3_torn_frame () =
  (* cut inside the final barrier frame: the second group loses its
     coverage, so all of it counts as dropped — a torn tail *)
  let torn = String.sub v3_two_groups 0 (String.length v3_two_groups - 2) in
  let d = expect_decode torn in
  (match d.Wal.d_verdict with
  | Wal.Torn_tail 3 -> ()
  | v -> Alcotest.failf "want torn tail 3, got %s" (Format.asprintf "%a" Wal.pp_verdict v));
  checki "only the first group surfaces" 2 (List.length d.Wal.d_entries);
  checkb "lost transaction identified" true (d.Wal.d_lost_txids = [ 2 ])

let test_v3_interior_flip_resyncs () =
  (* flip the first frame's tag byte: its checksum fails, but the frames
     after it still verify at their offsets, so the reader
     resynchronizes and must classify interior corruption, not a tear *)
  let b = Bytes.of_string v3_two_groups in
  let pos = String.length v3_header + 8 (* first body byte of frame 0 *) in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
  let d = expect_decode (Bytes.to_string b) in
  (match d.Wal.d_verdict with
  | Wal.Corrupt { seq = 0; reason = "checksum mismatch" } -> ()
  | v -> Alcotest.failf "want corrupt at record 0, got %s" (Format.asprintf "%a" Wal.pp_verdict v));
  checkb "nothing before the damage is covered" true (d.Wal.d_entries = []);
  checkb "both txids recognizable beyond the damage" true (d.Wal.d_lost_txids = [ 1; 2 ])

let test_v3_bad_length_field () =
  (* corrupt the length prefix to an absurd value: framing must reject
     it without trusting the length, and resynchronization on the later
     intact frames still proves interior damage *)
  let b = Bytes.of_string v3_two_groups in
  Bytes.set b (String.length v3_header) '\xff';
  Bytes.set b (String.length v3_header + 3) '\xff';
  let d = expect_decode (Bytes.to_string b) in
  match d.Wal.d_verdict with
  | Wal.Corrupt { seq = 0; reason } ->
    checkb "framing error reported" true (is_string_prefix "bad frame length" reason)
  | v -> Alcotest.failf "want corrupt, got %s" (Format.asprintf "%a" Wal.pp_verdict v)

let test_v3_header_autodetect () =
  (* header-only image: an empty clean v3 log *)
  let d = expect_decode v3_header in
  checkb "header-only image is an empty clean log" true
    (d.Wal.d_format = 3 && d.Wal.d_entries = [] && d.Wal.d_verdict = Wal.Clean);
  (* a strict prefix of the header line is a torn header write *)
  let d2 = expect_decode "repro-wal " in
  checkb "torn header prefix is an empty log" true
    (d2.Wal.d_format = 3 && d2.Wal.d_entries = [] && d2.Wal.d_verdict = Wal.Torn_tail 1)

let prop_cross_format_equivalence =
  (* The two wire formats are semantically identical: the same entries
     and coverage points render to different bytes but decode back to
     the same log. This is the invariant wal-migrate's round-trip check
     rests on. *)
  QCheck.Test.make ~count:300 ~name:"v2 and v3 images decode to the same log"
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 0 10) entry_gen))
    (fun entries ->
      let n = List.length entries in
      let barriers = List.sort_uniq compare (List.filter (fun x -> x > 0) [ (n + 1) / 2; n ]) in
      let v2 = Wal.decode (v2_image ~entries ~barriers)
      and v3 = Wal.decode (Wal.image_of ~entries ~barriers) in
      match (v2, v3) with
      | Ok a, Ok b ->
        a.Wal.d_verdict = Wal.Clean && b.Wal.d_verdict = Wal.Clean
        && a.Wal.d_format = 2 && b.Wal.d_format = 3
        && List.length a.Wal.d_entries = List.length b.Wal.d_entries
        && List.for_all2 Wal.entry_equal a.Wal.d_entries b.Wal.d_entries
        && a.Wal.d_barriers = b.Wal.d_barriers
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Golden fixture corpus (test/support/fixtures, regenerated by       *)
(* tools/gen_wal_fixtures.ml)                                         *)
(* ------------------------------------------------------------------ *)

let fixture_entries =
  [
    Wal.Checkpoint (State.of_list [ ("a", 10); ("b", 20) ]);
    Wal.Begin 1;
    Wal.Write (1, "a", 10, 11);
    Wal.Commit 1;
    Wal.Session (7, "applied 2 2");
    Wal.Begin 2;
    Wal.Write (2, "b", 20, 25);
    Wal.Read (2, "a", 11);
    Wal.Commit 2;
  ]

let read_fixture name =
  let path = Filename.concat "support/fixtures" (name ^ ".wal") in
  In_channel.with_open_bin path In_channel.input_all

let test_fixture_corpus () =
  let check_one name ~fmt ~verdict ~entries ~records ~barriers ~dropped ~lost ~lost_txids =
    let d = expect_decode (read_fixture name) in
    let ctx what = Printf.sprintf "%s: %s" name what in
    checki (ctx "format") fmt d.Wal.d_format;
    (match (verdict, d.Wal.d_verdict) with
    | `Clean, Wal.Clean -> ()
    | `Torn n, Wal.Torn_tail m when n = m -> ()
    | `Corrupt s, Wal.Corrupt { seq; _ } when s = seq -> ()
    | _, v ->
      Alcotest.failf "%s: unexpected verdict %s" name (Format.asprintf "%a" Wal.pp_verdict v));
    checki (ctx "entries") entries (List.length d.Wal.d_entries);
    checkb (ctx "entries are a prefix of the generator's") true
      (entries_prefix d.Wal.d_entries fixture_entries);
    checki (ctx "records") records d.Wal.d_records;
    checkb (ctx "barriers") true (d.Wal.d_barriers = barriers);
    checki (ctx "dropped") dropped d.Wal.d_dropped;
    checki (ctx "lost entries") lost d.Wal.d_lost_entries;
    checkb (ctx "lost txids") true (d.Wal.d_lost_txids = lost_txids)
  in
  List.iter
    (fun (prefix, fmt) ->
      check_one (prefix ^ "-clean") ~fmt ~verdict:`Clean ~entries:9 ~records:12
        ~barriers:[ 1; 4; 9 ] ~dropped:0 ~lost:0 ~lost_txids:[];
      check_one (prefix ^ "-torn-tail") ~fmt ~verdict:(`Torn 6) ~entries:4 ~records:6
        ~barriers:[ 1; 4 ] ~dropped:6 ~lost:5 ~lost_txids:[ 2 ];
      check_one (prefix ^ "-fsynclie") ~fmt ~verdict:(`Torn 5) ~entries:4 ~records:6
        ~barriers:[ 1; 4 ] ~dropped:5 ~lost:5 ~lost_txids:[ 2 ];
      check_one (prefix ^ "-interior") ~fmt ~verdict:(`Corrupt 2) ~entries:1 ~records:2
        ~barriers:[ 1 ] ~dropped:10 ~lost:7 ~lost_txids:[ 1; 2 ])
    [ ("v2", 2); ("v3", 3) ]

let test_fixture_v2_migrates_to_v3 () =
  (* The v2 fixtures are frozen bytes: each must migrate to the image of
     its v3 counterpart's recovered log, and the clean one to
     v3-clean.wal itself. *)
  let migrated name =
    let d = expect_decode (read_fixture name) in
    Wal.image_of ~entries:d.Wal.d_entries ~barriers:d.Wal.d_barriers
  in
  List.iter
    (fun kind ->
      checkb (kind ^ ": v2 and v3 migrate to the same image") true
        (String.equal (migrated ("v2-" ^ kind)) (migrated ("v3-" ^ kind))))
    [ "clean"; "torn-tail"; "interior"; "fsynclie" ];
  checkb "v2-clean migrates to the v3-clean bytes" true
    (String.equal (migrated "v2-clean") (read_fixture "v3-clean"))

let test_fixture_scrub_json () =
  let j = Scrub.to_json (Scrub.of_string (read_fixture "v3-interior")) in
  checkb "schema pinned" true (is_string_prefix "{\"schema\": \"repro-wal-scrub/1\"" j);
  checkb "classification pinned" true (contains ~sub:"\"classification\": \"corrupt\"" j);
  checkb "lost txids listed" true (contains ~sub:"\"lost_txids\": [1, 2]" j);
  let js = Salvage.to_json (Salvage.of_string (read_fixture "v2-torn-tail")) in
  checkb "salvage schema pinned" true (is_string_prefix "{\"schema\": \"repro-wal-salvage/1\"" js)

let test_fixture_salvage () =
  (* salvage keeps each fixture's own format and always emits an image
     that re-scrubs clean *)
  List.iter
    (fun (name, header) ->
      let o = Salvage.of_string (read_fixture name) in
      checkb (name ^ ": output keeps its format") true (is_string_prefix header o.Salvage.output);
      checkb (name ^ ": salvaged image scrubs clean") true
        (Scrub.is_clean (Scrub.of_string o.Salvage.output));
      checki (name ^ ": first two groups recovered") 4 (List.length o.Salvage.entries);
      checkb (name ^ ": lost txn identified") true (o.Salvage.lost_txids = [ 2 ]))
    [ ("v2-torn-tail", Wal.format_header ^ "\n"); ("v3-torn-tail", v3_header) ]

(* ------------------------------------------------------------------ *)
(* Group commit                                                       *)
(* ------------------------------------------------------------------ *)

let test_group_coalesces_forces () =
  let dev = Block.create Block.faithful in
  let e = Engine.create ~device:dev s0 in
  let before = Wal.force_count (Engine.log e) in
  Engine.with_group e (fun () ->
      ignore (Engine.execute e (inc "T1" "a" 1));
      ignore (Engine.execute e (inc "T2" "b" 1));
      ignore (Engine.execute e (inc "T3" "c" 1));
      checkb "inside the group" true (Engine.in_group e);
      checki "forces deferred" 0 (Wal.force_count (Engine.log e) - before));
  checkb "group closed" false (Engine.in_group e);
  checki "three forces coalesced into one" 1 (Wal.force_count (Engine.log e) - before);
  checki "everything the deferred forces covered is durable" 0
    (Wal.length (Engine.log e) - List.length (Wal.durable_entries (Engine.log e)));
  ignore (Engine.crash_restart e : Wal.recovery);
  check_state "the whole group survives its single barrier"
    (State.of_list [ ("a", 11); ("b", 21); ("c", 31) ])
    (Engine.state e)

let test_group_nesting () =
  let e = Engine.create s0 in
  let before = Wal.force_count (Engine.log e) in
  Engine.begin_group e;
  Engine.begin_group e;
  ignore (Engine.execute e (inc "T1" "a" 1));
  Engine.end_group e;
  checki "inner end does not flush" 0 (Wal.force_count (Engine.log e) - before);
  checkb "still grouped" true (Engine.in_group e);
  Engine.end_group e;
  checki "outermost end flushes once" 1 (Wal.force_count (Engine.log e) - before);
  Alcotest.check_raises "unbalanced end rejected"
    (Invalid_argument "Wal.end_group: no open group") (fun () -> Engine.end_group e)

let test_group_abandoned_on_exception () =
  let dev = Block.create Block.faithful in
  let e = Engine.create ~device:dev s0 in
  let before = Wal.force_count (Engine.log e) in
  (try
     Engine.with_group e (fun () ->
         ignore (Engine.execute e (inc "T1" "a" 1));
         raise Exit)
   with Exit -> ());
  checkb "group closed by the exception" false (Engine.in_group e);
  checki "no flush on the failure path" 0 (Wal.force_count (Engine.log e) - before);
  ignore (Engine.crash_restart e : Wal.recovery);
  check_state "the abandoned group vanishes whole" s0 (Engine.state e);
  (* the engine keeps working and later forces are honest again *)
  ignore (Engine.execute e (inc "T2" "a" 2));
  ignore (Engine.crash_restart e : Wal.recovery);
  checki "later commit durable" 12 (State.get (Engine.state e) "a")

let test_group_session_marker_exactly_once () =
  (* the session commit group rides one barrier: marker and effects are
     all-or-nothing, and on success exactly one marker surfaces *)
  let dev = Block.create Block.faithful in
  let e = Engine.create ~device:dev s0 in
  Engine.begin_group e;
  ignore (Engine.execute e (inc "T1" "a" 1));
  Engine.journal e ~session:7 "applied 1 1";
  Engine.force e;
  ignore (Engine.crash_restart e : Wal.recovery);
  checkb "open group: marker and effects lost together" true
    (Engine.session_journal e = [] && State.equal s0 (Engine.state e));
  Engine.with_group e (fun () ->
      ignore (Engine.execute e (inc "T1" "a" 1));
      Engine.journal e ~session:7 "applied 1 1";
      Engine.force e);
  ignore (Engine.crash_restart e : Wal.recovery);
  checkb "closed group: exactly one marker, with its effects" true
    (Engine.session_journal e = [ (7, "applied 1 1") ]
    && State.equal (State.of_list [ ("a", 11); ("b", 20); ("c", 30) ]) (Engine.state e))

let test_group_fsync_lie_atomic () =
  (* Syncs: attach #1, initial checkpoint force #2, T1 #3, T2 #4, then
     the group's single combined sync #5 — scripted to lie. The crash
     must take the whole three-transaction group and its marker; a
     prefix of the group surviving would violate the shared barrier. *)
  let dev = Block.create { Block.faithful with Block.fsync_lies = [ 5 ] } in
  let e = Engine.create ~device:dev s0 in
  ignore (Engine.execute e (inc "T1" "a" 1));
  ignore (Engine.execute e (inc "T2" "b" 1));
  Engine.with_group e (fun () ->
      ignore (Engine.execute e (inc "G1" "a" 10));
      ignore (Engine.execute e (inc "G2" "b" 10));
      ignore (Engine.execute e (inc "G3" "c" 10));
      Engine.journal e ~session:9 "group");
  checki "the scripted lie hit the combined sync" 1 (Block.stats dev).Block.lies_told;
  let r = Engine.crash_restart e in
  checkb "loss detected via the believed-durable gap" true (r.Wal.lost_durable > 0);
  check_state "the coalesced group vanished whole — never a prefix"
    (State.of_list [ ("a", 11); ("b", 21); ("c", 30) ])
    (Engine.state e);
  checkb "no marker without effects" true (Engine.session_journal e = [])

let prop_group_crash_durability_equivalence =
  (* Any crash point around a coalesced commit group yields a durable
     state some per-session force schedule could have produced: either
     none of the group's deferred forces happened (crash while open) or
     all of them did (after the combined force). Never a strict subset. *)
  QCheck.Test.make ~count:100 ~name:"group commit: a crash yields an all-or-nothing schedule state"
    (QCheck.quad (QCheck.make G.state_gen)
       (QCheck.make (G.history_gen ~length:3))
       (QCheck.make (G.history_gen ~length:4))
       QCheck.bool)
    (fun (s0, pre, group, crash_inside) ->
      let dev = Block.create Block.faithful in
      let e = Engine.create ~device:dev s0 in
      List.iter (fun p -> ignore (Engine.execute e p)) (History.programs pre);
      let pre_state = Engine.state e in
      let pre_durable = List.length (Wal.durable_entries (Engine.log e)) in
      Engine.begin_group e;
      List.iter (fun p -> ignore (Engine.execute e p)) (History.programs group);
      let full_state = Engine.state e in
      if not crash_inside then Engine.end_group e;
      ignore (Engine.crash_restart e : Wal.recovery);
      let d = List.length (Wal.durable_entries (Engine.log e)) in
      if crash_inside then State.equal pre_state (Engine.state e) && d = pre_durable
      else State.equal full_state (Engine.state e))

(* ------------------------------------------------------------------ *)
(* Session index                                                      *)
(* ------------------------------------------------------------------ *)

(* The engine's per-session index must answer exactly what a scan of the
   durable session journal answers: the first note journaled under each
   session id. *)
let index_sids = [ 0; 1; 2; 3 ]

let index_matches_scan e =
  let journal = Engine.session_journal e in
  List.for_all
    (fun sid -> Engine.first_session_note e ~session:sid = List.assoc_opt sid journal)
    index_sids

let test_index_after_ordinal_reuse () =
  (* an unforced note dies in the crash; the next record takes its WAL
     position and is forced — the dead note must not resurface *)
  let e = Engine.create ~device:(Block.create Block.faithful) s0 in
  Engine.journal e ~session:1 "applied 1 1";
  checkb "unforced note not visible" true (Engine.first_session_note e ~session:1 = None);
  ignore (Engine.crash_restart e : Wal.recovery);
  ignore (Engine.execute e (inc "T1" "a" 1));
  checkb "dropped note gone after ordinal reuse" true
    (Engine.first_session_note e ~session:1 = None);
  Engine.journal e ~session:1 "applied 2 2";
  Engine.force e;
  checkb "the surviving note" true (Engine.first_session_note e ~session:1 = Some "applied 2 2")

type index_op = Exec | Note of int * int | Force | Group of index_op list | Crash

let pp_index_op =
  let rec pp ppf = function
    | Exec -> Format.pp_print_string ppf "exec"
    | Note (sid, n) -> Format.fprintf ppf "note %d#%d" sid n
    | Force -> Format.pp_print_string ppf "force"
    | Group ops ->
      Format.fprintf ppf "group[%a]" (Format.pp_print_list ~pp_sep:Format.pp_print_space pp) ops
    | Crash -> Format.pp_print_string ppf "crash"
  in
  pp

let index_op_gen =
  let open QCheck.Gen in
  (* crash_restart closes any open group, so crashes stay outside groups *)
  let in_group =
    frequency
      [
        (3, return Exec);
        (4, map2 (fun sid n -> Note (sid, n)) (oneofl index_sids) (int_bound 99));
        (2, return Force);
      ]
  in
  frequency
    [
      (8, in_group);
      (2, map (fun ops -> Group ops) (list_size (int_bound 4) in_group));
      (2, return Crash);
    ]

let prop_session_index_equals_scan =
  QCheck.Test.make ~count:300
    ~name:"session index = first journal note per sid, across crashes and restart"
    (QCheck.pair QCheck.small_nat
       (QCheck.make
          ~print:(Format.asprintf "%a" (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_index_op))
          QCheck.Gen.(list_size (int_range 1 30) index_op_gen)))
    (fun (seed, ops) ->
      let dev =
        Block.create ~seed { Block.faithful with Block.fsync_lie_rate = 0.3; torn_write_rate = 0.5 }
      in
      let e = Engine.create ~device:dev s0 in
      let rec apply = function
        | Exec -> ignore (Engine.execute ~durably:false e (inc "T" "a" 1))
        | Note (sid, n) -> Engine.journal e ~session:sid (Printf.sprintf "note %d" n)
        | Force -> Engine.force e
        | Group ops -> Engine.with_group e (fun () -> List.iter apply ops)
        | Crash -> ignore (Engine.crash_restart e : Wal.recovery)
      in
      List.for_all
        (fun op ->
          apply op;
          index_matches_scan e)
        ops
      && with_temp_file (fun path ->
             Engine.persist e ~path;
             match Engine.restart ~path with
             | Error _ -> false
             | Ok (e', _) -> index_matches_scan e'))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "repro_db"
    [
      ( "engine",
        [
          Alcotest.test_case "execute" `Quick test_execute_updates_state;
          Alcotest.test_case "wal structure" `Quick test_wal_structure;
          Alcotest.test_case "batch forces once" `Quick test_batch_forces_once;
          Alcotest.test_case "apply updates" `Quick test_apply_updates;
          Alcotest.test_case "undo" `Quick test_undo_restores_before_images;
          Alcotest.test_case "commit refuses a stale record" `Quick
            test_commit_refuses_stale_record;
        ]
        @ qsuite
            [
              prop_engine_matches_interpreter;
              prop_undo_inverts_last;
              prop_commit_matches_execute;
              prop_apply_updates_matches_get_then_set;
            ] );
      ( "recovery",
        [
          Alcotest.test_case "drops unforced" `Quick test_recovery_drops_unforced;
          Alcotest.test_case "torn batch lost atomically" `Quick test_torn_batch_lost_atomically;
          Alcotest.test_case "session journal commit group" `Quick test_session_journal_commit_group;
          Alcotest.test_case "rewind txns" `Quick test_rewind_txns;
          Alcotest.test_case "checkpoint + redo" `Quick test_recovery_after_checkpoint;
          Alcotest.test_case "undo recoverable" `Quick test_undo_is_logged_and_recoverable;
        ]
        @ qsuite [ prop_recovery_equals_state_when_forced ] );
      ( "wal",
        [ Alcotest.test_case "durability bookkeeping" `Quick test_wal_durability_bookkeeping ] );
      ( "block",
        [
          Alcotest.test_case "faithful roundtrip" `Quick test_block_faithful_roundtrip;
          Alcotest.test_case "scripted fsync lie" `Quick test_block_scripted_fsync_lie;
          Alcotest.test_case "short write" `Quick test_block_short_write;
          Alcotest.test_case "torn crash" `Quick test_block_torn_crash;
          Alcotest.test_case "read faults leave the medium" `Quick
            test_block_read_faults_leave_medium;
          Alcotest.test_case "deterministic" `Quick test_block_deterministic;
          Alcotest.test_case "truncate" `Quick test_block_truncate;
        ] );
      ( "format",
        [
          Alcotest.test_case "empty image" `Quick test_decode_empty_image;
          Alcotest.test_case "clean image" `Quick test_decode_clean_image;
          Alcotest.test_case "barrier coverage" `Quick test_decode_respects_barrier_coverage;
          Alcotest.test_case "duplicate sequence" `Quick test_decode_duplicate_sequence;
          Alcotest.test_case "interior flip is corrupt" `Quick test_decode_interior_flip_is_corrupt;
          Alcotest.test_case "mid-record tear" `Quick test_decode_mid_record_tear;
          Alcotest.test_case "torn header" `Quick test_decode_torn_header;
          Alcotest.test_case "bad barrier coverage" `Quick test_decode_bad_barrier_coverage;
          Alcotest.test_case "typed parse errors" `Quick test_entry_of_line_typed_errors;
        ]
        @ qsuite
            [ prop_entry_line_roundtrip; prop_mutation_never_silent; prop_durable_image_decodes_clean ]
      );
      ( "device recovery",
        [
          Alcotest.test_case "clean recovery" `Quick test_engine_device_clean_recovery;
          Alcotest.test_case "fsync lie detected" `Quick test_engine_device_fsync_lie_detected;
          Alcotest.test_case "torn force recovers prefix" `Quick
            test_engine_device_torn_force_recovers_prefix;
          Alcotest.test_case "empty recovery keeps later commits" `Quick
            test_engine_device_empty_recovery_keeps_later_commits;
        ] );
      ( "v3 format",
        [
          Alcotest.test_case "hostile values roundtrip" `Quick test_v3_roundtrip_hostile_values;
          Alcotest.test_case "crafted frames decode" `Quick test_v3_crafted_frames_decode;
          Alcotest.test_case "torn frame" `Quick test_v3_torn_frame;
          Alcotest.test_case "interior flip resyncs" `Quick test_v3_interior_flip_resyncs;
          Alcotest.test_case "bad length field" `Quick test_v3_bad_length_field;
          Alcotest.test_case "header autodetect" `Quick test_v3_header_autodetect;
        ]
        @ qsuite [ prop_cross_format_equivalence ] );
      ( "fixture corpus",
        [
          Alcotest.test_case "decoded verdicts pinned" `Quick test_fixture_corpus;
          Alcotest.test_case "v2 fixtures migrate to v3 bytes" `Quick
            test_fixture_v2_migrates_to_v3;
          Alcotest.test_case "scrub/salvage json pinned" `Quick test_fixture_scrub_json;
          Alcotest.test_case "salvage keeps format" `Quick test_fixture_salvage;
        ] );
      ( "group commit",
        [
          Alcotest.test_case "coalesces forces" `Quick test_group_coalesces_forces;
          Alcotest.test_case "nesting" `Quick test_group_nesting;
          Alcotest.test_case "abandoned on exception" `Quick test_group_abandoned_on_exception;
          Alcotest.test_case "session marker exactly once" `Quick
            test_group_session_marker_exactly_once;
          Alcotest.test_case "fsync lie takes the group whole" `Quick test_group_fsync_lie_atomic;
        ]
        @ qsuite [ prop_group_crash_durability_equivalence ] );
      ( "session index",
        [ Alcotest.test_case "crash reuses ordinals" `Quick test_index_after_ordinal_reuse ]
        @ qsuite [ prop_session_index_equals_scan ] );
      ( "scrub/salvage",
        [
          Alcotest.test_case "scrub reports" `Quick test_scrub_reports;
          Alcotest.test_case "salvage identity on clean" `Quick test_salvage_identity_on_clean;
          Alcotest.test_case "salvage recovers longest valid prefix" `Quick
            test_salvage_recovers_longest_valid_prefix;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "line roundtrip" `Quick test_wal_line_roundtrip;
          Alcotest.test_case "persist/restart" `Quick test_persist_restart_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_restart_rejects_garbage;
          Alcotest.test_case "empty file" `Quick test_restart_empty_file;
          Alcotest.test_case "torn file reported" `Quick test_load_reports_torn_file;
        ]
        @ qsuite [ prop_persist_restart_equals_live_state ] );
    ]
