open Repro_txn
open Repro_history
module Engine = Repro_db.Engine
module Wal = Repro_db.Wal
module Block = Repro_db.Block
module Scrub = Repro_db.Scrub
module Salvage = Repro_db.Salvage
module Rng = Repro_workload.Rng
module Banking = Repro_workload.Banking
module P = Repro_replication.Protocol
module Cost = Repro_replication.Cost

let random_schedule rng =
  let drop_rate = if Rng.bool rng 0.5 then Sweep.frac rng 0.0 0.85 else 0.0 in
  let dup_rate = if Rng.bool rng 0.35 then Sweep.frac rng 0.0 0.4 else 0.0 in
  let min_latency = Sweep.frac rng 0.005 0.05 in
  let max_latency = min_latency +. Sweep.frac rng 0.0 1.5 in
  let partitions =
    if Rng.bool rng 0.4 then
      let from = Sweep.frac rng 0.0 20.0 in
      [ (from, from +. Sweep.frac rng 0.5 10.0) ]
    else []
  in
  let crashes =
    List.concat
      [
        (if Rng.bool rng 0.25 then [ Net.Base_after_handling (1 + Rng.int rng 8) ] else []);
        (if Rng.bool rng 0.2 then [ Net.Mobile_after_handling (1 + Rng.int rng 6) ] else []);
        (if Rng.bool rng 0.2 then [ Net.Base_mid_commit ] else []);
        (if Rng.bool rng 0.2 then [ Net.Base_after_commit ] else []);
      ]
  in
  {
    Net.drop_rate;
    dup_rate;
    min_latency;
    max_latency;
    partitions;
    crashes;
    to_base_drop = None;
    to_mobile_drop = None;
  }

let random_disk_schedule rng =
  {
    Block.torn_write_rate = (if Rng.bool rng 0.5 then Sweep.frac rng 0.0 1.0 else 0.0);
    short_write_rate = (if Rng.bool rng 0.25 then Sweep.frac rng 0.0 0.15 else 0.0);
    bitflip_rate = (if Rng.bool rng 0.35 then Sweep.frac rng 0.0 0.5 else 0.0);
    truncate_read_rate = (if Rng.bool rng 0.3 then Sweep.frac rng 0.0 0.5 else 0.0);
    fsync_lie_rate = (if Rng.bool rng 0.3 then Sweep.frac rng 0.0 0.6 else 0.0);
    fsync_lies = [];
  }

type verdict = {
  completed : bool;
  resumed : bool;
  crashes : int;
  retries : int;
  forced : bool;
  damaged : bool;
}

(* Independent replay oracle: last checkpoint (reset on the fly), then
   after-images of committed transactions. Deliberately re-stated here
   rather than calling the engine's own replay, so a recovery bug cannot
   vouch for itself. *)
let replay_wal s0 entries =
  let committed = Hashtbl.create 32 in
  List.iter
    (function Wal.Commit id -> Hashtbl.replace committed id () | _ -> ())
    entries;
  List.fold_left
    (fun s e ->
      match e with
      | Wal.Checkpoint c -> c
      | Wal.Write (id, x, _, after) when Hashtbl.mem committed id -> State.set s x after
      | _ -> s)
    s0 entries

let rec entries_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | _ :: _, [] -> false
  | x :: xs', y :: ys' -> Wal.entry_equal x y && entries_prefix xs' ys'

let check_case ?disk ~seed ~schedule () =
  let rng = Rng.create seed in
  let bank = Banking.make ~n_accounts:8 in
  let s0 = Banking.initial_state bank in
  let base_len = 2 + Rng.int rng 6 in
  let tent_len = 3 + Rng.int rng 8 in
  let base_h = Banking.random_history bank rng ~prefix:"B" ~length:base_len ~commuting_bias:0.6 in
  let tentative =
    Banking.random_history bank rng ~prefix:"M" ~length:tent_len ~commuting_bias:0.6
  in
  (* Two identical engines: one merges fault-free (the reference run), the
     other through the session layer over the faulty wire — and, with
     [disk], through a faulty storage device as well. *)
  let mk_engine ?device () =
    let e = Engine.create ?device s0 in
    let records = Engine.execute_batch e (History.entries base_h) in
    let history =
      List.map2
        (fun p record -> { P.program = p; record })
        (History.programs base_h) records
    in
    (e, history)
  in
  let ref_engine, ref_history = mk_engine () in
  let ref_report =
    P.merge ~config:P.default_merge_config ~params:Cost.default_params ~base:ref_engine
      ~base_history:(P.index_history ref_history) ~origin:s0 ~tentative
  in
  let ref_state = Engine.state ref_engine in
  let device = Option.map (fun sched -> Block.create ~seed:(seed + 2) sched) disk in
  let engine, base_history = mk_engine ?device () in
  let indexed = P.index_history base_history in
  let pre_state = Engine.state engine in
  let pre_durable = Wal.durable_entries (Engine.log engine) in
  let net = Net.create ~seed:(seed + 1) schedule in
  match
    Session.run_merge ~sid:1 ~net ~session:Session.default_config ~config:P.default_merge_config
      ~params:Cost.default_params ~base:engine ~base_history:indexed ~origin:s0 ~tentative ()
  with
  | exception e -> Error (Printf.sprintf "exception: %s" (Printexc.to_string e))
  | res -> (
    let markers = Session.applied_markers engine ~sid:1 in
    let verdict completed =
      {
        completed;
        resumed = res.Session.resumed;
        crashes = res.Session.crashes;
        retries = res.Session.retries;
        forced = res.Session.forced_resolution;
        damaged = res.Session.storage_failure;
      }
    in
    let check cond msg rest = if cond then rest () else Error msg in
    (* With a device attached: force one final crash-restart and check
       the corruption-safety contract — the recovered log is a verified
       prefix of what was believed durable, the loss report is exact,
       the rebuilt state replays from that prefix, and salvage recovers
       exactly the same prefix from the medium. *)
    let disk_checks () =
      match device with
      | None -> Ok ()
      | Some dev ->
        let believed = Wal.durable_entries (Engine.log engine) in
        let recovery = Engine.crash_restart engine in
        let surfaced = Wal.durable_entries (Engine.log engine) in
        check
          (entries_prefix surfaced believed)
          "disk recovery: surfaced log is not a prefix of the believed-durable log"
        @@ fun () ->
        check
          (recovery.Wal.lost_durable = List.length believed - List.length surfaced)
          "disk recovery: lost_durable miscounts the believed-vs-recovered gap"
        @@ fun () ->
        check
          (List.length surfaced = List.length believed
          || recovery.Wal.verdict <> Wal.Clean
          || recovery.Wal.lost_durable > 0)
          "disk recovery: silent loss — records vanished under a Clean verdict"
        @@ fun () ->
        check
          (State.equal (Engine.state engine) (replay_wal s0 surfaced))
          "disk recovery: recovered state is not the replay of the recovered prefix"
        @@ fun () ->
        (* Salvage the (now truncated) medium through a faulty read: it
           must reproduce a prefix of what recovery surfaced — exactly
           all of it when the read happens to be faithful — and the
           salvaged image must itself verify clean. *)
        let snap = Block.read dev in
        let sal = Salvage.of_string snap in
        check
          (entries_prefix sal.Salvage.entries surfaced)
          "salvage: recovered entries are not a prefix of the durable log"
        @@ fun () ->
        check
          ((not (String.equal snap (Block.durable_contents dev)))
          || List.length sal.Salvage.entries = List.length surfaced)
          "salvage: faithful read did not reproduce the full durable prefix"
        @@ fun () ->
        check
          (Scrub.is_clean (Scrub.of_string sal.Salvage.output))
          "salvage: salvaged image does not scrub clean"
        @@ fun () -> Ok ()
    in
    match res.Session.outcome with
    | Session.Completed report ->
      check
        (State.equal (Engine.state engine) ref_state)
        "completed session: base state differs from the fault-free run"
      @@ fun () ->
      check (markers = 1)
        (Printf.sprintf "completed session: %d applied markers (want exactly 1)" markers)
      @@ fun () ->
      check
        (State.equal
           (P.replay s0 (P.merged_history indexed report.P.splice))
           (Engine.state engine))
        "completed session: logical history does not replay to the base state"
      @@ fun () ->
      check
        (Names.Set.equal report.P.saved ref_report.P.saved)
        "completed session: saved set differs from the fault-free run"
      @@ fun () ->
      check
        (State.equal (Engine.recover engine) (Engine.state engine))
        "completed session: committed state not durable"
      @@ fun () ->
      check
        (not res.Session.storage_failure)
        "completed session: completed despite a detected storage failure"
      @@ fun () -> ( match disk_checks () with Ok () -> Ok (verdict true) | Error e -> Error e)
    | Session.Aborted _ when res.Session.storage_failure ->
      (* The base detected durable loss and refused to continue: it must
         hold a verified prefix of its pre-session log (the commit group,
         marker included, must be gone), with the state replayed from
         exactly that prefix. *)
      let surfaced = Wal.durable_entries (Engine.log engine) in
      check (markers = 0)
        (Printf.sprintf "damaged abort: %d applied markers (want 0)" markers)
      @@ fun () ->
      check
        (entries_prefix surfaced pre_durable)
        "damaged abort: recovered log is not a prefix of the pre-session log"
      @@ fun () ->
      check
        (State.equal (Engine.state engine) (replay_wal s0 surfaced))
        "damaged abort: base state is not the replay of the recovered prefix"
      @@ fun () -> ( match disk_checks () with Ok () -> Ok (verdict false) | Error e -> Error e)
    | Session.Aborted _ ->
      check
        (State.equal (Engine.state engine) pre_state)
        "aborted session: base state changed"
      @@ fun () ->
      check (markers = 0)
        (Printf.sprintf "aborted session: %d applied markers (want 0)" markers)
      @@ fun () ->
      let rr =
        P.reprocess ~acceptance:P.accept_always ~params:Cost.default_params ~base:engine
          ~origin:s0 ~tentative
      in
      check
        (State.equal (P.replay s0 (base_history @ rr.P.appended)) (Engine.state engine))
        "aborted session: reprocessing fallback not serializable"
      @@ fun () -> ( match disk_checks () with Ok () -> Ok (verdict false) | Error e -> Error e))

type sweep = verdict Sweep.t

(* The schedules come from their own stream, drawn in case order. *)
let run_sweep ?(disk = false) ~seed ~count () =
  let sched_rng = Rng.create (seed lxor 0x9e3779b9) in
  Sweep.run ~seed ~count (fun seed ->
      let schedule = random_schedule sched_rng in
      let disk_schedule = if disk then Some (random_disk_schedule sched_rng) else None in
      check_case ?disk:disk_schedule ~seed ~schedule ())

let pp_sweep =
  Sweep.pp (fun ppf (s : sweep) ->
      let count f = List.length (List.filter f s.passed) in
      let sum f = List.fold_left (fun n v -> n + f v) 0 s.passed in
      Format.fprintf ppf
        "cases=%d completed=%d aborted=%d resumed=%d crashes=%d retries=%d forced=%d damaged=%d"
        s.cases
        (count (fun v -> v.completed))
        (count (fun v -> not v.completed))
        (count (fun v -> v.resumed))
        (sum (fun v -> v.crashes))
        (sum (fun v -> v.retries))
        (count (fun v -> v.forced))
        (count (fun v -> v.damaged)))
