open Repro_txn
module Obs = Repro_obs.Obs

let obs_txns = Obs.Counter.make "db.txns_committed"
let obs_recoveries = Obs.Counter.make "db.recoveries"

type t = {
  mutable state : State.t;
  mutable initial : State.t;  (* state at engine creation: recovery base *)
  wal : Wal.t;
  mutable next_txid : int;
  mutable committed : int;
  sessions : (int, int * string) Hashtbl.t;
      (* session id -> WAL ordinal and note of its first record *)
}

let create ?device s0 =
  let t =
    {
      state = s0;
      initial = s0;
      wal = Wal.create ();
      next_txid = 1;
      committed = 0;
      sessions = Hashtbl.create 8;
    }
  in
  (match device with Some dev -> Wal.attach t.wal dev | None -> ());
  Wal.append t.wal (Wal.Checkpoint s0);
  Wal.force t.wal;
  t

let state t = t.state
let device t = Wal.device t.wal

let log_record t txid (r : Interp.record) =
  Wal.append t.wal (Wal.Begin txid);
  List.iter (fun (x, v) -> Wal.append t.wal (Wal.Read (txid, x, v))) r.Interp.reads;
  List.iter (fun (x, b, a) -> Wal.append t.wal (Wal.Write (txid, x, b, a))) r.Interp.writes;
  Wal.append t.wal (Wal.Commit txid)

(* A record computed on any other state would log before-images and an
   after-state that do not follow from this engine's state. The check is
   physical, O(1), so an equal but distinct state is refused too. *)
let commit ?(durably = true) t (r : Interp.record) =
  if r.Interp.before != t.state then
    invalid_arg "Engine.commit: record was not computed on the engine's current state";
  let txid = t.next_txid in
  t.next_txid <- txid + 1;
  log_record t txid r;
  t.state <- r.Interp.after;
  t.committed <- t.committed + 1;
  Obs.Counter.incr obs_txns;
  if durably then Wal.force t.wal

let execute ?fix ?durably t program =
  let r = Interp.run ?fix t.state program in
  commit ?durably t r;
  r

let execute_batch ?(force = true) t entries =
  let records =
    List.map
      (fun (e : Repro_history.History.entry) ->
        execute ~fix:e.Repro_history.History.fix ~durably:false t e.Repro_history.History.program)
      entries
  in
  if force then Wal.force t.wal;
  records

let apply_updates ?(durably = true) t values items =
  let txid = t.next_txid in
  t.next_txid <- txid + 1;
  Wal.append t.wal (Wal.Begin txid);
  Item.Set.iter
    (fun x ->
      let after = State.get values x in
      let before, state = State.exchange t.state x after in
      Wal.append t.wal (Wal.Write (txid, x, before, after));
      t.state <- state)
    items;
  Wal.append t.wal (Wal.Commit txid);
  if durably then Wal.force t.wal;
  t.committed <- t.committed + 1;
  Obs.Counter.incr obs_txns

let undo t (r : Interp.record) =
  let txid = t.next_txid in
  t.next_txid <- txid + 1;
  Wal.append t.wal (Wal.Begin txid);
  List.iter
    (fun (x, before_image, written) ->
      Wal.append t.wal (Wal.Write (txid, x, written, before_image));
      t.state <- State.set t.state x before_image)
    (List.rev r.Interp.writes);
  Wal.append t.wal (Wal.Commit txid);
  Wal.force t.wal;
  t.committed <- t.committed + 1;
  Obs.Counter.incr obs_txns

let checkpoint t =
  Obs.Span.with_ ~name:"db.checkpoint" @@ fun () ->
  Wal.append t.wal (Wal.Checkpoint t.state);
  Wal.force t.wal

(* Shared ARIES-lite restart: start from the last checkpoint (or
   [fallback]) and redo after-images of transactions whose Commit record
   survived. *)
let replay_entries ~fallback entries =
  let committed = Hashtbl.create 64 in
  List.iter (function Wal.Commit id -> Hashtbl.replace committed id () | _ -> ()) entries;
  let base =
    List.fold_left (fun acc e -> match e with Wal.Checkpoint s -> Some s | _ -> acc) None entries
  in
  let start = match base with Some s -> s | None -> fallback in
  let after_ckpt =
    let rec drop_until_last_ckpt entries kept =
      match entries with
      | [] -> List.rev kept
      | Wal.Checkpoint _ :: rest -> drop_until_last_ckpt rest []
      | e :: rest -> drop_until_last_ckpt rest (e :: kept)
    in
    drop_until_last_ckpt entries []
  in
  List.fold_left
    (fun s e ->
      match e with
      | Wal.Write (id, x, _, after) when Hashtbl.mem committed id -> State.set s x after
      | Wal.Write _ | Wal.Begin _ | Wal.Read _ | Wal.Commit _ | Wal.Abort _ | Wal.Checkpoint _
      | Wal.Session _ ->
        s)
    start after_ckpt

(* Only a session id's first record is indexed: the session protocol
   journals one record per session, its marker. *)
let index_session t ~ordinal sid note =
  if not (Hashtbl.mem t.sessions sid) then Hashtbl.replace t.sessions sid (ordinal, note)

let recover t =
  Obs.Span.with_ ~name:"db.recover" @@ fun () ->
  Obs.Counter.incr obs_recoveries;
  replay_entries ~fallback:t.initial (Wal.durable_entries t.wal)

let crash_restart t =
  Obs.Span.with_ ~name:"db.crash_restart" @@ fun () ->
  Obs.Counter.incr obs_recoveries;
  Wal.crash t.wal;
  let recovery = Wal.reload t.wal in
  let durable = Wal.durable_entries t.wal in
  t.state <- replay_entries ~fallback:t.initial durable;
  t.committed <-
    List.fold_left (fun n e -> match e with Wal.Commit _ -> n + 1 | _ -> n) 0 durable;
  (* The crash may have dropped indexed records whose ordinals new
     appends will reuse: rebuild the index from the surfaced log. *)
  Hashtbl.reset t.sessions;
  List.iteri
    (fun ordinal e ->
      match e with Wal.Session (sid, note) -> index_session t ~ordinal sid note | _ -> ())
    durable;
  recovery

let journal t ~session note =
  index_session t ~ordinal:(Wal.length t.wal) session note;
  Wal.append t.wal (Wal.Session (session, note))

let first_session_note t ~session =
  match Hashtbl.find_opt t.sessions session with
  | Some (ordinal, note) when ordinal < Wal.durable_count t.wal -> Some note
  | _ -> None

let force t = Wal.force t.wal
let begin_group t = Wal.begin_group t.wal
let end_group t = Wal.end_group t.wal
let with_group t f = Wal.with_group t.wal f
let in_group t = Wal.in_group t.wal

let session_journal t =
  List.filter_map
    (function Wal.Session (sid, note) -> Some (sid, note) | _ -> None)
    (Wal.durable_entries t.wal)

let rewind_txns t ~first ~last =
  if last < first then t.state
  else
    List.fold_left
      (fun s e ->
        match e with
        | Wal.Write (id, x, before, _) when id >= first && id <= last -> State.set s x before
        | _ -> s)
      t.state
      (List.rev (Wal.durable_entries t.wal))

let persist t ~path = Wal.save t.wal ~path

let restart ~path =
  match Wal.load ~path with
  | Error msg -> Error msg
  | Ok (entries, verdict) ->
    let state = replay_entries ~fallback:State.empty entries in
    let max_txid =
      List.fold_left
        (fun acc e ->
          match e with
          | Wal.Begin id | Wal.Commit id | Wal.Abort id | Wal.Read (id, _, _)
          | Wal.Write (id, _, _, _) ->
            max acc id
          | Wal.Checkpoint _ | Wal.Session _ -> acc)
        0 entries
    in
    let t = create state in
    t.next_txid <- max_txid + 1;
    (* Preserve the session journal: exactly-once protection for resumable
       merge sessions must survive a full restart from disk. *)
    List.iter (function Wal.Session (sid, note) -> journal t ~session:sid note | _ -> ()) entries;
    Wal.force t.wal;
    Ok (t, verdict)

let log t = t.wal
let transactions_committed t = t.committed
let next_txid t = t.next_txid
