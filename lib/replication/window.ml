open Repro_txn
open Repro_history
module Engine = Repro_db.Engine
module Index = Repro_precedence.Precedence.Index

type protocol = Merging of Protocol.merge_config | Reprocessing

type merge_attempt =
  | Merge_completed of Protocol.merge_report
  | Merge_aborted of string

type merge_runner =
  config:Protocol.merge_config ->
  params:Cost.params ->
  base:Engine.t ->
  base_history:Protocol.history ->
  origin:State.t ->
  tentative:History.t ->
  merge_attempt

type counts = {
  merges : int;
  saved : int;
  reexecuted : int;
  rejected : int;
  late_sessions : int;
  late_txns : int;
  aborted_merges : int;
}

type t = {
  engine : Engine.t;
  protocol : protocol;
  params : Cost.params;
  runner : merge_runner option;
  history : Protocol.history;
  cost : Cost.tally;
  mutable counts : counts;
}

let create ?runner ~protocol ~params engine =
  let counts =
    { merges = 0; saved = 0; reexecuted = 0; rejected = 0; late_sessions = 0; late_txns = 0;
      aborted_merges = 0 }
  in
  {
    engine;
    protocol;
    params;
    runner;
    history = Protocol.index_history [];
    cost = Cost.zero ();
    counts;
  }

let engine w = w.engine
let length w = Index.length w.history
let cost w = w.cost
let counts w = w.counts
let history ?upto w = Index.to_list ?upto w.history

let count_txns w txns =
  w.counts <-
    List.fold_left
      (fun c (r : Protocol.txn_report) ->
        match r.Protocol.outcome with
        | Protocol.Merged -> { c with saved = c.saved + 1 }
        | Protocol.Reexecuted -> { c with reexecuted = c.reexecuted + 1 }
        | Protocol.Rejected -> { c with rejected = c.rejected + 1 })
      w.counts txns

let base_txn w program =
  let record = Engine.execute w.engine program in
  Index.push w.history { Protocol.program; record };
  record

let reprocess w ~origin tentative =
  let acceptance =
    match w.protocol with
    | Merging mc -> mc.Protocol.acceptance
    | Reprocessing -> Protocol.accept_always
  in
  let report = Protocol.reprocess ~acceptance ~params:w.params ~base:w.engine ~origin ~tentative in
  List.iter (Index.push w.history) report.Protocol.appended;
  count_txns w report.Protocol.txns;
  Cost.add w.cost report.Protocol.cost;
  report

let merge ?(from = 0) w ~origin tentative =
  let config =
    match w.protocol with
    | Merging mc -> mc
    | Reprocessing -> invalid_arg "Window.merge: a reprocessing window does not merge"
  in
  (* Link what entered since the last merge here, in the window's own
     time, not in the merge's [precedence.build]. *)
  Index.settle w.history;
  let base_history = Index.suffix w.history ~from in
  let attempt =
    match w.runner with
    | None ->
      Merge_completed
        (Protocol.merge ~config ~params:w.params ~base:w.engine ~base_history ~origin ~tentative)
    | Some run -> run ~config ~params:w.params ~base:w.engine ~base_history ~origin ~tentative
  in
  match attempt with
  | Merge_aborted _ ->
    w.counts <- { w.counts with aborted_merges = w.counts.aborted_merges + 1 };
    None
  | Merge_completed report ->
    let splice = report.Protocol.splice in
    Index.splice base_history ~first:splice.Protocol.first splice.Protocol.tail;
    w.counts <- { w.counts with merges = w.counts.merges + 1 };
    count_txns w report.Protocol.txns;
    Cost.add w.cost report.Protocol.cost;
    Some report

let reconnect ?from w ~late ~origin tentative =
  let reprocess () = (reprocess w ~origin tentative).Protocol.txns in
  match w.protocol with
  | Reprocessing -> reprocess ()
  | Merging _ when late ->
    let c = w.counts in
    let late_txns = c.late_txns + History.length tentative in
    w.counts <- { c with late_sessions = c.late_sessions + 1; late_txns };
    reprocess ()
  | Merging _ -> (
    match merge ?from w ~origin tentative with
    | Some report -> report.Protocol.txns
    | None -> reprocess ())

let reset w = Index.clear w.history
