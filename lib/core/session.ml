open Repro_txn
open Repro_history
open Repro_replication
module Engine = Repro_db.Engine
module Obs = Repro_obs.Obs

let obs_merges = Obs.Counter.make "session.merges"
let obs_comparisons = Obs.Counter.make "session.comparisons"

type result = {
  precedence : Repro_precedence.Precedence.t;
  report : Protocol.merge_report;
  base_history : Protocol.history;
  merged_state : State.t;
}

let history programs = History.of_programs programs

let base_setup ~s0 ~base =
  let engine = Engine.create s0 in
  let base_history =
    List.map
      (fun p -> { Protocol.program = p; Protocol.record = Engine.execute engine p })
      base
  in
  (engine, base_history)

let merge_once ?(config = Protocol.default_merge_config) ?(params = Cost.default_params) ~s0
    ~tentative ~base () =
  Obs.Span.with_ ~name:"session.merge_once" @@ fun () ->
  Obs.Counter.incr obs_merges;
  let engine, base_history = base_setup ~s0 ~base in
  let base_history = Protocol.index_history base_history in
  let tentative_history = history tentative in
  let tentative_exec = History.execute s0 tentative_history in
  let precedence =
    Repro_precedence.Precedence.build
      ~tentative:
        (Repro_precedence.Summary.of_execution ~kind:Repro_precedence.Summary.Tentative
           tentative_exec)
      ~base:base_history
  in
  let report =
    Protocol.merge ~config ~params ~base:engine ~base_history ~origin:s0
      ~tentative:tentative_history
  in
  { precedence; report; base_history; merged_state = Engine.state engine }

type comparison = {
  merge_result : result;
  merge_cost : Cost.tally;
  reprocess_state : State.t;
  reprocess_cost : Cost.tally;
  reprocess_txns : Protocol.txn_report list;
}

let compare_protocols ?(config = Protocol.default_merge_config) ?(params = Cost.default_params)
    ~s0 ~tentative ~base () =
  Obs.Span.with_ ~name:"session.compare_protocols" @@ fun () ->
  Obs.Counter.incr obs_comparisons;
  let merge_result = merge_once ~config ~params ~s0 ~tentative ~base () in
  let engine, _ = base_setup ~s0 ~base in
  let rep =
    Protocol.reprocess ~acceptance:config.Protocol.acceptance ~params ~base:engine ~origin:s0
      ~tentative:(history tentative)
  in
  {
    merge_result;
    merge_cost = merge_result.report.Protocol.cost;
    reprocess_state = Engine.state engine;
    reprocess_cost = rep.Protocol.cost;
    reprocess_txns = rep.Protocol.txns;
  }
