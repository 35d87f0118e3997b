(* Workload table, metric names and units, and the result line. The
   names and units here are the ones BENCHMARK.json declares; the test
   suite keeps the two in step. *)

let fleet ~hot ~name ~size ~seed ~seconds ~traced =
  if traced then Fleet.trace ~hot ~size ~seed ~seconds else Fleet.measure ~name ~hot ~size ~seed ~seconds

let replica ~name ~size ~seed ~seconds ~traced =
  if traced then Replica.trace ~size ~seed ~seconds else Replica.measure ~name ~size ~seed ~seconds

let workloads =
  [ ("fleet-local", fleet ~hot:false); ("fleet-hot", fleet ~hot:true); ("replica-cluster", replica) ]

(* Every workload reports every end-to-end metric: sessions are the
   fleets' unit of work and the cluster's mobile syncs; throughput is
   sessions served per processor second on the fleets and transactions
   decided at every base per processor second on the cluster. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_per_cpu_s", "1/s");
    ("session_p50_us", "us");
    ("heap_live_mb", "MiB");
  ]

let per_layer =
  [
    ("workload.trace_generate_s", "s");
    ("workload.schedule_generate_s", "s");
    ("service.admission_s", "s");
    ("service.dispatch_s", "s");
    ("service.worker_busy_frac", "frac");
    ("service.window_ms_max", "ms");
    ("service.merge_p99_us", "us");
    ("service.components", "count");
    ("service.parallel_windows", "count");
    ("service.item_conflict_frac", "frac");
    ("service.shard_false_sharing_frac", "frac");
    ("service.component_s", "s");
    ("service.handler_s", "s");
    ("precedence.build_s", "s");
    ("precedence.incremental_updates", "count");
    ("precedence.cyclic_graphs", "count");
    ("backout.compute_s", "s");
    ("backout.computed", "count");
    ("rewrite.run_s", "s");
    ("rewrite.pair_checks", "count");
    ("rewrite.moves", "count");
    ("prune.compensate_s", "s");
    ("prune.undo_s", "s");
    ("prune.compensators_run", "count");
    ("protocol.merge_s", "s");
    ("protocol.reprocess_s", "s");
    ("protocol.reexecute_s", "s");
    ("protocol.txn_merged", "count");
    ("protocol.txn_reexecuted", "count");
    ("protocol.saved_frac", "frac");
    ("db.wal_forces", "count");
    ("db.wal_records", "count");
    ("db.group_commit.coalesced", "count");
    ("db.txns_committed", "count");
    ("db.forces_per_txn", "ratio");
    ("fault.session_s", "s");
    ("fault.overhead_s", "s");
    ("fault.retries", "count");
    ("fault.net_sent", "count");
    ("fault.net_dropped", "count");
    ("multibase.session_op_ms", "ms");
    ("multibase.session_op_p99_us", "us");
    ("multibase.exchange_op_ms", "ms");
    ("multibase.base_txn_op_ms", "ms");
    ("multibase.tick_op_ms", "ms");
    ("multibase.exchange_s", "s");
    ("multibase.integrate_s", "s");
    ("multibase.commit_s", "s");
    ("multibase.commit_fast_frac", "frac");
    ("multibase.tentative_depth_max", "count");
    ("multibase.stable_spread", "count");
    ("multibase.round_growth", "ratio");
    ("multibase.round_p50_ms", "ms");
    ("multibase.round_p90_ms", "ms");
    ("multibase.commit_lag_rounds_p50", "rounds");
    ("multibase.commit_lag_rounds_p99", "rounds");
    ("obs.trace_overhead_frac", "frac");
  ]

let outcome ~size ~workload ~seed ~seconds ~traced =
  match List.assoc_opt workload workloads with
  | None -> None
  | Some run -> Some (run ~name:workload ~size ~seed ~seconds ~traced)

(* The result line: every declared metric of the run's kind, in
   declaration order. A metric a workload's layers never touch reads 0. *)
let result_line ~traced (o : Stats.outcome) =
  let specs = if traced then per_layer else end_to_end in
  Stats.result_line ~correct:(o.Stats.problems = []) ~attempted:o.Stats.attempted
    ~failed:o.Stats.failed
    (List.map
       (fun (name, unit_) ->
         (name, unit_, Option.value (List.assoc_opt name o.Stats.values) ~default:0.0))
       specs)
