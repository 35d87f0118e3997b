(** The concurrent base-side merge service.

    Turns the serial [Sync] pipeline into a sharded, multi-domain merge
    service over the same seeded event {!Repro_replication.Trace}:

    + {!Admission.windows} materializes per-window admission queues
      (sessions + base transactions, deterministic seeded order);
    + {!Dispatch.components} splits each window into independent
      components: events sharing an item someone in the window writes
      are grouped (the shard-level grouping it also computes is a
      measurement, not a filter);
    + a {!Pool} of OCaml 5 domains executes each component as a serial
      sub-simulation against a scratch engine seeded with the window
      origin restricted to the component's footprint
      ({!Dispatch.component}), running the same
      {!Repro_replication.Window} handlers as [Sync];
    + the coordinator folds every component's deltas back into the
      canonical WAL-backed base in admission order (an event's delta is
      the component engine's state after it and the items it changed,
      applied by {!Repro_db.Engine.apply_updates}), runs the
      per-component ground-truth serializability checks, and opens the
      next window at the folded state.

    The deterministic part of the report is a pure function of the trace
    and the service configuration — identical across runs and across
    domain counts — and provably equal to serial [Sync.run] on the same
    trace (correctness argument in docs/SERVICE.md, property-tested in
    test/test_service.ml). *)

open Repro_txn
module Sync = Repro_replication.Sync
module Cost = Repro_replication.Cost

type config = {
  shards : int;
  domains : int;  (** worker domains, >= 1; [1] runs inline *)
  scheme : Smap.scheme;
  seed : int;  (** admission tie-break seed *)
}

(** 16 hash shards, 1 domain, seed 11. *)
val default_config : config

(** Deterministic outcome: identical across runs, domain counts and
    scheduling. [cost_total] differs from serial Sync's (component
    slices build smaller precedence graphs — that is the point). *)
type det = {
  sessions : int;  (** non-empty reconnection sessions admitted *)
  merges : int;
  saved : int;
  reexecuted : int;
  rejected : int;
  late_sessions : int;
  late_txns : int;
  base_txns : int;
  tentative_txns : int;
  windows : int;
  violations : int;  (** windows failing the ground-truth replay check *)
  components : int;  (** dispatched component tasks *)
  parallel_windows : int;  (** windows dispatching >= 2 components *)
  shard_conflicted_sessions : int;
      (** sessions sharing a shard-level component with another session *)
  item_conflicted_sessions : int;
      (** same at item level — the shard/item gap is false sharing *)
  cost_total : float;
  final_base : State.t;
}

type timing = {
  wall_s : float;
  work_s : float;  (** sum of per-component busy times *)
  sessions_per_sec : float;
  p50_us : float;  (** session merge latency quantiles, microseconds *)
  p99_us : float;
  p999_us : float;
}

(** Per-shard and per-worker breakdown of a run. The shard arrays are
    deterministic (admission-order attribution); the worker arrays are
    scheduling-dependent timing attribution over *physical* workers
    (worker 0 = the coordinator's domain). *)
type breakdown = {
  bd_shard_sessions : int array;
      (** sessions touching each shard, summed over windows *)
  bd_shard_conflicted : int array;
      (** item-conflicted sessions touching each shard *)
  bd_worker_tasks : int array;  (** component tasks claimed per worker *)
  bd_worker_busy_s : float array;  (** busy seconds per worker *)
}

type report = {
  det : det;
  speedup : float;
      (** cost-model speedup of the dispatched schedule on
          [config.domains] domains: total component work divided by the
          LPT-scheduled critical path, aggregated over windows.
          Hardware-independent (single-core boxes included); [1.0] when
          [domains = 1]. *)
  timing : timing;  (** machine-dependent wall-clock measurements *)
  cost : Cost.tally;
  breakdown : breakdown;
}

(** [run ?recorder config sync workload trace] — serve every window of
    [trace]. Requires [sync.isolation = Strategy2] and
    [sync.merge_runner = None] (invalid_arg otherwise). The scheduling
    fields of [sync] are ignored — the trace fixes the events;
    [sync.protocol] and [sync.params] drive the merges.

    Telemetry is exact at any [domains] count: every component task runs
    in a fresh {!Repro_obs.Obs.Shard}, and the coordinator folds the
    shards back in task order at each window's barrier, so the merged
    registry (including worker-side [service.session] spans and trace
    events) is bit-identical across runs and domain counts.

    [recorder], when given, is invoked on the coordinator after each
    window's fold-back barrier with that window's {!Flight.sample}. *)
val run :
  ?recorder:(Flight.sample -> unit) ->
  config ->
  Sync.config ->
  Sync.workload ->
  Repro_replication.Trace.t ->
  report

(** Does the deterministic outcome agree with a serial [Sync.run] over
    the same trace? Compares verdict counters, ground-truth check
    results and the final base state (not costs). *)
val agrees_with_sync : det -> Sync.stats -> bool

val det_equal : det -> det -> bool
val pp_report : Format.formatter -> report -> unit
