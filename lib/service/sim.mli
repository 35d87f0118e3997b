(** Large-scale service simulation: 10k–100k mobiles against the
    concurrent merge service.

    The workload is the paper's disconnected-salesperson model scaled
    up: each mobile owns a small private home region of items and
    occasionally touches a Zipf-skewed shared pool ([locality] is the
    probability an item pick stays home). Disconnection lengths are
    Pareto power-law tailed by default
    ({!Repro_workload.Gen.power_law_disconnect}); transaction type mix
    comes from {!Repro_workload.Gen.transaction_over}. *)

type config = {
  mobiles : int;
  duration : float;
  window : float;
  mean_connect_gap : float;
  disconnect_alpha : float option;
      (** [Some a]: Pareto tail index for disconnection lengths;
          [None]: exponential *)
  mean_mobile_txn_gap : float;
  mean_base_txn_gap : float;
  items_per_mobile : int;  (** home region size *)
  shared_items : int;  (** global hot pool size *)
  locality : float;  (** probability an item pick is home-local *)
  zipf_skew : float;
  commuting_fraction : float;
  seed : int;
  shards : int;
  domains : int;
  range_shards : bool;
      (** [true]: range shard map over the item universe (home regions
          stay contiguous); [false]: hash shards *)
}

(** 10k mobiles, 5-unit windows over 15 units, Pareto(1.6) disconnects
    of mean 2, 8-item home regions + 128 shared items at locality 0.99,
    16 range shards, 1 domain, seed 42. *)
val default_config : config

(** The full item universe in generation order — the range shard map's
    key space. Index [j] is shared item [g<j>] for [j < shared_items];
    home item [m<mobile>.d<j>] is at
    [shared_items + mobile * items_per_mobile + j]. Each name is one
    string written digit by digit by {!Repro_workload.Gen.numbered} or
    {!Repro_workload.Gen.numbered2}. *)
val universe : config -> Repro_txn.Item.t array

(** The workload model. It builds {!universe} once, folds its initial
    state straight from it with one value per entry, in index order, and
    names its programs' items by the universe's own strings (looked up
    by the layout above), so one workload's programs share one copy of
    each name. Its programs come from
    {!Repro_workload.Gen.transaction_over}, whose additive parameters
    take their [amt<i>] names from one shared table. A mobile outside
    [[0, mobiles)], which only a trace generated for a bigger fleet
    carries, gets fresh home-item names. *)
val workload : config -> Repro_replication.Sync.workload
val sync_config : config -> Repro_replication.Sync.config
val service_config : config -> Service.config

type result = {
  report : Service.report;
  baseline : Service.report option;
      (** same trace served on a single domain, when requested *)
  baseline_matches : bool;
      (** parallel and single-domain deterministic outcomes are
          identical (vacuously true with no baseline) *)
  obs_parity : bool option;
      (** the parallel run's merged Obs registry equals the baseline's
          on every deterministic metric ({!Repro_obs.Report.strip_timings});
          [None] with no baseline or with metrics disabled *)
  wall_speedup : float option;  (** baseline wall / parallel wall *)
  events : int;  (** trace length *)
}

(** [run ?baseline ?recorder cfg] — generate one seeded trace and serve
    it. [baseline] defaults to [domains > 1]; when on, the same trace is
    first served with [domains = 1] inside a detached Obs shard (its
    telemetry is compared for {!result.obs_parity}, then discarded) for
    the cross-domain determinism check and the measured wall speedup.
    [recorder] receives the parallel run's per-window
    {!Flight.sample}s. *)
val run : ?baseline:bool -> ?recorder:(Flight.sample -> unit) -> config -> result

val pp_result : Format.formatter -> result -> unit
