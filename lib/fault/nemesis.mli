(** Nemesis harness: merge sessions under arbitrary fault schedules.

    Generates random fault schedules (drops, duplicates, latency spreads,
    partitions, node crashes at protocol points — and, with a disk
    schedule, torn writes, short writes, bit flips, read truncation and
    fsync lies), plus random banking workloads; runs each merge once
    fault-free and once through {!Session.run_merge} over the faulty
    wire, and checks the exactly-once contract:

    - a {e completed} session leaves the base in exactly the fault-free
      final state, with exactly one ["applied"] journal marker, a logical
      history that replays to the base state (ground-truth
      serializability) and a durable ({!Repro_db.Engine.recover}) state
      equal to the committed one;
    - an {e aborted} session leaves the base state untouched, journals
      nothing, and reprocessing still works as the fallback — unless the
      abort was a {e detected storage failure}, in which case the base
      must hold a verified prefix of its pre-session log (no markers, no
      commit-group effects) with the state replayed from exactly that
      prefix.

    When a disk is attached, every case additionally forces a final
    crash-restart and checks corruption safety: the recovered log is a
    structural prefix of the believed-durable log, the loss report is
    exact (no silent loss), the rebuilt state is the independent replay
    of the recovered prefix, and {!Repro_db.Salvage} recovers exactly
    the longest valid durable prefix from the medium (verified clean by
    {!Repro_db.Scrub}).

    The qcheck property in [test/test_fault.ml] and the [repro_cli
    nemesis [--disk]] sweep both drive {!check_case}. *)

(** Draw a random network fault schedule (consumes the given rng
    stream). *)
val random_schedule : Repro_workload.Rng.t -> Net.schedule

(** Draw a random disk fault schedule. *)
val random_disk_schedule : Repro_workload.Rng.t -> Repro_db.Block.schedule

type verdict = {
  completed : bool;  (** session completed (vs aborted + fell back) *)
  resumed : bool;
  crashes : int;
  retries : int;
  forced : bool;
  damaged : bool;  (** the base detected a storage failure *)
}

(** [check_case ?disk ~seed ~schedule ()] builds the workload from
    [seed], the transport from [seed + 1] and (when [disk] is given) the
    device from [seed + 2], runs reference and faulty merges and checks
    the contract. [Error] carries the first violated assertion. *)
val check_case :
  ?disk:Repro_db.Block.schedule ->
  seed:int ->
  schedule:Net.schedule ->
  unit ->
  (verdict, string) result

(** A sweep keeps the verdict of every passing case. *)
type sweep = verdict Sweep.t

(** [run_sweep ?disk ~seed ~count ()] checks [count] cases with
    schedules drawn from [seed]; case [i] uses workload seed [seed + i].
    With [~disk:true] every case also draws a disk fault schedule and
    runs the combined disk+net checks. *)
val run_sweep : ?disk:bool -> seed:int -> count:int -> unit -> sweep

(** The verdicts summed over the passing cases ([aborted] counts the
    ones that did not complete, [damaged] the ones where the base
    detected a storage failure), then the failures. *)
val pp_sweep : Format.formatter -> sweep -> unit
