(** Seeded multi-base fault sweeps: the base-partition nemesis.

    Each case builds a random cluster (3-4 bases, 2-4 mobiles), runs a
    random operation mix — disconnected mobile sessions syncing at
    random bases over faulty links, base-local transactions, pairwise
    anti-entropy exchanges over links with drops, duplicates, hard
    base-from-base partitions, asymmetric directions and injected base
    crash/restarts, plus standalone crash-restarts and clock ticks —
    then heals the cluster and enforces {!Cluster.check}'s convergence
    contract. Every draw comes from the case seed, so a failing seed
    replays exactly. *)

module Net = Repro_fault.Net
module Sweep = Repro_fault.Sweep

(** [partition_rate] is the probability a drawn link schedule carries a
    partition — half of those are {e hard} (down for the whole
    exchange); [crash_rate] the probability it injects a responder
    crash-restart. *)
val random_schedule :
  ?partition_rate:float -> ?crash_rate:float -> Repro_workload.Rng.t -> Net.schedule

type case = { bases : int; mobiles : int; ops : Cluster.op list }

(** Omitted shape parameters ([bases], [mobiles], [n_ops]) are drawn
    from the seed. [crash_at] pins the crash injection: every drawn
    schedule then carries exactly [Base_after_handling crash_at] —
    the responder of every exchange dies on its [crash_at]-th message
    (CLI [--base-crash-at]). *)
val random_case :
  ?partition_rate:float ->
  ?crash_rate:float ->
  ?bases:int ->
  ?mobiles:int ->
  ?n_ops:int ->
  ?crash_at:int ->
  seed:int ->
  unit ->
  case

(** Run one case and check the convergence contract: [Ok stats], or
    [Error violations] (joined with ["; "]). *)
val check_case :
  ?partition_rate:float ->
  ?crash_rate:float ->
  seed:int ->
  unit ->
  (Cluster.stats, string) result

(** A sweep keeps the cluster statistics of every passing case. *)
type sweep = Cluster.stats Sweep.t

(** [run_sweep ~seed ~count ()] checks the cases [seed] to
    [seed + count - 1]. *)
val run_sweep :
  ?partition_rate:float ->
  ?crash_rate:float ->
  seed:int ->
  count:int ->
  unit ->
  sweep

(** [ok] counts the passing cases; the other figures are their
    statistics summed ([aborted] is [session_aborts]). *)
val pp_sweep : Format.formatter -> sweep -> unit
