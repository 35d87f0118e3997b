(** Seeded event traces for the synchronization simulator.

    [Sync.run] historically interleaved event scheduling with event
    handling in one loop over a single rng stream. The scheduling draws
    (exponential/Pareto gaps) and program generation never depend on
    merge outcomes, so the whole event sequence can be generated up
    front. That factoring is what lets the concurrent merge service
    ({!Repro_service}) consume the very same event stream as the serial
    simulator and be tested for byte-for-byte equivalence against it.

    [generate] replicates the historical draw order exactly: with the
    default exponential connect gap, [Sync.run] over a generated trace
    produces the same statistics as the original inlined loop did.

    Layout: a trace is two arrays indexed by event, the times unboxed
    in a [float array] and the events in an [event array]. Every
    connect of one mobile is the same [Connect] block, allocated once
    per mobile, so an event costs two words plus its payload: a
    three-word [Mobile_txn] or two-word [Base_txn] block and its
    program, or nothing more for a connect or a window boundary.
    {!iter} is the one way to walk a trace.

    Generation steps one event queue ({!Pqueue}) per event, whose
    sifts run in place and allocate nothing; names cost one string
    each. *)

open Repro_txn
module Rng = Repro_workload.Rng

(** What drives the simulated system. [initial] is the replicated
    database's starting state; the makers draw one transaction program
    per call (names are assigned by the generator: [M<i>T<n>] for
    mobile [i], [B<n>] at the base, each written digit by digit by
    {!Repro_workload.Gen.numbered2} and {!Repro_workload.Gen.numbered}). *)
type workload = {
  initial : State.t;
  make_mobile_txn : Rng.t -> name:string -> Program.t;
  make_base_txn : Rng.t -> name:string -> Program.t;
}

(** Distribution of the gap between a mobile's reconnections.
    [Pareto] is the power-law tail of {!Repro_workload.Gen.power_law_disconnect};
    both draw exactly one rng float, so switching distribution does not
    shift the rest of the seeded sequence. *)
type gap = Exponential of float | Pareto of { mean : float; alpha : float }

type params = {
  n_mobiles : int;
  duration : float;  (** simulated time horizon *)
  window : float;  (** resynchronization window length *)
  connect_gap : gap;
  mean_mobile_txn_gap : float;
  mean_base_txn_gap : float;
  seed : int;
}

type event =
  | Mobile_txn of { mobile : int; program : Program.t }
      (** mobile [mobile] commits [program] tentatively while disconnected *)
  | Base_txn of { program : Program.t }  (** committed directly at the base *)
  | Connect of { mobile : int }
      (** reconnection: the pending session merges. One block per
          mobile, shared by all of that mobile's connects. *)
  | Window_boundary  (** resync window boundary (Strategy 2) *)

type t

(** [generate params workload] draws the full event sequence for one
    simulation run: events in nondecreasing time order, cut at the first
    event past [params.duration] (none when the duration is not
    positive). Deterministic in [params.seed].
    @raise Invalid_argument when the duration is not finite (NaN or
    infinite: no event would pass it), or the window or a mean gap is
    not positive. *)
val generate : params -> workload -> t

(** [iter f t] calls [f time event] on every event in processing order
    (nondecreasing time; simultaneous events in scheduling order). *)
val iter : (float -> event -> unit) -> t -> unit

val params : t -> params

(** Number of events. O(1). *)
val length : t -> int
val pp_event : Format.formatter -> event -> unit
