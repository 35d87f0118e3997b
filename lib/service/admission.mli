(** Admission queue: from a seeded {!Repro_replication.Trace} to
    per-window queues of admitted work.

    A {e session} is one mobile's tentative history pending merge at its
    reconnection instant; a window's queue interleaves sessions with the
    base transactions committed during the window, in admission order
    (nondecreasing time, seeded tie-break). Sessions record the window
    their history originated in: an origin older than the current window
    marks the session late (Strategy 2's "connects too late"), to be
    reprocessed from its own origin snapshot instead of merged. *)

open Repro_txn

type session = {
  mobile : int;
  at : float;  (** reconnection time *)
  window_started : int;  (** window index of the history's origin *)
  programs : Program.t list;  (** tentative transactions, commit order *)
  reads : Item.Set.t;  (** union of static readsets *)
  writes : Item.Set.t;  (** union of static writesets *)
}

type wevent =
  | Base of { at : float; program : Program.t }
  | Session of session

type window = {
  index : int;
  events : wevent array;  (** admission order *)
}

(** Static item footprint: readset ∪ writeset. A superset of anything
    the event can dynamically touch, which is what makes footprint-based
    dispatch safe (see docs/SERVICE.md). *)
val footprint : wevent -> Item.Set.t

(** Static writeset. *)
val write_set : wevent -> Item.Set.t

(** [windows ~seed trace] — the admission queues, one window per
    boundary event plus the trailing partial window, together with the
    trace-wide (base, tentative) transaction counts. Deterministic in
    [trace] and [seed]. *)
val windows : seed:int -> Repro_replication.Trace.t -> window list * int * int
