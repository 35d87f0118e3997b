(** Serial histories of fixed transactions, and their augmented executions.

    A history is the paper's [H^s]: a sequence of transactions, each
    decorated with a fix (empty for ordinary execution histories). An
    {e execution} augments the history with explicit database states —
    the before and after state of every transaction — which is exactly the
    information the pruning approaches of Section 6 consume
    ([AG_k.beforestate.x], [AG_k.afterstate.x], physical before-images for
    undo). *)

type entry = { program : Repro_txn.Program.t; fix : Repro_txn.Fix.t }

type t

exception Duplicate_name of string

(** [of_entries entries] builds a history. The names are checked in
    list order against a {!Names.Set} of the earlier ones: O(n log n),
    with no table to allocate, so a short history costs a few set nodes.
    @raise Duplicate_name if two entries share a program name, carrying
    the name of the first entry an earlier one shares its name with. *)
val of_entries : entry list -> t

(** [of_programs ps] builds a history of unfixed transactions. *)
val of_programs : Repro_txn.Program.t list -> t

val entries : t -> entry list
val programs : t -> Repro_txn.Program.t list
val names : t -> string list
val name_set : t -> Names.Set.t
val length : t -> int
val is_empty : t -> bool
val append : t -> t -> t

(** [find t name] is the entry named [name].
    @raise Not_found when absent. *)
val find : t -> string -> entry

val mem : t -> string -> bool

(** [restrict t keep] keeps only entries whose name satisfies [keep],
    preserving order. *)
val restrict : t -> (string -> bool) -> t

(** Union of the static read sets of all entries. *)
val readset : t -> Repro_txn.Item.Set.t

(** Union of the static write sets of all entries. *)
val writeset : t -> Repro_txn.Item.Set.t

(** An augmented execution: one interpreter record per position. *)
type execution = {
  history : t;
  initial : Repro_txn.State.t;
  records : Repro_txn.Interp.record list;  (** in history order *)
  final : Repro_txn.State.t;
}

(** [execute s0 t] runs every entry in order (honouring fixes) from
    [s0]. *)
val execute : Repro_txn.State.t -> t -> execution

val final_state : Repro_txn.State.t -> t -> Repro_txn.State.t

(** The record of the transaction named [name] in an execution.
    @raise Not_found when absent. *)
val record_of : execution -> string -> Repro_txn.Interp.record

val pp : Format.formatter -> t -> unit
