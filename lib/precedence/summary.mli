(** Transaction summaries: the view of a transaction the merging protocol
    ships to the base node — its name, origin and read/write sets.

    The precedence graph needs nothing more (the paper's Section 7.1:
    "transmit the readset and writeset of each transaction in the
    tentative history"). Summaries either are declared directly (the
    paper's Example 1, which uses blind writes and therefore lives at this
    level) or are extracted from the dynamic records of an execution. *)

type kind = Tentative | Base

type t = {
  name : Repro_history.Names.t;
  kind : kind;
  readset : Repro_txn.Item.Set.t;
  writeset : Repro_txn.Item.Set.t;
}

(** Declare a summary directly from item-name lists (duplicates are
    collapsed by the set construction). *)
val make :
  name:string -> kind:kind -> reads:string list -> writes:string list -> t

(** Summary of one executed transaction, using its {e dynamic} read and
    write sets. *)
val of_record : kind:kind -> Repro_txn.Interp.record -> t

(** Summaries of a whole execution, in history order. *)
val of_execution : kind:kind -> Repro_history.History.execution -> t list

(** [is_tentative t] — [t.kind = Tentative]. *)
val is_tentative : t -> bool

(** [conflicts a b] — some item is written by one and read or written by
    the other. Three disjointness tests; allocates nothing. *)
val conflicts : t -> t -> bool

(** Debug printer: name, kind and both item sets. *)
val pp : Format.formatter -> t -> unit
