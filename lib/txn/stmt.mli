(** Transaction statements, following the program model of the paper's
    Section 6.2:

    - a transaction is a sequence of statements;
    - each statement is a read, an update of the form
      [x := f(x, y_1, ..., y_n)], or a conditional
      [if c then ss1 else ss2];
    - each statement updates at most one data item (guaranteed by the
      constructors);
    - each data item is updated at most once per transaction (checked by
      {!Program.validate}). *)

type t =
  | Read of Item.t
      (** An explicit read statement. Algorithm 3's third pass removes
          useless read statements, so reads are first-class here. *)
  | Update of Item.t * Expr.t
      (** [Update (x, e)]: [x := e]. The written item is always considered
          read as well (the paper's no-blind-writes assumption: a
          transaction reads a value before writing it). *)
  | Assign of Item.t * Expr.t
      (** [Assign (x, e)]: a {e blind} write — [x := e] without reading
          [x] first. The paper assumes these away in the rewriting model
          ("the rewriting approach can be adapted to blind writes");
          this implementation carries the adaptation: Definition 3 gains
          a write-write disjointness condition (see
          {!Semantics.can_follow}), everything else falls out. Example 1
          uses blind writes, so this constructor lets it exist at the
          program level. *)
  | If of Pred.t * t list * t list
      (** [If (c, ss1, ss2)]: [if c then ss1 else ss2]. *)

(** Items read by the statement, including the implicit read of the updated
    item and the items read by guards (over-approximated across both
    branches). *)
val read_items : t -> Item.Set.t

(** Items possibly updated by the statement (union over branches). *)
val write_items : t -> Item.Set.t

(** Items updated on {e every} execution path through the statement. *)
val must_write_items : t -> Item.Set.t

val params : t -> string list
val params_of_seq : t list -> string list
val pp : Format.formatter -> t -> unit
val pp_list : Format.formatter -> t list -> unit

(** Set accumulators over statement sequences: [add_reads_of_seq ss acc]
    is the union of [acc] and the {!read_items} of every statement of
    [ss], and [add_writes_of_seq] the same for {!write_items}. Each item
    is added to [acc] directly, so no set is built per statement or per
    expression node. *)

val add_reads_of_seq : t list -> Item.Set.t -> Item.Set.t
val add_writes_of_seq : t list -> Item.Set.t -> Item.Set.t
