(** Arithmetic expressions appearing on the right-hand side of updates and
    inside predicates.

    Expressions read data items and transaction input parameters and
    combine them with total integer operations. Totality matters: the
    paper's Definition 4 (can-precede) quantifies over all states and all
    fix values, so keeping every transaction defined on every state makes
    that definition — and the brute-force oracle that checks it — exact.
    Division and modulo by zero therefore yield [0] by convention
    (documented in DESIGN.md). *)

type t =
  | Const of int
  | Item of Item.t  (** read of a data item *)
  | Param of string  (** read of a transaction input parameter *)
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t  (** total: [Div (_, 0)] evaluates to [0] *)
  | Mod of t * t  (** total: [Mod (_, 0)] evaluates to [0] *)
  | Min of t * t
  | Max of t * t

(** [eval ~param ~read e] evaluates [e]; [param] resolves input parameters
    and [read] resolves data-item reads (the interpreter threads fix and
    local-write visibility through [read]). *)
val eval : param:(string -> int) -> read:(Item.t -> int) -> t -> int

(** All data items mentioned by the expression. *)
val items : t -> Item.Set.t

(** [add_items e acc] is [Item.Set.union (items e) acc], built by adding
    each item to [acc] rather than by unioning fresh sets. *)
val add_items : t -> Item.Set.t -> Item.Set.t

(** All input parameters mentioned by the expression. *)
val params : t -> string list

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

(** Convenience constructors used heavily by workloads and tests. *)

val int : int -> t
val item : string -> t
val param : string -> t
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
