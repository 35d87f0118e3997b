(** Boolean predicates guarding conditional statements, e.g. the paper's
    [if x > 0 then ...] and [if y > 200 then ... else ...]. *)

type t =
  | True
  | False
  | Eq of Expr.t * Expr.t
  | Ne of Expr.t * Expr.t
  | Lt of Expr.t * Expr.t
  | Le of Expr.t * Expr.t
  | Gt of Expr.t * Expr.t
  | Ge of Expr.t * Expr.t
  | Not of t
  | And of t * t
  | Or of t * t

val eval : param:(string -> int) -> read:(Item.t -> int) -> t -> bool

(** Data items read when evaluating the predicate. *)
val items : t -> Item.Set.t

(** [add_items p acc] is [Item.Set.union (items p) acc], accumulated as
    {!Expr.add_items} does. *)
val add_items : t -> Item.Set.t -> Item.Set.t

val params : t -> string list
val pp : Format.formatter -> t -> unit
