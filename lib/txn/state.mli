(** Database states.

    A state assigns an integer value to every data item of a finite
    universe. States are persistent (updates share structure), which keeps
    augmented histories — one state per history position — cheap. Items
    absent from the map read as [0]; this makes every state total over any
    item universe, matching the paper's implicit assumption that all items
    exist from the initial state onwards. *)

type t

val empty : t

(** [of_list bindings] builds a state from item/value pairs. Later bindings
    win. *)
val of_list : (Item.t * int) list -> t

val to_list : t -> (Item.t * int) list

(** [get state x] is the value of [x], defaulting to [0] for unbound
    items. *)
val get : t -> Item.t -> int

(** [set state x v] rebinds [x] to [v]. *)
val set : t -> Item.t -> int -> t

(** [exchange state x v] is [(get state x, set state x v)] in one walk
    from the root to [x] instead of two: the value [x] had (the default
    [0] when unbound) and the state with [x] rebound to [v]. The new
    state is the tree [set] builds. *)
val exchange : t -> Item.t -> int -> int * t

(** [restrict state items] keeps only the bindings of [items]: an item
    of [items] unbound in [state] stays unbound. One lookup per item,
    O(k log n) for k items over a state of n bindings, so projecting a
    large state onto a small footprint costs the footprint, not the
    state. *)
val restrict : t -> Item.Set.t -> t

(** Structural equality on the non-default bindings, treating missing items
    as [0] on either side. O(1) on physically equal states; otherwise one
    ordered walk of both, O(|s1| + |s2|), when their bindings are
    identical, and a {!diff} walk as well when they are not. It builds no
    filtered copies. *)
val equal : t -> t -> bool

val items : t -> Item.Set.t

(** [diff s1 s2] is the set of items whose values differ between [s1]
    and [s2], an unbound item reading as [0] on either side; it is empty
    iff [equal s1 s2]. One ordered walk of both states:
    O(|s1| + |s2|). *)
val diff : t -> t -> Item.Set.t

val pp : Format.formatter -> t -> unit

(** [merge_updates base updates items] overwrites [base]'s bindings for
    [items] with their values in [updates]; this is the protocol's step 5
    "forward only the final values" operation. *)
val merge_updates : t -> t -> Item.Set.t -> t
