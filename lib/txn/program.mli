(** Transaction programs.

    A program is a named instance of a transaction type: a statement body
    together with bound input parameters. Read and write sets are derived
    statically from the body; because updates have the form
    [x := f(x, ...)], the static write set is always contained in the
    static read set — the paper's no-blind-writes assumption holds by
    construction. *)

type t = private {
  name : string;  (** unique name within a history, e.g. ["Tm3"] *)
  ttype : string;
      (** transaction type, e.g. ["deposit"]; canned systems pre-compute
          can-precede relations per type pair *)
  params : (string * int) list;  (** bound input parameters *)
  body : Stmt.t list;
}

exception Ill_formed of string

(** [make ~name ?ttype ?params body] builds and validates a program.

    @raise Ill_formed if some execution path updates the same item twice
    (the paper's Section 6.2 restriction), or if the body mentions an
    unbound parameter. *)
val make : name:string -> ?ttype:string -> ?params:(string * int) list -> Stmt.t list -> t

(** [rename t name] is [t] with a different instance name (same type,
    parameters, and body). *)
val rename : t -> string -> t

(** Static read set: every item the body can read, including implicit reads
    of updated items. *)
val readset : t -> Item.Set.t

(** Static write set: every item the body can update on some path. *)
val writeset : t -> Item.Set.t

(** [add_readset t acc] is [Item.Set.union (readset t) acc] and
    [add_writeset t acc] is [Item.Set.union (writeset t) acc]. Both add
    the body's items to [acc] one by one ({!Stmt.add_reads_of_seq}), so
    folding them over a list of programs builds one set per fold. *)
val add_readset : t -> Item.Set.t -> Item.Set.t

val add_writeset : t -> Item.Set.t -> Item.Set.t

(** [readset t - writeset t]; Lemma 2's coarse fix. *)
val read_only_items : t -> Item.Set.t

val is_read_only : t -> bool
val param : t -> string -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val pp_full : Format.formatter -> t -> unit
