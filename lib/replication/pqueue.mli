(** A mutable min-priority queue keyed by float timestamps — the event
    queue of the discrete-event simulator.

    Entries are served by key, then in insertion order: each push (and
    each {!replace_min}) takes the next insertion stamp, and two entries
    with equal keys come out in stamp order, keeping simulations
    deterministic.

    Layout: a 4-ary heap whose keys and stamps sit in a flat
    [float array] and [int array] indexed by heap position. Each value
    stays in one slot of a value array from its push to its pop, and the
    heap positions name their slots, so sifting compares unboxed floats
    and moves only floats and ints. Both sifts run in place, as loops
    that hold the moving key in a local, so they allocate nothing
    whatever the depth they cross (a caller that computes a key boxes it
    once, to pass it). They compare by key, then insertion stamp, so the
    tie order above is the whole order. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int
val push : 'a t -> float -> 'a -> unit

(** Smallest key with its value, removed; [None] when empty. *)
val pop : 'a t -> (float * 'a) option

(** Smallest key with its value, left in place; [None] when empty. *)
val min : 'a t -> (float * 'a) option

(** [replace_min q k v] is [ignore (pop q); push q k v] — the entry
    takes a fresh insertion stamp — done in one sift instead of two. On
    an empty queue it is [push q k v]. *)
val replace_min : 'a t -> float -> 'a -> unit

val peek_key : 'a t -> float option
