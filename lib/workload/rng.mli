(** Deterministic pseudo-random number generator (splitmix64).

    Every workload, experiment and benchmark in the reproduction is seeded
    explicitly, so any reported number can be regenerated exactly. *)

type t

val create : int -> t

(** [int t bound] — uniform in [0, bound); [bound] must be positive. *)
val int : t -> int -> int

(** [in_range t lo hi] — uniform in [lo, hi] inclusive. *)
val in_range : t -> int -> int -> int

(** [float t] — uniform in [0, 1). *)
val float : t -> float

(** [bool t p] — [true] with probability [p]. *)
val bool : t -> float -> bool

(** [pick t l] — uniform element of the non-empty list [l]. *)
val pick : t -> 'a list -> 'a

(** [sample t k l] — [k] distinct elements of [l] (all of [l] when
    [k >= length l]), in stable order. *)
val sample : t -> int -> 'a list -> 'a list

(** [split t] — an independent generator derived from [t]'s stream. *)
val split : t -> t
