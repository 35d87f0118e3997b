(** Zipf-distributed item selection.

    Mobile database workloads are hot-spot heavy (a salesperson touches the
    same few accounts all day); the conflict rate between tentative and
    base histories is controlled in the experiments by the skew parameter
    [s] of a Zipf distribution over the item universe. [s = 0] degenerates
    to the uniform distribution. *)

type t

(** [make ~n ~skew] — a sampler over ranks [0 .. n-1] with
    P(rank k) ∝ 1/(k+1)^skew. A negative skew is well defined: it
    prefers high ranks.
    @raise Invalid_argument if [n] is not positive or [skew] is not
    finite (NaN or infinite). *)
val make : n:int -> skew:float -> t

val sample : t -> Rng.t -> int

(** [sample_distinct t rng k] — [k] distinct ranks (or [n] if [k > n]). *)
val sample_distinct : t -> Rng.t -> int -> int list
