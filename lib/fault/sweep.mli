(** The seeded fault-sweep driver shared by the nemeses.

    A sweep runs one checker on the consecutive seeds
    [seed .. seed + count - 1], in that order, so a checker that draws
    from a stream of its own (a schedule generator, say) sees the same
    draws on every run. It keeps what each passing case reports and the
    violation of each failing one; every failing seed replays alone. *)

type 'a t = {
  cases : int;
  passed : 'a list;  (** results of the passing cases, in seed order *)
  failures : (int * string) list;  (** (seed, violation), in seed order *)
}

(** [run ~seed ~count check] checks cases [seed] to [seed + count - 1]. *)
val run : seed:int -> count:int -> (int -> ('a, string) result) -> 'a t

(** [pp header ppf t] prints [header] then one [FAIL seed=S: msg] line
    per failure, in one vertical box. *)
val pp : (Format.formatter -> 'a t -> unit) -> Format.formatter -> 'a t -> unit

(** [frac rng lo hi] — uniform in \[[lo], [hi]), the draw the nemeses'
    schedule generators build on. *)
val frac : Repro_workload.Rng.t -> float -> float -> float
