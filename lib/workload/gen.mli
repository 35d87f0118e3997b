(** Random canned-system workload generator.

    Models the paper's "canned system": a fixed pool of transaction types
    over a shared item universe, from which histories are drawn. The key
    experiment knobs are:

    - [commuting_fraction]: share of types whose updates are pure additive
      deltas (the fragment the can-precede detector can save) — the sweep
      variable of experiment E4;
    - [zipf_skew]: hot-spot skew of item selection, which controls the
      conflict rate between tentative and base histories (E3, E6);
    - [writes_per_txn] / [extra_reads]: read/write-set sizes (the paper's
      Section 7.1 lists transaction "characteristics" as the deciding
      factor between merging and reprocessing).

    Non-commuting types mix value assignments ([x := y + c]),
    multiplicative updates ([x := x * 2]) and guarded updates; guarded
    additive types exercise the guard-aware part of the detector. *)

open Repro_txn
open Repro_history

type profile = {
  n_items : int;
  commuting_fraction : float;
  writes_per_txn : int * int;  (** inclusive range *)
  extra_reads : int * int;  (** read-only items on top of written ones *)
  zipf_skew : float;
  guard_fraction : float;
      (** among non-commuting instantiations, the share that use guards *)
}

val default_profile : profile

(** [numbered p n] is [p ^ string_of_int n], and [numbered2 p n q m] is
    [p ^ string_of_int n ^ q ^ string_of_int m]: each is written digit
    by digit into one fresh string, with no intermediate string and no
    formatting. Generated names go through them: this module's items
    and transactions, the simulator's [M<i>T<n>] and [B<n>]
    ([Repro_replication.Trace.generate]) and the service workload's
    [g<j>] and [m<i>.d<j>] ([Repro_service.Sim.universe]). *)
val numbered : string -> int -> string

val numbered2 : string -> int -> string -> int -> string

type pool

(** [pool profile] prepares the item universe and samplers. *)
val pool : profile -> pool

val items : pool -> Item.t list

(** [initial_state pool rng] — every item bound to a value in [50, 150]
    (large enough that guards and balances behave realistically). *)
val initial_state : pool -> Rng.t -> State.t

(** [transaction pool rng ~name] — one random transaction instance. *)
val transaction : pool -> Rng.t -> name:string -> Program.t

(** [transaction_over profile rng ~name ~writes ~reads] — one random
    transaction instance over caller-chosen items: [writes] are updated,
    [reads] only read. Item selection is the caller's (e.g. a locality
    mixture in the service simulator); only the type mix and parameter
    draws come from [profile]/[rng]. An additive program names the
    parameter of its [i]-th write [amt<i>]; the first eight of those
    names come from one table, so programs share them instead of
    carrying copies of their own. *)
val transaction_over :
  profile -> Rng.t -> name:string -> writes:Item.t list -> reads:Item.t list -> Program.t

(** [power_law_disconnect ~mean ~alpha rng] — a Pareto-tailed duration
    with the given mean and tail index [alpha > 1] (heavier tail as
    [alpha] approaches 1). Scale is [mean*(alpha-1)/alpha], so
    [P(X > x) = (scale/x)^alpha] for [x >= scale]. Models mobile
    disconnection lengths, which empirically are power-law rather than
    exponential. Consumes exactly one rng float per draw. *)
val power_law_disconnect : mean:float -> alpha:float -> Rng.t -> float

(** [history pool rng ~prefix ~length] — a history of [length] instances
    named [prefix1 .. prefixN]. *)
val history : pool -> Rng.t -> prefix:string -> length:int -> History.t

(** [mobile_base_pair pool rng ~tentative_len ~base_len] — an [H_m]/[H_b]
    pair over the shared universe, named [Tm*]/[Tb*]. *)
val mobile_base_pair :
  pool -> Rng.t -> tentative_len:int -> base_len:int -> History.t * History.t

(** Abstract summary-level generator (blind writes permitted), for the
    back-out strategy experiment E6 where only read/write sets matter.
    [blind] is the probability that a written item is not read. *)
val summaries :
  Rng.t ->
  n_items:int ->
  tentative:int ->
  base:int ->
  reads:int * int ->
  writes:int * int ->
  skew:float ->
  blind:float ->
  Repro_precedence.Summary.t list * Repro_precedence.Summary.t list
