(** History equivalence notions, for the tests.

    The rewriting model works with {e final state equivalence}: two
    histories over the same transaction set are equivalent at [s0] when
    their executions from [s0] end in identical states. The paper notes
    this is weaker than conflict or view equivalence; [conflict_equivalent]
    is provided so tests can exhibit histories that are final-state but not
    conflict equivalent (the paper's H1/H3 discussion), and [prefix_of] is
    Theorem 3's comparison. The library decides nothing by them, so they
    live with the test oracles. *)

open Repro_history

(** [final_state_equivalent s0 h1 h2] — same transaction-name sets and
    identical final states from [s0]. *)
val final_state_equivalent : Repro_txn.State.t -> History.t -> History.t -> bool

(** [same_transactions h1 h2] — equal transaction-name sets. *)
val same_transactions : History.t -> History.t -> bool

(** [conflict_equivalent s0 h1 h2] — same transactions and the same
    ordering of every pair of dynamically conflicting transactions (two
    transactions conflict when one dynamically writes an item the other
    dynamically reads or writes). Fixes must be empty in both histories
    for the notion to be meaningful; the check executes both histories
    from [s0] to obtain dynamic sets. *)
val conflict_equivalent : Repro_txn.State.t -> History.t -> History.t -> bool

(** [prefix_of h1 h2] — the name sequence of [h1] is a prefix of that of
    [h2] (Theorem 3's comparison). *)
val prefix_of : History.t -> History.t -> bool
