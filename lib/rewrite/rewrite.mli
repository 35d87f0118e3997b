(** The paper's rewriting algorithms (Sections 4 and 5).

    Given a serial tentative history [H^s] executed from [s0] and the set
    [B] of undesirable transactions, a rewriter produces a final-state
    equivalent history [H_e^s] whose prefix [H_r^s] — the {e repaired
    history} — contains only desirable transactions; the suffix holds
    [B] plus the affected transactions that could not be saved, each
    decorated with the fix that keeps the rewritten history equivalent.

    Four rewriters are provided:
    - [Closure] — the reads-from transitive-closure back-out of [Dav84]:
      saves exactly [G − AG]; no fixes (the baseline of Theorem 3);
    - [Can_follow] — Algorithm 1: saves exactly [G − AG] (Theorem 2) and
      produces the fixed suffix enabling later pruning; Theorem 3 makes
      the closure survivors a prefix of its output;
    - [Can_follow_precede] — Algorithm 2: additionally saves affected
      transactions that can precede the fixed bad block (Definition 4);
    - [Commute_only] — the commutes-backward-through rewriter used as the
      comparison point by Theorem 4 ([CBTR ⊆ FPR]).

    Can-follow tests use the {e dynamic} read/write sets of the original
    execution: a transaction replays identically after a move because
    every value it actually reads is preserved (or pinned by a fix), so
    dynamic sets are sound here and save strictly more than static sets.
    The affected set is correspondingly the dynamic reads-from closure. *)

open Repro_txn
open Repro_history

type algorithm = Closure | Can_follow | Can_follow_precede | Commute_only

val all_algorithms : algorithm list
val algorithm_name : algorithm -> string

(** Fix bookkeeping mode: [Exact] applies Lemma 1 (accumulate
    [T'.readset ∩ T.writeset] per jump); [Coarse] applies Lemma 2
    (replace every non-empty fix by [readset − writeset] afterwards — with
    the writeset taken dynamically, the adaptation Lemma 2 needs once
    can-follow itself is tested on dynamic sets). *)
type fix_mode = Exact | Coarse

(** Which read/write sets drive can-follow tests and the affected set:
    [Dynamic] (default; what the execution actually touched — saves
    strictly more) or [Static] (the declared program sets — the paper's
    literal formulation, and what a system without read logging must
    use). *)
type set_mode = Dynamic | Static

(** Which relation justified pushing the mover past one blocked
    transaction. *)
type jump = { jumped : Names.t; via : [ `Can_follow | `Can_precede ] }

(** One successful move of the scan: the mover and, in block order, every
    transaction it was pushed past. *)
type move = { mover : Names.t; jumps : jump list }

(** How one pair test resolved (captured only under [~capture:true]).
    [Precedes d] and [Blocked d] carry the fix domain the can-precede
    oracle consulted ([Blocked Item.Set.empty] when no oracle ran). *)
type verdict =
  | Follows  (** the target can follow the mover (Definition 3) *)
  | Precedes of Item.Set.t  (** the mover can precede the fixed target (Definition 4) *)
  | Commutes  (** the mover commutes backward through the target *)
  | Blocked of Item.Set.t  (** no relation held; the attempt stops here *)

type decision = { target : Names.t; verdict : verdict }

(** One scan attempt: the candidate mover, the pair verdicts in block
    order (ending at the first [Blocked]), and whether it moved. *)
type attempt = { att_mover : Names.t; decisions : decision list; moved : bool }

type result = {
  algorithm : algorithm;
  original : History.t;
  execution : History.execution;  (** original execution from [s0] *)
  rewritten : History.t;  (** [H_e^s], with fixes *)
  repaired : History.t;  (** [H_r^s]: the good prefix, fixes all empty *)
  saved : Names.Set.t;  (** names appearing in [repaired] *)
  bad : Names.Set.t;  (** [B], as given *)
  affected : Names.Set.t;  (** [AG]: dynamic reads-from closure of [B] *)
  moves : int;  (** transactions moved left by the scan *)
  pair_checks : int;  (** relation tests performed (cost accounting) *)
  trace : move list;  (** the scan's moves, in the order they happened *)
  attempts : attempt list;  (** every attempt with verdicts; [[]] unless captured *)
}

(** [run ~theory ~fix_mode ?set_mode ?capture algorithm ~s0 history ~bad]
    rewrites [history]: it executes [history] from [s0] and rewrites
    from that execution ({!run_execution}). [set_mode] defaults to
    [Dynamic]. With
    [~capture:true] (default false) the result's [attempts] records
    every pair verdict the scan evaluated — the raw material of merge
    provenance; capture performs exactly the same relation tests in the
    same order, so [pair_checks] and the oracle counters are unchanged.

    [bad] must name transactions of [history]. Entries of [history] must
    carry empty fixes (it is an ordinary execution history).

    @raise Invalid_argument on a fixed entry or unknown bad name. *)
val run :
  theory:Semantics.theory ->
  fix_mode:fix_mode ->
  ?set_mode:set_mode ->
  ?capture:bool ->
  algorithm ->
  s0:State.t ->
  History.t ->
  bad:Names.Set.t ->
  result

(** [run_execution ~theory ~fix_mode ?set_mode ?capture algorithm execution
    ~bad] is [run]'s body, started from an execution the caller already
    made: [run ~s0 history] is [run_execution (History.execute s0 history)].
    The rewrite reads the history, its records and its states from
    [execution], and the result's [execution] is [execution] itself, so
    a caller that has executed the history (the merge's graph phase)
    does not execute it again. [bad] and the history's fixes are checked as for [run], with
    [run]'s messages. *)
val run_execution :
  theory:Semantics.theory ->
  fix_mode:fix_mode ->
  ?set_mode:set_mode ->
  ?capture:bool ->
  algorithm ->
  History.execution ->
  bad:Names.Set.t ->
  result

(** [suffix r] — the entries of [r.rewritten] after the repaired prefix,
    in order (what pruning must remove). *)
val suffix : result -> History.entry list

val pp_result : Format.formatter -> result -> unit

(** Human-readable narration of the scan: one line per move, naming the
    relation that justified each jump. *)
val pp_trace : Format.formatter -> result -> unit
