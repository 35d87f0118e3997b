(** Experiment E1 — Figure 1 / Example 1.

    Rebuilds the paper's six-transaction precedence graph, verifies the
    cycle the paper describes, reports every back-out strategy's **B**,
    the affected set, and the equivalent merged history
    [Tb1 Tb2 Tm1 Tm2]. *)

type result = {
  edges : (string * string) list;
  cyclic : bool;
  tentative_on_cycles : string list;
  strategies : (string * string list) list;  (** strategy name -> B *)
  paper_b_feasible : bool;  (** backing out {Tm3} breaks all cycles *)
  affected_of_tm3 : string list;
  merged_history : string list;
      (** after removing Tm3 and Tm4: {!Repro_precedence.Precedence.merge_order}'s
          splice, expanded by {!Repro_precedence.Precedence.Index.spliced}:
          the order the protocol commits *)
}

val run : unit -> result
val tables : result -> Table.t list
