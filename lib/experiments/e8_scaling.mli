(** Experiment E8 — the instability that motivates the paper.

    The introduction (quoting [GHOS96]) argues that update-anywhere
    replication is unstable: "a ten-fold increase in nodes and traffic
    gives a thousand fold increase in deadlocks or reconciliations", which
    is why two-tier replication exists and why its reprocessing overhead
    matters. This experiment measures the reconciliation load in our
    simulator as the fleet scales: total tentative traffic grows linearly
    with the number of mobiles, so superlinear growth in backed-out work
    per transaction is the instability signature.

    Setup: one resynchronization window, each mobile connecting exactly
    once with a fixed-length tentative transfer history; reported per
    fleet size: total tentative traffic, the merged and reconciled
    (re-executed) fractions, and the per-merge back-out cost. *)

type row = {
  mobiles : int;
  tentative : int;
  merged_fraction : float;
  reconciliations : int;  (** re-executions + rejections *)
  reconciliation_fraction : float;
  backout_per_merge : float;
}

val run : ?seed:int -> fleets:int list -> unit -> row list
val table : row list -> Table.t
