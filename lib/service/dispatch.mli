(** Window dispatcher: connected-component decomposition of one window's
    admission queue.

    Two events belong to the same component iff a chain of conflicting
    events joins them — where "conflicting" means sharing an item that
    someone in the window statically writes. Components are therefore
    pairwise independent: no precedence edge, no data flow, and no
    back-out decision can cross them, so the service merges each
    component serially but different components concurrently and the
    result is identical to the fully serial order (argument in
    docs/SERVICE.md).

    A shard-granular grouping (footprints coarsened to shard sets via
    {!Smap}) is computed over every event too, but only as a
    measurement: it feeds [shard_conflicted_sessions] and the per-shard
    arrays, and the gap between shard-level and item-level conflict
    counts is the shard-conflict-rate metric — what shard-granular false
    sharing would cost. Only the item-level components are dispatched.
    Both levels are grouped by one union-find over the events. *)

open Repro_txn

type component = {
  members : int list;  (** event indices into the window, ascending *)
  sessions : int;  (** how many members are sessions *)
  footprint : Item.Set.t;
      (** union of the members' static footprints ({!Admission.footprint}):
          every item a member can read or write. No member reads or
          writes outside it, so the service runs the component against
          the window origin restricted to it. *)
}

type stats = {
  components : int;
  shard_conflicted_sessions : int;
      (** sessions sharing a shard-level component with another session *)
  item_conflicted_sessions : int;
      (** sessions sharing an item-level (= dispatched) component with
          another session *)
  shard_sessions : int array;
      (** per-shard session load (a session counts toward every shard
          its footprint touches); length = shard count *)
  shard_conflicted : int array;
      (** per-shard slice of [item_conflicted_sessions] under the same
          attribution *)
}

(** [components ~smap events] — the item-level components of a window's
    admission queue, ordered by smallest member; each component's
    members are ascending (admission order). Deterministic. *)
val components : smap:Smap.t -> Admission.wevent array -> component list * stats
