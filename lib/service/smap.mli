(** Item-space shard map.

    Maps every item to one of [shards] shards, either by a stable
    content hash (FNV-1a — deterministic across runs, unlike
    [Hashtbl.hash]'s unspecified contract) or by rank ranges over a
    sorted item universe (contiguous blocks, preserving locality of
    lexicographically clustered item names such as per-mobile home
    regions). {!Dispatch.components} groups a window's events by shared
    shards as a measurement only: it reports the sessions a
    shard-granular dispatcher would serialize ([shard_conflicted_sessions]
    and the per-shard arrays), while what it dispatches is grouped by
    item. *)

open Repro_txn

type scheme =
  | Hash  (** stable content hash, uniform spread *)
  | Range of Item.t array
      (** contiguous rank ranges over this universe (sorted internally);
          items outside the universe fall back to hashing *)

type t

val make : shards:int -> scheme -> t
val shards : t -> int
val scheme : t -> scheme

(** Shard of one item, in [0, shards). Deterministic. *)
val shard_of_item : t -> Item.t -> int

(** Distinct shards touched by an item set, ascending. *)
val footprint : t -> Item.Set.t -> int list
