open Repro_txn

type kind = Tentative | Base

type t = {
  name : Repro_history.Names.t;
  kind : kind;
  readset : Item.Set.t;
  writeset : Item.Set.t;
}

let make ~name ~kind ~reads ~writes =
  { name; kind; readset = Item.Set.of_names reads; writeset = Item.Set.of_names writes }

let of_record ~kind (r : Interp.record) =
  {
    name = r.Interp.program.Program.name;
    kind;
    readset = Interp.dynamic_readset r;
    writeset = Interp.dynamic_writeset r;
  }

let of_execution ~kind (exec : Repro_history.History.execution) =
  List.map (of_record ~kind) exec.Repro_history.History.records

let is_tentative t = t.kind = Tentative

let conflicts a b =
  (not (Item.Set.disjoint a.writeset b.readset))
  || (not (Item.Set.disjoint a.writeset b.writeset))
  || not (Item.Set.disjoint b.writeset a.readset)

let pp ppf t =
  Format.fprintf ppf "%s[%s] R=%a W=%a" t.name
    (match t.kind with Tentative -> "m" | Base -> "b")
    Item.Set.pp t.readset Item.Set.pp t.writeset
