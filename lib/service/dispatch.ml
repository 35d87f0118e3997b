open Repro_txn
module Digraph = Repro_graph.Digraph

type component = {
  members : int list;  (* event indices into the window, ascending *)
  sessions : int;  (* how many members are sessions *)
  footprint : Item.Set.t;  (* union of the members' static footprints *)
}

type stats = {
  components : int;
  shard_conflicted_sessions : int;
      (* sessions sharing a shard-level component with another session *)
  item_conflicted_sessions : int;
      (* sessions sharing an item-level component with another session *)
  shard_sessions : int array;
      (* per-shard session load: how many sessions touch each shard *)
  shard_conflicted : int array;
      (* per-shard slice of [item_conflicted_sessions]: conflicted
         sessions touching each shard *)
}

let count_sessions events members =
  List.fold_left
    (fun n i -> match events.(i) with Admission.Session _ -> n + 1 | Admission.Base _ -> n)
    0 members

(* Conflicted sessions under a partition: sessions in a group holding >= 2
   sessions. *)
let conflicted events groups =
  List.fold_left
    (fun acc members ->
      let s = count_sessions events members in
      if s >= 2 then acc + s else acc)
    0 groups

(* Decompose one window's admission queue into independent components.

   Level 1 (shards): chain consecutive events per shard; weakly connected
   components of that graph group every pair of events whose footprints
   could collide at shard granularity. This is the dispatcher's fast
   path — and the source of the shard-conflict-rate metric (how much
   shard-granular false sharing costs).

   Level 2 (items): chain consecutive events per *written* item. Two
   events sharing only reads of an item nobody writes this window cannot
   affect each other (the item keeps its window-origin value for
   everyone), so those chains are skipped. Item-level edges are a subset
   of shard-level edges (same item ⇒ same shard), hence the item
   partition refines the shard partition; it is the one actually
   dispatched. Correctness argument: docs/SERVICE.md. *)
let components ~smap (events : Admission.wevent array) =
  let n = Array.length events in
  let n_shards = Smap.shards smap in
  if n = 0 then
    ( [],
      {
        components = 0;
        shard_conflicted_sessions = 0;
        item_conflicted_sessions = 0;
        shard_sessions = Array.make n_shards 0;
        shard_conflicted = Array.make n_shards 0;
      } )
  else begin
    (* Each event's item and shard footprints, computed once. *)
    let footprints = Array.map Admission.footprint events in
    let shard_footprints = Array.map (Smap.footprint smap) footprints in
    (* Level 1: shard-granular grouping. *)
    let shard_graph = Digraph.create n in
    let last_in_shard = Array.make (Smap.shards smap) (-1) in
    Array.iteri
      (fun i shards ->
        List.iter
          (fun s ->
            if last_in_shard.(s) >= 0 then Digraph.add_edge shard_graph last_in_shard.(s) i;
            last_in_shard.(s) <- i)
          shards)
      shard_footprints;
    let shard_groups = Digraph.weakly_connected_components shard_graph in
    (* Level 2: item-granular refinement. *)
    let written = Hashtbl.create 64 in
    Array.iter
      (fun ev -> Item.Set.iter (fun x -> Hashtbl.replace written x ()) (Admission.write_set ev))
      events;
    let item_graph = Digraph.create n in
    let last_on_item : (Item.t, int) Hashtbl.t = Hashtbl.create 256 in
    Array.iteri
      (fun i footprint ->
        Item.Set.iter
          (fun x ->
            if Hashtbl.mem written x then begin
              (match Hashtbl.find_opt last_on_item x with
              | Some j -> Digraph.add_edge item_graph j i
              | None -> ());
              Hashtbl.replace last_on_item x i
            end)
          footprint)
      footprints;
    let item_groups = Digraph.weakly_connected_components item_graph in
    let comps =
      List.map
        (fun members ->
          {
            members;
            sessions = count_sessions events members;
            footprint =
              List.fold_left
                (fun acc i -> Item.Set.union acc footprints.(i))
                Item.Set.empty members;
          })
        item_groups
    in
    (* Per-shard load and conflict attribution: a session counts toward
       every shard its footprint touches; it counts as conflicted there
       when it shares its (dispatched, item-level) component with another
       session. *)
    let in_conflicted_group = Array.make n false in
    List.iter
      (fun members ->
        if count_sessions events members >= 2 then
          List.iter (fun i -> in_conflicted_group.(i) <- true) members)
      item_groups;
    let shard_sessions = Array.make n_shards 0 in
    let shard_conflicted = Array.make n_shards 0 in
    Array.iteri
      (fun i ev ->
        match ev with
        | Admission.Session _ ->
            List.iter
              (fun s ->
                shard_sessions.(s) <- shard_sessions.(s) + 1;
                if in_conflicted_group.(i) then shard_conflicted.(s) <- shard_conflicted.(s) + 1)
              shard_footprints.(i)
        | Admission.Base _ -> ())
      events;
    ( comps,
      {
        components = List.length comps;
        shard_conflicted_sessions = conflicted events shard_groups;
        item_conflicted_sessions = conflicted events item_groups;
        shard_sessions;
        shard_conflicted;
      } )
  end
