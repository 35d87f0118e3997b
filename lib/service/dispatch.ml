open Repro_txn

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

(* Union-find over the events [0, n): [iter_cells i meet] calls [meet] on
   the holder cell of each of event [i]'s keys, and events sharing a key
   are grouped. A cell holds its key's first holder, [-1] until an event
   meets it, so grouping looks up no key. A union keeps the smaller root,
   so every root is its group's smallest member and scanning events in
   order lists the groups by smallest member, members ascending. *)
let group n iter_cells =
  let parent = Array.init n Fun.id in
  let rec find i =
    let p = parent.(i) in
    if p = i then i
    else begin
      parent.(i) <- parent.(p);
      find parent.(i)
    end
  in
  for i = 0 to n - 1 do
    iter_cells i (fun cell ->
        let j = !cell in
        if j < 0 then cell := i
        else begin
          let a = find j and b = find i in
          if a < b then parent.(b) <- a else if b < a then parent.(a) <- b
        end)
  done;
  let members = Array.make n [] in
  for i = n - 1 downto 0 do
    let r = find i in
    members.(r) <- i :: members.(r)
  done;
  List.filter (( <> ) []) (Array.to_list members)

(* Decompose one window's admission queue into independent components.

   Items: events sharing an item that someone in the window statically
   writes are grouped. Two events sharing only reads of an item nobody
   writes this window cannot affect each other (the item keeps its
   window-origin value for everyone), so such items link nothing. This is
   the partition dispatched; correctness argument: docs/SERVICE.md.

   Shards: events sharing a shard of their footprints are grouped. Same
   item implies same shard, so the item partition refines this one; it
   is a measurement only, feeding [shard_conflicted_sessions] (what
   shard-granular dispatch would lose to false sharing). *)
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
    let shard_cells = Array.init n_shards (fun _ -> ref (-1)) in
    let shard_groups =
      group n (fun i meet -> List.iter (fun s -> meet shard_cells.(s)) shard_footprints.(i))
    in
    (* The written items' holder cells: a footprint item with no cell is
       one nobody writes this window, and links nothing. *)
    let written = Hashtbl.create 64 in
    Array.iter
      (fun ev ->
        Item.Set.iter (fun x -> Hashtbl.replace written x (ref (-1))) (Admission.write_set ev))
      events;
    let item_groups =
      group n (fun i meet ->
          Item.Set.iter
            (fun x -> match Hashtbl.find_opt written x with Some cell -> meet cell | None -> ())
            footprints.(i))
    in
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
