(* Tarjan's algorithm over successor arrays, recursive, roots in
   increasing node order. Each component is consed onto the result when
   its root finishes, with its members in the order they were pushed. *)
let components_of_arrays ?skip succ =
  let n = Array.length succ in
  let skipped = match skip with Some s -> fun v -> s.(v) | None -> fun _ -> false in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let next_index = ref 0 in
  let comps = ref [] in
  let rec strongconnect v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack := v :: !stack;
    on_stack.(v) <- true;
    Array.iter
      (fun w ->
        if not (skipped w) then
          if index.(w) < 0 then begin
            strongconnect w;
            lowlink.(v) <- min lowlink.(v) lowlink.(w)
          end
          else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      succ.(v);
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          if w = v then w :: acc else pop (w :: acc)
      in
      comps := pop [] :: !comps
    end
  in
  for v = 0 to n - 1 do
    if (not (skipped v)) && index.(v) < 0 then strongconnect v
  done;
  !comps

(* Live nodes come in increasing order, so the last one bounds them all. *)
let components g =
  let nodes = Digraph.nodes g in
  let n = List.fold_left (fun _ v -> v + 1) 0 nodes in
  let succ = Array.make n [||] and skip = Array.make n true in
  List.iter
    (fun v ->
      skip.(v) <- false;
      succ.(v) <- Array.of_list (Digraph.successors g v))
    nodes;
  components_of_arrays ~skip succ

let nodes_on_cycles g =
  let cyclic = Hashtbl.create 64 in
  List.iter
    (fun comp ->
      match comp with
      | [ v ] -> if Digraph.mem_edge g v v then Hashtbl.replace cyclic v ()
      | vs -> List.iter (fun v -> Hashtbl.replace cyclic v ()) vs)
    (components g);
  List.filter (Hashtbl.mem cyclic) (Digraph.nodes g)

let is_acyclic g = nodes_on_cycles g = []

let two_cycles g =
  List.filter_map
    (fun (u, v) -> if u < v && Digraph.mem_edge g v u then Some (u, v) else None)
    (Digraph.edges g)

exception Limit_reached

let cycles ?(limit = 10_000) g =
  let found = ref [] in
  let count = ref 0 in
  let emit cycle =
    found := cycle :: !found;
    incr count;
    if !count >= limit then raise Limit_reached
  in
  let comp_of = Hashtbl.create 64 in
  List.iteri (fun i comp -> List.iter (fun v -> Hashtbl.replace comp_of v i) comp) (components g);
  let same_comp u v = Hashtbl.find comp_of u = Hashtbl.find comp_of v in
  (* Enumerate elementary cycles whose smallest node is [start]: DFS through
     nodes >= start staying within start's component. *)
  let enumerate start =
    let rec dfs v path on_path =
      List.iter
        (fun w ->
          if w = start then emit (List.rev (v :: path))
          else if w > start && (not (List.mem w on_path)) && same_comp start w then
            dfs w (v :: path) (w :: on_path))
        (Digraph.successors g v)
    in
    dfs start [] [ start ]
  in
  (try List.iter enumerate (Digraph.nodes g) with Limit_reached -> ());
  List.rev !found
