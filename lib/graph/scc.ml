let components g =
  let index = Hashtbl.create 64 in
  let lowlink = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 64 in
  let stack = ref [] in
  let next_index = ref 0 in
  let comps = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !next_index;
    Hashtbl.replace lowlink v !next_index;
    incr next_index;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (Digraph.successors g v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if w = v then w :: acc else pop (w :: acc)
      in
      comps := pop [] :: !comps
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) (Digraph.nodes g);
  !comps

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
