type t = {
  n : int;
  succ : int list array;  (* reverse insertion order internally; reversed on read *)
  pred : int list array;
  edge_set : (int * int, unit) Hashtbl.t;
  alive : bool array;
  mutable edge_count : int;
}

let create n =
  {
    n;
    succ = Array.make n [];
    pred = Array.make n [];
    edge_set = Hashtbl.create (max 16 n);
    alive = Array.make n true;
    edge_count = 0;
  }

let node_count g = Array.fold_left (fun acc alive -> if alive then acc + 1 else acc) 0 g.alive
let edge_count g = g.edge_count

let check g u = if u < 0 || u >= g.n then invalid_arg "Digraph: node out of range"

let add_edge g u v =
  check g u;
  check g v;
  if not (Hashtbl.mem g.edge_set (u, v)) then begin
    Hashtbl.add g.edge_set (u, v) ();
    g.succ.(u) <- v :: g.succ.(u);
    g.pred.(v) <- u :: g.pred.(v);
    g.edge_count <- g.edge_count + 1
  end

let mem_edge g u v = Hashtbl.mem g.edge_set (u, v)

let successors g u =
  check g u;
  if not g.alive.(u) then []
  else List.rev (List.filter (fun v -> g.alive.(v)) g.succ.(u))

let predecessors g u =
  check g u;
  if not g.alive.(u) then []
  else List.rev (List.filter (fun v -> g.alive.(v)) g.pred.(u))

let nodes g =
  let rec go i acc = if i < 0 then acc else go (i - 1) (if g.alive.(i) then i :: acc else acc) in
  go (g.n - 1) []

let edges g =
  List.concat_map (fun u -> List.map (fun v -> (u, v)) (successors g u)) (nodes g)

let induced g keep =
  let g' = create g.n in
  Array.iteri (fun i alive -> g'.alive.(i) <- alive && keep i) g.alive;
  List.iter
    (fun u -> List.iter (fun v -> if g'.alive.(u) && g'.alive.(v) then add_edge g' u v) (successors g u))
    (nodes g);
  g'
