(* Back-out as it ran on [Digraph] copies of the precedence graph, before
   the strategies moved to the cone's arrays: every greedy round and the
   feasibility check induce a reduced graph and run a hashtable Tarjan on
   it. Run on [Scan.graph pg], it is the oracle that
   [Backout.compute] must agree with, strategy by strategy. *)

open Repro_history
open Repro_precedence

(* Tarjan's algorithm over hashtables, recursive, roots in increasing node
   order: components come out in reverse discovery order, members in the
   order they were pushed. That order fixes the cyclic core's numbering,
   hence branch-and-bound's B. *)
module Tarjan = struct
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
end

let name_of pg i = (Precedence.summary_of_node pg i).Summary.name

(* The components of the full graph that hold a cycle, in Tarjan's order. *)
let cyclic_components pg =
  let g = Scan.graph pg in
  List.filter
    (fun comp -> match comp with [ v ] -> Digraph.mem_edge g v v | _ -> true)
    (Tarjan.components g)

let breaks_all_cycles pg names = Tarjan.is_acyclic (Scan.reduced pg ~removed:names)

let tentative_on_cycles pg =
  List.fold_left
    (fun acc i ->
      let s = Precedence.summary_of_node pg i in
      if Summary.is_tentative s then Names.Set.add s.Summary.name acc else acc)
    Names.Set.empty
    (Tarjan.nodes_on_cycles (Scan.graph pg))

(* Remove the tentative node of largest (in+out) degree in the reduced
   graph, earliest on ties, until no cycle is left. *)
let greedy pg ~already_removed =
  let removed = ref already_removed in
  let rec loop () =
    let g = Scan.reduced pg ~removed:!removed in
    match Tarjan.nodes_on_cycles g with
    | [] -> ()
    | cyclic ->
      let tentative_cyclic =
        List.filter (fun i -> Summary.is_tentative (Precedence.summary_of_node pg i)) cyclic
      in
      (match tentative_cyclic with
      | [] -> invalid_arg "Backout: cycle without tentative transaction"
      | _ ->
        let degree i =
          List.length (Digraph.successors g i)
          + List.length (Digraph.predecessors g i)
          + Precedence.outside_degree pg i
        in
        let best =
          List.fold_left
            (fun acc i -> match acc with
              | Some j when degree j >= degree i -> acc
              | _ -> Some i)
            None tentative_cyclic
        in
        (match best with
        | Some i ->
          removed := Names.Set.add (name_of pg i) !removed;
          loop ()
        | None -> assert false))
  in
  loop ();
  Names.Set.diff !removed already_removed

let greedy_damage pg =
  let tentative_summaries =
    List.filter Summary.is_tentative (Array.to_list (Precedence.summaries pg))
  in
  let damage bad = Names.Set.cardinal (Affected.closure tentative_summaries ~bad) in
  let removed = ref Names.Set.empty in
  let rec loop () =
    let g = Scan.reduced pg ~removed:!removed in
    match Tarjan.nodes_on_cycles g with
    | [] -> ()
    | cyclic ->
      let candidates =
        List.filter (fun i -> Summary.is_tentative (Precedence.summary_of_node pg i)) cyclic
      in
      (match candidates with
      | [] -> invalid_arg "Backout: cycle without tentative transaction"
      | _ ->
        let best =
          List.fold_left
            (fun acc i ->
              let cost = damage (Names.Set.add (name_of pg i) !removed) in
              match acc with
              | Some (_, best_cost) when best_cost <= cost -> acc
              | _ -> Some (i, cost))
            None candidates
        in
        (match best with
        | Some (i, _) ->
          removed := Names.Set.add (name_of pg i) !removed;
          loop ()
        | None -> assert false))
  in
  loop ();
  !removed

let two_cycle_then_greedy pg =
  let g = Scan.graph pg in
  let forced =
    List.fold_left
      (fun acc (u, v) ->
        let su = Precedence.summary_of_node pg u and sv = Precedence.summary_of_node pg v in
        let acc = if Summary.is_tentative su then Names.Set.add su.Summary.name acc else acc in
        if Summary.is_tentative sv then Names.Set.add sv.Summary.name acc else acc)
      Names.Set.empty (Tarjan.two_cycles g)
  in
  Names.Set.union forced (greedy pg ~already_removed:forced)

(* The cyclic components of the full graph, reindexed into dense arrays
   with only same-component edges kept. *)
module Core = struct
  type t = {
    n : int;
    name : Names.t array;
    tentative : bool array;
    succ : int array array;
    comp : int array;
    n_comps : int;
  }

  let of_pg pg =
    let g = Scan.graph pg in
    let cyclic_comps = cyclic_components pg in
    let n = List.fold_left (fun acc c -> acc + List.length c) 0 cyclic_comps in
    let node = Array.make n 0 in
    let comp = Array.make n 0 in
    let idx = Hashtbl.create (2 * max 1 n) in
    let k = ref 0 and cid = ref 0 in
    List.iter
      (fun c ->
        List.iter
          (fun v ->
            node.(!k) <- v;
            comp.(!k) <- !cid;
            Hashtbl.replace idx v !k;
            incr k)
          c;
        incr cid)
      cyclic_comps;
    let name = Array.map (fun v -> (Precedence.summary_of_node pg v).Summary.name) node in
    let tentative =
      Array.map (fun v -> Summary.is_tentative (Precedence.summary_of_node pg v)) node
    in
    let succ =
      Array.init n (fun i ->
          Digraph.successors g node.(i)
          |> List.filter_map (fun w ->
                 match Hashtbl.find_opt idx w with
                 | Some j when comp.(j) = comp.(i) -> Some j
                 | _ -> None)
          |> Array.of_list)
    in
    { n; name; tentative; succ; comp; n_comps = !cid }

  let acyclic ~removed t =
    let color = Array.make t.n 0 in
    let rec visit i =
      removed.(i)
      ||
      match color.(i) with
      | 1 -> false
      | 2 -> true
      | _ ->
        color.(i) <- 1;
        let ok = Array.for_all visit t.succ.(i) in
        color.(i) <- 2;
        ok
    in
    let rec all i = i >= t.n || (visit i && all (i + 1)) in
    all 0

  exception Found of int list

  let find_cycle ~comp ~removed t =
    let skip i = removed.(i) || t.comp.(i) <> comp in
    let color = Array.make t.n 0 in
    let rec visit path i =
      color.(i) <- 1;
      Array.iter
        (fun w ->
          if not (skip w) then
            match color.(w) with
            | 1 ->
              let rec take acc = function
                | [] -> acc
                | x :: rest -> if x = w then x :: acc else take (x :: acc) rest
              in
              raise (Found (take [] path))
            | 0 -> visit (w :: path) w
            | _ -> ())
        t.succ.(i);
      color.(i) <- 2
    in
    try
      for i = 0 to t.n - 1 do
        if (not (skip i)) && color.(i) = 0 then visit [ i ] i
      done;
      None
    with Found c -> Some c

  (* The reverse of each edge is looked up in the successor array. *)
  let forced_victims ~comp ~removed t =
    let forced = ref [] in
    let marked = Array.make t.n false in
    for i = 0 to t.n - 1 do
      if t.comp.(i) = comp && not removed.(i) then
        Array.iter
          (fun j ->
            if
              j > i
              && (not removed.(j))
              && Array.exists (fun k -> k = i) t.succ.(j)
              && t.tentative.(i) <> t.tentative.(j)
            then begin
              let v = if t.tentative.(i) then i else j in
              if not marked.(v) then begin
                marked.(v) <- true;
                forced := v :: !forced
              end
            end)
          t.succ.(i)
    done;
    !forced

  let packing_bound ~comp ~removed t =
    let used = Array.copy removed in
    let count = ref 0 in
    for i = 0 to t.n - 1 do
      if t.comp.(i) = comp && not used.(i) then
        if Array.exists (fun j -> j = i) t.succ.(i) then begin
          used.(i) <- true;
          incr count
        end
        else
          Array.iter
            (fun j ->
              if j > i && (not used.(j)) && (not used.(i))
                 && Array.exists (fun k -> k = i) t.succ.(j)
              then begin
                used.(i) <- true;
                used.(j) <- true;
                incr count
              end)
            t.succ.(i)
    done;
    let rec longer () =
      match find_cycle ~comp ~removed:used t with
      | None -> !count
      | Some cyc ->
        List.iter (fun v -> used.(v) <- true) cyc;
        incr count;
        longer ()
    in
    longer ()
end

let exhaustive pg =
  let core = Core.of_pg pg in
  let candidates = Names.Set.elements (tentative_on_cycles pg) in
  let idx_of_name = Hashtbl.create 32 in
  Array.iteri
    (fun i name -> if core.Core.tentative.(i) then Hashtbl.replace idx_of_name name i)
    core.Core.name;
  let arr =
    Array.of_list (List.map (fun name -> (name, Hashtbl.find idx_of_name name)) candidates)
  in
  let n = Array.length arr in
  let removed = Array.make core.Core.n false in
  let feasible subset =
    List.iter (fun (_, i) -> removed.(i) <- true) subset;
    let ok = Core.acyclic ~removed core in
    List.iter (fun (_, i) -> removed.(i) <- false) subset;
    ok
  in
  let rec subsets_of_size k start acc =
    if k = 0 then Seq.return acc
    else if start >= n then Seq.empty
    else
      Seq.append
        (fun () -> subsets_of_size (k - 1) (start + 1) (arr.(start) :: acc) ())
        (fun () -> subsets_of_size k (start + 1) acc ())
  in
  let rec try_size k =
    if k > n then invalid_arg "Backout.exhaustive: no feasible subset"
    else
      match Seq.find feasible (subsets_of_size k 0 []) with
      | Some subset -> Names.Set.of_names (List.map fst subset)
      | None -> try_size (k + 1)
  in
  try_size 0

let branch_and_bound pg =
  let core = Core.of_pg pg in
  if core.Core.n = 0 then Names.Set.empty
  else begin
    let greedy_names = greedy pg ~already_removed:Names.Set.empty in
    let seed_per_comp = Array.make core.Core.n_comps [] in
    for i = core.Core.n - 1 downto 0 do
      if Names.Set.mem core.Core.name.(i) greedy_names then
        seed_per_comp.(core.Core.comp.(i)) <- i :: seed_per_comp.(core.Core.comp.(i))
    done;
    let solve_comp c seed =
      let best = ref seed in
      let best_size = ref (List.length seed) in
      let memo : (int list, unit) Hashtbl.t = Hashtbl.create 256 in
      let removed = Array.make core.Core.n false in
      let removed_list = ref [] in
      let take v =
        removed.(v) <- true;
        removed_list := v :: !removed_list
      in
      let untake v =
        removed_list := List.tl !removed_list;
        removed.(v) <- false
      in
      let rec go size =
        match Core.forced_victims ~comp:c ~removed core with
        | _ :: _ as forced ->
          if size + List.length forced < !best_size then begin
            List.iter take forced;
            go (size + List.length forced);
            List.iter untake forced
          end
        | [] -> (
          match Core.find_cycle ~comp:c ~removed core with
          | None ->
            if size < !best_size then begin
              best := !removed_list;
              best_size := size
            end
          | Some cycle ->
            let lb = Core.packing_bound ~comp:c ~removed core in
            if size + lb < !best_size then begin
              let victims = List.filter (fun v -> core.Core.tentative.(v)) cycle in
              match victims with
              | [] -> invalid_arg "Backout: cycle without tentative transaction"
              | [ v ] ->
                take v;
                go (size + 1);
                untake v
              | _ ->
                let deg v = Array.length core.Core.succ.(v) in
                let victims = List.sort (fun a b -> compare (deg b) (deg a)) victims in
                List.iter
                  (fun v ->
                    let key = List.sort compare (v :: !removed_list) in
                    if not (Hashtbl.mem memo key) then begin
                      Hashtbl.add memo key ();
                      take v;
                      go (size + 1);
                      untake v
                    end)
                  victims
            end)
      in
      go 0;
      !best
    in
    let solution = ref Names.Set.empty in
    for c = 0 to core.Core.n_comps - 1 do
      List.iter
        (fun v -> solution := Names.Set.add core.Core.name.(v) !solution)
        (solve_comp c seed_per_comp.(c))
    done;
    !solution
  end

let compute ~strategy pg =
  let b =
    match strategy with
    | Backout.All_in_cycles -> tentative_on_cycles pg
    | Backout.Greedy_degree -> greedy pg ~already_removed:Names.Set.empty
    | Backout.Two_cycle_then_greedy -> two_cycle_then_greedy pg
    | Backout.Greedy_damage -> greedy_damage pg
    | Backout.Branch_and_bound -> branch_and_bound pg
    | Backout.Exhaustive -> exhaustive pg
  in
  assert (breaks_all_cycles pg b);
  b
