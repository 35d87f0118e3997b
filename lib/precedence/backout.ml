open Repro_history
module Digraph = Repro_graph.Digraph
module Scc = Repro_graph.Scc
module Obs = Repro_obs.Obs

let obs_computed = Obs.Counter.make "backout.computed"
let obs_b_size = Obs.Dist.make "backout.b_size"
let obs_bnb_pruned = Obs.Counter.make "backout.bnb_nodes_pruned"

type strategy =
  | All_in_cycles
  | Greedy_degree
  | Two_cycle_then_greedy
  | Greedy_damage
  | Branch_and_bound
  | Exhaustive

let all_strategies =
  [
    All_in_cycles;
    Greedy_degree;
    Two_cycle_then_greedy;
    Greedy_damage;
    Branch_and_bound;
    Exhaustive;
  ]

let strategy_name = function
  | All_in_cycles -> "all-in-cycles"
  | Greedy_degree -> "greedy-degree"
  | Two_cycle_then_greedy -> "two-cycle-optimal"
  | Greedy_damage -> "greedy-damage"
  | Branch_and_bound -> "branch-and-bound"
  | Exhaustive -> "exhaustive-minimal"

(* Registered up front so [compute] does no name building on the hot
   path. *)
let obs_b_size_of =
  let table = List.map (fun s -> (s, Obs.Dist.make ("backout.b_size." ^ strategy_name s))) all_strategies in
  fun strategy -> List.assq strategy table

let name_of pg i = (Precedence.summary_of_node pg i).Summary.name

let breaks_all_cycles pg names = Scc.is_acyclic (Precedence.reduced pg ~removed:names)

let all_in_cycles pg = Precedence.tentative_on_cycles pg

(* Greedy feedback vertex set restricted to tentative nodes: while the
   reduced graph has a cycle, remove the tentative node with the largest
   (in+out) degree within its cyclic component. On a cone the degree
   counts the full graph's left-out neighbours too, so the victim is the
   one the full graph would pick. *)
let greedy pg ~already_removed =
  let removed = ref already_removed in
  let rec loop () =
    let g = Precedence.reduced pg ~removed:!removed in
    match Scc.nodes_on_cycles g with
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

(* Greedy on damage: the victim minimizing |B ∪ closure(B)| after its
   removal, where the closure runs over the tentative summaries in history
   order. Falls back to degree on ties via list order. *)
let greedy_damage pg =
  let tentative_summaries =
    List.filter Summary.is_tentative (Array.to_list (Precedence.summaries pg))
  in
  let damage bad = Names.Set.cardinal (Affected.closure tentative_summaries ~bad) in
  let removed = ref Names.Set.empty in
  let rec loop () =
    let g = Precedence.reduced pg ~removed:!removed in
    match Scc.nodes_on_cycles g with
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
  let g = Precedence.graph pg in
  let forced =
    List.fold_left
      (fun acc (u, v) ->
        let su = Precedence.summary_of_node pg u and sv = Precedence.summary_of_node pg v in
        (* A two-cycle inside one history is impossible (edges point
           forward), so exactly one endpoint is tentative; it is forced. *)
        let acc = if Summary.is_tentative su then Names.Set.add su.Summary.name acc else acc in
        if Summary.is_tentative sv then Names.Set.add sv.Summary.name acc else acc)
      Names.Set.empty (Scc.two_cycles g)
  in
  Names.Set.union forced (greedy pg ~already_removed:forced)

(* ------------------------------------------------------------------ *)
(* Compact cyclic core, shared by the two exact solvers.

   Every cycle of the precedence graph lies entirely inside one strongly
   connected component, so the exact solvers only ever look at the nodes
   of cyclic components, reindexed into dense arrays with only
   same-component edges kept. Acyclifying every component independently
   acyclifies the whole graph, and the masked DFS feasibility check below
   costs O(core) per candidate set instead of an induced-graph copy plus
   a hashtable Tarjan run — the difference between the 26s E6 cliff and a
   sub-second sweep. *)
module Core = struct
  type t = {
    n : int;
    name : Names.t array;  (* compact index -> transaction name *)
    tentative : bool array;
    succ : int array array;  (* same-component successors only *)
    comp : int array;  (* component id per compact node, dense from 0 *)
    n_comps : int;
  }

  let of_pg pg =
    let g = Precedence.graph pg in
    let cyclic_comps =
      List.filter
        (fun comp -> match comp with [ v ] -> Digraph.mem_edge g v v | _ -> true)
        (Scc.components g)
    in
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

  (* Masked acyclicity: 3-color DFS skipping [removed] nodes. Depth is
     bounded by the core size (tens of nodes for merge-scale graphs). *)
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

  (* One elementary cycle of component [comp] avoiding [removed] nodes,
     as a node list, or [None] if that residual is acyclic. *)
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
              (* [path] holds the gray chain, current node first; the
                 cycle is its prefix down to [w]. *)
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

  (* Tentative nodes forced into every feasible back-out of the residual:
     a two-cycle inside one history is impossible (intra edges point
     forward), so each one pairs a tentative with a base node, and only
     the tentative member can break it. Checked structurally (exactly one
     tentative endpoint) so the reduction stays sound on hand-built
     graphs too. *)
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

  (* Greedy vertex-disjoint cycle packing of a component's residual: each
     packed cycle must lose a distinct node, so the count lower-bounds the
     optimum back-out size. Short cycles are packed first — they block the
     fewest other cycles, so the bound is tighter. *)
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

(* Subsets of [candidates] in increasing size, smallest-first; the first
   subset that acyclifies is optimal. Kept as the brute-force oracle the
   branch-and-bound solver is tested against; the per-subset feasibility
   check runs on the compact core, which is what makes enumerating a few
   thousand subsets affordable. *)
let exhaustive pg =
  let core = Core.of_pg pg in
  let candidates = Names.Set.elements (all_in_cycles pg) in
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

(* Exact minimal back-out by branch and bound, per strongly connected
   component (cycles never cross components, so per-component optima sum
   to the global optimum):

   - incumbent seeded from [Greedy_degree]'s solution restricted to the
     component — a feasible upper bound, since a component's cycles are
     only broken by removals inside it;
   - branch on the tentative members of one discovered cycle (every
     feasible set must contain at least one of them, so this is complete);
   - prune when |removed| + (vertex-disjoint cycle packing of the
     residual) cannot beat the incumbent;
   - memoize visited removal sets, so permutations of one set are
     explored once.

   Pruned branches are counted in [backout.bnb_nodes_pruned]. *)
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
        (* Two-cycle victims are in every feasible extension of the
           current partial solution: removing them costs no branching and
           is where dense (hot-spot) instances collapse. *)
        match Core.forced_victims ~comp:c ~removed core with
        | _ :: _ as forced ->
          if size + List.length forced >= !best_size then Obs.Counter.incr obs_bnb_pruned
          else begin
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
            if size + lb >= !best_size then Obs.Counter.incr obs_bnb_pruned
            else begin
              let victims = List.filter (fun v -> core.Core.tentative.(v)) cycle in
              (match victims with
              | [] -> invalid_arg "Backout: cycle without tentative transaction"
              | [ v ] ->
                (* single-tentative cycle: also a forced move *)
                take v;
                go (size + 1);
                untake v
              | _ ->
                (* Highest-degree victims first: they tend to break more
                   cycles, driving the incumbent down early. *)
                let deg v = Array.length core.Core.succ.(v) in
                let victims = List.sort (fun a b -> compare (deg b) (deg a)) victims in
                List.iter
                  (fun v ->
                    let key = List.sort compare (v :: !removed_list) in
                    if Hashtbl.mem memo key then Obs.Counter.incr obs_bnb_pruned
                    else begin
                      Hashtbl.add memo key ();
                      take v;
                      go (size + 1);
                      untake v
                    end)
                  victims)
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
  Obs.Span.with_ ~lane:Obs.Event.Base ~name:"backout.compute" @@ fun () ->
  let b =
    match strategy with
    | All_in_cycles -> all_in_cycles pg
    | Greedy_degree -> greedy pg ~already_removed:Names.Set.empty
    | Two_cycle_then_greedy -> two_cycle_then_greedy pg
    | Greedy_damage -> greedy_damage pg
    | Branch_and_bound -> branch_and_bound pg
    | Exhaustive -> exhaustive pg
  in
  assert (breaks_all_cycles pg b);
  Obs.Counter.incr obs_computed;
  if Obs.enabled () then begin
    let size = Names.Set.cardinal b in
    Obs.Dist.observe_int obs_b_size size;
    Obs.Dist.observe_int (obs_b_size_of strategy) size
  end;
  if Obs.Event.capturing () then
    Obs.Event.emit ~lane:Obs.Event.Base
      ~attrs:
        [
          ("strategy", Obs.Event.Str (strategy_name strategy));
          ("b_size", Obs.Event.Int (Names.Set.cardinal b));
          ("b", Obs.Event.Str (String.concat "," (Names.Set.elements b)));
        ]
      "backout.computed";
  b
