open Repro_history
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

(* Every strategy runs on the cone's arrays: a removal is a mark in a
   mask over the cone's nodes, so no round copies the graph. *)

let name_of c i = (Precedence.summary_of_node c i).Summary.name

(* No cycle avoids the [removed] nodes: a three-colour DFS over [succ].
   Depth is bounded by the node count (tens of nodes for merge-scale
   cones and cores). *)
let acyclic ~removed succ =
  let color = Array.make (Array.length succ) 0 in
  let rec visit i =
    removed.(i)
    ||
    match color.(i) with
    | 1 -> false
    | 2 -> true
    | _ ->
      color.(i) <- 1;
      let ok = Array.for_all visit succ.(i) in
      color.(i) <- 2;
      ok
  in
  let rec all i = i >= Array.length succ || (visit i && all (i + 1)) in
  all 0

let breaks_all_cycles pg names =
  let c = Precedence.cone pg in
  let removed =
    Array.map (fun (s : Summary.t) -> Names.Set.mem s.Summary.name names) (Precedence.summaries c)
  in
  acyclic ~removed (fst (Precedence.adjacency c))

let all_in_cycles c = Precedence.tentative_on_cycles c

(* The tentative nodes on a cycle of the cone less [removed], in
   increasing order; [None] once no cycle is left. *)
let candidates c ~removed =
  match Precedence.cyclic_components ~removed c with
  | [] -> None
  | comps ->
    let summaries = Precedence.summaries c in
    let on_cycle = Array.make (Array.length summaries) false in
    List.iter (List.iter (fun v -> on_cycle.(v) <- true)) comps;
    let rec collect i acc =
      if i < 0 then acc
      else
        collect (i - 1)
          (if on_cycle.(i) && Summary.is_tentative summaries.(i) then i :: acc else acc)
    in
    (match collect (Array.length summaries - 1) [] with
    | [] -> invalid_arg "Backout: cycle without tentative transaction"
    | l -> Some l)

(* The first candidate of least [cost]. *)
let cheapest cost = function
  | [] -> assert false
  | i :: rest ->
    fst
      (List.fold_left
         (fun (j, cj) i ->
           let ci = cost i in
           if cj <= ci then (j, cj) else (i, ci))
         (i, cost i) rest)

(* Greedy feedback vertex set restricted to tentative nodes: while a cycle
   is left, remove the tentative node on one with the largest (in+out)
   degree among the nodes left, the earliest on ties. The degree counts
   the full graph's left-out neighbours too, so the victim is the one the
   full graph would pick. Marks its victims in [removed] and returns
   their names. *)
let greedy c ~removed =
  let succ, pred = Precedence.adjacency c in
  let live l = Array.fold_left (fun k w -> if removed.(w) then k else k + 1) 0 l in
  let degree i = live succ.(i) + live pred.(i) + Precedence.outside_degree c i in
  let rec loop acc =
    match candidates c ~removed with
    | None -> acc
    | Some l ->
      let i = cheapest (fun i -> -degree i) l in
      removed.(i) <- true;
      loop (Names.Set.add (name_of c i) acc)
  in
  loop Names.Set.empty

(* Greedy on damage: the victim minimizing |B ∪ closure(B)| after its
   removal, where the closure runs over the tentative summaries in history
   order; the earliest on ties. *)
let greedy_damage c =
  let tentative_summaries =
    List.filter Summary.is_tentative (Array.to_list (Precedence.summaries c))
  in
  let damage bad = Names.Set.cardinal (Affected.closure tentative_summaries ~bad) in
  let removed = Array.make (Precedence.node_count c) false in
  let rec loop acc =
    match candidates c ~removed with
    | None -> acc
    | Some l ->
      let i = cheapest (fun i -> damage (Names.Set.add (name_of c i) acc)) l in
      removed.(i) <- true;
      loop (Names.Set.add (name_of c i) acc)
  in
  loop Names.Set.empty

(* A tentative node with an edge each way to another node is forced: a
   two-cycle inside one history is impossible (edges point forward), so
   the other node is a base one, and only the tentative can break it.
   Found by marking each tentative node's predecessors and scanning its
   successors. *)
let two_cycle_then_greedy c =
  let succ, pred = Precedence.adjacency c in
  let summaries = Precedence.summaries c in
  let n = Array.length summaries in
  let removed = Array.make n false and into = Array.make n (-1) in
  let forced = ref Names.Set.empty in
  for i = 0 to n - 1 do
    if Summary.is_tentative summaries.(i) then begin
      Array.iter (fun w -> into.(w) <- i) pred.(i);
      if Array.exists (fun w -> w <> i && into.(w) = i) succ.(i) then begin
        removed.(i) <- true;
        forced := Names.Set.add summaries.(i).Summary.name !forced
      end
    end
  done;
  Names.Set.union !forced (greedy c ~removed)

(* ------------------------------------------------------------------ *)
(* Compact cyclic core, shared by the two exact solvers.

   Every cycle of the precedence graph lies entirely inside one strongly
   connected component, so the exact solvers only ever look at the nodes
   of the cone's cyclic components, reindexed into dense arrays with only
   same-component edges kept. Acyclifying every component independently
   acyclifies the whole graph, and the masked DFS feasibility check costs
   O(core) per candidate set. *)
module Core = struct
  type t = {
    n : int;
    name : Names.t array;  (* compact index -> transaction name *)
    tentative : bool array;
    succ : int array array;  (* same-component successors only *)
    pred : int array array;  (* the same edges, reversed *)
    comp : int array;  (* component id per compact node, dense from 0 *)
    n_comps : int;
  }

  let of_cone c =
    let cone_succ, _ = Precedence.adjacency c in
    let summaries = Precedence.summaries c in
    let comps = Precedence.cyclic_components c in
    let n = List.fold_left (fun acc comp -> acc + List.length comp) 0 comps in
    let node = Array.make n 0 and comp = Array.make n 0 in
    let idx = Array.make (Array.length summaries) (-1) in
    let k = ref 0 in
    List.iteri
      (fun cid members ->
        List.iter
          (fun v ->
            node.(!k) <- v;
            comp.(!k) <- cid;
            idx.(v) <- !k;
            incr k)
          members)
      comps;
    let name = Array.map (fun v -> summaries.(v).Summary.name) node in
    let tentative = Array.map (fun v -> Summary.is_tentative summaries.(v)) node in
    let succ =
      Array.init n (fun i ->
          Array.of_list
            (Array.fold_right
               (fun w acc ->
                 let j = idx.(w) in
                 if j >= 0 && comp.(j) = comp.(i) then j :: acc else acc)
               cone_succ.(node.(i)) []))
    in
    let pred = Array.make n [] in
    for i = n - 1 downto 0 do
      Array.iter (fun j -> pred.(j) <- i :: pred.(j)) succ.(i)
    done;
    {
      n;
      name;
      tentative;
      succ;
      pred = Array.map Array.of_list pred;
      comp;
      n_comps = List.length comps;
    }

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
     graphs too. An edge's reverse is found by marking the node's
     predecessors first, so a call costs O(E). *)
  let forced_victims ~comp ~removed t =
    let forced = ref [] in
    let marked = Array.make t.n false and into = Array.make t.n (-1) in
    for i = 0 to t.n - 1 do
      if t.comp.(i) = comp && not removed.(i) then begin
        Array.iter (fun j -> into.(j) <- i) t.pred.(i);
        Array.iter
          (fun j ->
            if j > i && (not removed.(j)) && into.(j) = i && t.tentative.(i) <> t.tentative.(j)
            then begin
              let v = if t.tentative.(i) then i else j in
              if not marked.(v) then begin
                marked.(v) <- true;
                forced := v :: !forced
              end
            end)
          t.succ.(i)
      end
    done;
    !forced

  (* Greedy vertex-disjoint cycle packing of a component's residual: each
     packed cycle must lose a distinct node, so the count lower-bounds the
     optimum back-out size. Short cycles are packed first — they block the
     fewest other cycles, so the bound is tighter. *)
  let packing_bound ~comp ~removed t =
    let used = Array.copy removed and into = Array.make t.n (-1) in
    let count = ref 0 in
    for i = 0 to t.n - 1 do
      if t.comp.(i) = comp && not used.(i) then begin
        Array.iter (fun j -> into.(j) <- i) t.pred.(i);
        if into.(i) = i then begin
          used.(i) <- true;
          incr count
        end
        else
          Array.iter
            (fun j ->
              if j > i && (not used.(j)) && (not used.(i)) && into.(j) = i then begin
                used.(i) <- true;
                used.(j) <- true;
                incr count
              end)
            t.succ.(i)
      end
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
let exhaustive c =
  let core = Core.of_cone c in
  let candidates = Names.Set.elements (all_in_cycles c) in
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
    let ok = acyclic ~removed core.Core.succ in
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
let branch_and_bound c =
  let core = Core.of_cone c in
  if core.Core.n = 0 then Names.Set.empty
  else begin
    let greedy_names = greedy c ~removed:(Array.make (Precedence.node_count c) false) in
    let seed_per_comp = Array.make core.Core.n_comps [] in
    for i = core.Core.n - 1 downto 0 do
      if Names.Set.mem core.Core.name.(i) greedy_names then
        seed_per_comp.(core.Core.comp.(i)) <- i :: seed_per_comp.(core.Core.comp.(i))
    done;
    let solve_comp comp seed =
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
        match Core.forced_victims ~comp ~removed core with
        | _ :: _ as forced ->
          if size + List.length forced >= !best_size then Obs.Counter.incr obs_bnb_pruned
          else begin
            List.iter take forced;
            go (size + List.length forced);
            List.iter untake forced
          end
        | [] -> (
          match Core.find_cycle ~comp ~removed core with
          | None ->
            if size < !best_size then begin
              best := !removed_list;
              best_size := size
            end
          | Some cycle ->
            let lb = Core.packing_bound ~comp ~removed core in
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
    for comp = 0 to core.Core.n_comps - 1 do
      List.iter
        (fun v -> solution := Names.Set.add core.Core.name.(v) !solution)
        (solve_comp comp seed_per_comp.(comp))
    done;
    !solution
  end

(* B when no strategy has a choice: only tentative nodes may be removed
   and every cycle passes through one, so with at most one tentative node
   every strategy returns nothing on an acyclic graph and that node
   otherwise. [None] from two on. *)
let forced pg =
  match Precedence.tentative_count pg with
  | 0 -> Some Names.Set.empty
  | 1 ->
    Some (if Precedence.is_acyclic pg then Names.Set.empty else Names.Set.singleton (name_of pg 0))
  | _ -> None

let compute ~strategy pg =
  let choose =
    match forced pg with
    | Some b ->
      fun () ->
        assert (Precedence.acyclic_without pg ~removed:b);
        (* Against its greedy seed {t}, branch and bound would cut its
           root once: [backout.bnb_nodes_pruned] counts it as before. *)
        if strategy = Branch_and_bound && not (Names.Set.is_empty b) then
          Obs.Counter.incr obs_bnb_pruned;
        b
    | None ->
      let c = Precedence.cone pg in
      fun () ->
        let b =
          match strategy with
          | All_in_cycles -> all_in_cycles c
          | Greedy_degree -> greedy c ~removed:(Array.make (Precedence.node_count c) false)
          | Two_cycle_then_greedy -> two_cycle_then_greedy c
          | Greedy_damage -> greedy_damage c
          | Branch_and_bound -> branch_and_bound c
          | Exhaustive -> exhaustive c
        in
        assert (breaks_all_cycles c b);
        b
  in
  Obs.Span.with_ ~lane:Obs.Event.Base ~name:"backout.compute" @@ fun () ->
  let b = choose () in
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
