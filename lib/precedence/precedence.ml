open Repro_txn
open Repro_history
module Scc = Repro_graph.Scc
module Obs = Repro_obs.Obs

let obs_builds = Obs.Counter.make "precedence.builds"
let obs_cyclic = Obs.Counter.make "precedence.cyclic_graphs"
let obs_nodes = Obs.Dist.make "precedence.nodes"
let obs_edges = Obs.Dist.make "precedence.edges"

(* ------------------------------------------------------------------ *)
(* The per-window conflict index. *)

(* One transaction of an indexed history. Its conflict partners are split
   by position: an intra-history edge runs from the earlier of two
   conflicting transactions to the later, and a merged order never swaps
   a conflicting pair (docs/PERFORMANCE.md §3), so a partner stays on its
   side for as long as both are in the window. *)
type node = {
  summary : Summary.t Lazy.t;  (* forced when the node is linked *)
  slot : int;  (* entry order: where the payload lives *)
  mutable pos : int;
  mutable before : node list;  (* conflict partners at lower positions *)
  mutable after : node list;  (* conflict partners at higher positions *)
  mutable n_after : int;
  mutable seen : int;  (* stamp of the last lookup that met the node *)
}

(* Readers and writers of every item. *)
type items = {
  readers : (Item.t, node list ref) Hashtbl.t;
  writers : (Item.t, node list ref) Hashtbl.t;
  mutable stamp : int;
}

let new_items () = { readers = Hashtbl.create 16; writers = Hashtbl.create 16; stamp = 0 }

let make_node summary ~slot ~pos =
  { summary; slot; pos; before = []; after = []; n_after = 0; seen = 0 }

(* [f] on every node of [items] sharing an item with [s] that one of the
   two writes — exactly the nodes [s] conflicts with ({!Summary.conflicts})
   and the only ones an edge rule can fire on — once each. *)
let iter_conflicting items (s : Summary.t) f =
  items.stamp <- items.stamp + 1;
  let stamp = items.stamp in
  let meet nd =
    if nd.seen <> stamp then begin
      nd.seen <- stamp;
      f nd
    end
  in
  let each tbl x = Option.iter (fun l -> List.iter meet !l) (Hashtbl.find_opt tbl x) in
  Item.Set.iter (each items.writers) s.Summary.readset;
  Item.Set.iter
    (fun x ->
      each items.writers x;
      each items.readers x)
    s.Summary.writeset

(* Link [nd] to the nodes of [items] it conflicts with, each on the side
   its position puts it, then add [nd] to the item lists. Returns the
   number of conflicting pairs found. Pairs of nodes entering in any order
   are each found once, from the end that enters second. *)
let enter items nd =
  let pairs = ref 0 in
  let s = Lazy.force nd.summary in
  iter_conflicting items s (fun p ->
      incr pairs;
      let lo, hi = if p.pos < nd.pos then (p, nd) else (nd, p) in
      lo.after <- hi :: lo.after;
      lo.n_after <- lo.n_after + 1;
      hi.before <- lo :: hi.before);
  let push tbl x =
    match Hashtbl.find_opt tbl x with
    | Some l -> l := nd :: !l
    | None -> Hashtbl.add tbl x (ref [ nd ])
  in
  Item.Set.iter (push items.readers) s.Summary.readset;
  Item.Set.iter (push items.writers) s.Summary.writeset;
  !pairs

(* What a graph reads of an index, whatever its payload type. *)
type core = {
  items : items;
  names : (Names.t, node list ref) Hashtbl.t;
  mutable dups : Names.t list;  (* names two or more nodes hold *)
  mutable nodes : node array;  (* by position, [0, len) *)
  mutable len : int;
  mutable pairs : int;  (* conflicting pairs among the linked nodes *)
  mutable pending : node list;  (* entered, not yet linked *)
  mutable version : int;  (* bumped by every change, so a stale graph is caught *)
}

let add_name c nd =
  let name = (Lazy.force nd.summary).Summary.name in
  match Hashtbl.find_opt c.names name with
  | None -> Hashtbl.add c.names name (ref [ nd ])
  | Some l ->
    if List.compare_length_with !l 1 = 0 then c.dups <- name :: c.dups;
    l := nd :: !l

(* Link the nodes that entered since the last call. Linking waits for a
   graph that reads them, so the transactions a window commits after its
   last merge cost one node each. *)
let settle c =
  if c.pending <> [] then begin
    List.iter
      (fun nd ->
        c.pairs <- c.pairs + enter c.items nd;
        add_name c nd)
      c.pending;
    c.pending <- []
  end

(* Intra-history edges among the positions [from, len), each counted at
   its earlier end. *)
let suffix_pairs c ~from =
  if from = 0 then c.pairs
  else begin
    let k = ref 0 in
    for p = from to c.len - 1 do
      k := !k + c.nodes.(p).n_after
    done;
    !k
  end

module Index = struct
  type 'a store = {
    core : core;
    summary : 'a -> Summary.t;
    mutable payloads : 'a array;  (* by slot *)
  }

  type 'a t = { store : 'a store; from : int }

  let create ~summary =
    {
      store =
        {
          core =
            {
              items = new_items ();
              names = Hashtbl.create 16;
              dups = [];
              nodes = [||];
              len = 0;
              pairs = 0;
              pending = [];
              version = 0;
            };
          summary;
          payloads = [||];
        };
      from = 0;
    }

  let length t = t.store.core.len - t.from

  let get t i =
    if i < 0 || i >= length t then invalid_arg "Precedence.Index.get: position out of range";
    t.store.payloads.(t.store.core.nodes.(t.from + i).slot)

  let to_list ?upto t =
    let c = t.store.core in
    let hi = match upto with None -> c.len | Some u -> max t.from (min c.len (t.from + u)) in
    let rec go p acc =
      if p < t.from then acc else go (p - 1) (t.store.payloads.(c.nodes.(p).slot) :: acc)
    in
    go (hi - 1) []

  let suffix t ~from =
    if from < 0 || from > length t then invalid_arg "Precedence.Index.suffix: from out of range";
    { t with from = t.from + from }

  (* Room for [len] nodes and payloads; [nd] and [x] fill the new cells.
     A splice fills slots past [c.len] before it lays the nodes out, so
     the whole arrays are kept. *)
  let reserve st len nd x =
    let c = st.core in
    let cap = Array.length c.nodes in
    if len > cap then begin
      let nodes = Array.make (max len (max 16 (2 * cap))) nd in
      let payloads = Array.make (Array.length nodes) x in
      Array.blit c.nodes 0 nodes 0 cap;
      Array.blit st.payloads 0 payloads 0 cap;
      c.nodes <- nodes;
      st.payloads <- payloads
    end

  (* A new node at [pos] holding [x] in [slot], the next free one,
     waiting to be linked. *)
  let fresh st ~slot ~pos x =
    let nd = make_node (lazy (st.summary x)) ~slot ~pos in
    reserve st (slot + 1) nd x;
    st.payloads.(slot) <- x;
    st.core.pending <- nd :: st.core.pending;
    nd

  let settle t = settle t.store.core

  let push t x =
    let st = t.store in
    let c = st.core in
    let nd = fresh st ~slot:c.len ~pos:c.len x in
    c.nodes.(c.len) <- nd;
    c.len <- c.len + 1;
    c.version <- c.version + 1

  type 'a placed = Moved of int | Added of 'a

  let splice_error () =
    invalid_arg "Precedence.Index.splice: the tail moves a position before the splice, past the view or twice"

  (* The view from [first] on becomes the transactions there that the tail
     does not move, in order, then the tail. The moved nodes are marked by
     position and the others keep their nodes, shifted down in place:
     nothing before [first] is read and no name is hashed. *)
  let splice t ~first tail =
    let st = t.store in
    let c = st.core in
    if first < 0 || first > length t then invalid_arg "Precedence.Index.splice: first out of range";
    if tail <> [] then begin
      settle t;
      c.items.stamp <- c.items.stamp + 1;
      let stamp = c.items.stamp in
      List.iter
        (function
          | Moved p ->
            if p < first || p >= length t then splice_error ();
            let nd = c.nodes.(t.from + p) in
            if nd.seen = stamp then splice_error ();
            nd.seen <- stamp
          | Added _ -> ())
        tail;
      (* Resolve the tail before the shift overwrites the moved cells; a new
         transaction takes the next free slot and waits to be linked. *)
      let old_len = c.len in
      let slot = ref old_len in
      let placed =
        List.map
          (function
            | Moved p -> c.nodes.(t.from + p)
            | Added x ->
              let nd = fresh st ~slot:!slot ~pos:!slot x in
              incr slot;
              nd)
          tail
      in
      (* [fresh] made room for every slot, hence for every position. *)
      let at = ref (t.from + first) in
      let lay nd =
        nd.pos <- !at;
        c.nodes.(!at) <- nd;
        incr at
      in
      for p = t.from + first to old_len - 1 do
        let nd = c.nodes.(p) in
        if nd.seen <> stamp then lay nd
      done;
      List.iter lay placed;
      c.len <- !at;
      c.version <- c.version + 1
    end

  let spliced t ~first tail =
    if first < 0 || first > length t then invalid_arg "Precedence.Index.spliced: first out of range";
    let moved =
      List.sort (fun a b -> Int.compare b a)
        (List.filter_map (function Moved p -> Some p | Added _ -> None) tail)
    in
    (* [moved] descending: each position in [first, length t) once. *)
    ignore
      (List.fold_left
         (fun next p ->
           if p >= next || p < first then splice_error ();
           p)
         (length t) moved);
    let rec stay p moved acc =
      if p < first then acc
      else
        match moved with
        | q :: rest when q = p -> stay (p - 1) rest acc
        | _ -> stay (p - 1) moved (get t p :: acc)
    in
    to_list ~upto:first t
    @ stay (length t - 1) moved []
    @ List.map (function Moved p -> get t p | Added x -> x) tail

  let clear t =
    let c = t.store.core in
    Hashtbl.reset c.items.readers;
    Hashtbl.reset c.items.writers;
    Hashtbl.reset c.names;
    c.dups <- [];
    c.nodes <- [||];
    t.store.payloads <- [||];
    c.len <- 0;
    c.pairs <- 0;
    c.pending <- [];
    c.version <- c.version + 1

  let of_list ~summary xs =
    let t = create ~summary in
    List.iter (push t) xs;
    t

  let of_summaries l = of_list ~summary:Fun.id l
end

(* ------------------------------------------------------------------ *)
(* Graphs. *)

(* A materialised graph: a cone, as dense arrays. *)
type dense = {
  succ : int array array;  (* per node, in the full graph's edge order *)
  pred : int array array;
  summaries : Summary.t array;
  outside : int array;  (* per node: edges to full-graph nodes the cone left out *)
}

(* The session's part of G(H_m, H_b): the tentative block and its cross
   edges. Base-to-base adjacency is read from the index on demand. *)
type session = {
  core : core;
  from : int;  (* base node [m + k] is the index's position [from + k] *)
  version : int;
  tentative : Summary.t array;
  t_succ : int list array;  (* per tentative node, in edge order *)
  t_pred : int list array;
  cross_out : (int, int list) Hashtbl.t;  (* base node -> its tentative successors *)
}

type shape = Dense of dense | Session of session

type t = {
  n : int;
  tentative_count : int;  (* nodes [0, tentative_count) are the tentative block *)
  edges : int;
  shape : shape;
  acyclic : bool option ref;  (* cached first test; shared with the cone *)
  mutable cone : t option;
}

let check_current s =
  if s.core.version <> s.version then
    invalid_arg "Precedence: the index changed after this graph was built"

let base_node s v =
  check_current s;
  s.core.nodes.(s.from + v - Array.length s.tentative)

let id_of s nd = nd.pos - s.from + Array.length s.tentative
let crossing tbl v = Option.value (Hashtbl.find_opt tbl v) ~default:[]

(* The first node of [tentative @ suffix] whose name an earlier one holds:
   a tentative name met again, or the second suffix holder of a name. *)
let check_names c ~from (tentative : Summary.t array) =
  let seen = Hashtbl.create (max 16 (2 * Array.length tentative)) in
  let fail name = invalid_arg ("Precedence.build: duplicate transaction name " ^ name) in
  Array.iter
    (fun (s : Summary.t) ->
      if Hashtbl.mem seen s.Summary.name then fail s.Summary.name;
      Hashtbl.replace seen s.Summary.name ())
    tentative;
  let first = ref max_int in
  let holders name =
    match Hashtbl.find_opt c.names name with
    | None -> []
    | Some l ->
      List.sort Int.compare
        (List.filter_map (fun nd -> if nd.pos >= from then Some nd.pos else None) !l)
  in
  Hashtbl.iter
    (fun name _ -> match holders name with p :: _ -> first := min !first p | [] -> ())
    seen;
  List.iter
    (fun name -> match holders name with _ :: p :: _ -> first := min !first p | _ -> ())
    c.dups;
  if !first < max_int then fail (Lazy.force c.nodes.(!first).summary).Summary.name

let build ~tentative ~(base : _ Index.t) =
  Obs.Span.with_ ~lane:Obs.Event.Base ~name:"precedence.build" @@ fun () ->
  let c = base.Index.store.Index.core and from = base.Index.from in
  settle c;
  let tentative = Array.of_list tentative in
  let m = Array.length tentative in
  let n = m + c.len - from in
  check_names c ~from tentative;
  (* Intra-tentative edges, through a scratch index of the block. *)
  let block = new_items () in
  let tnodes = Array.mapi (fun i s -> make_node (Lazy.from_val s) ~slot:i ~pos:i) tentative in
  let intra = Array.fold_left (fun k nd -> k + enter block nd) 0 tnodes in
  (* Cross edges, through the window's item lists: a transaction that
     read an item the other history's transaction updated saw the common
     original value, hence precedes. Per tentative [i]: its base partners
     [b] ascending, with [i -> b] and [b -> i]. *)
  let cross_edges = ref 0 in
  let cross =
    Array.map
      (fun (tm : Summary.t) ->
        let found = ref [] in
        iter_conflicting c.items tm (fun nd ->
            if nd.pos >= from then begin
              let tb = Lazy.force nd.summary in
              let out = not (Item.Set.disjoint tm.Summary.readset tb.Summary.writeset) in
              (* Blind-write adaptation: a write-write overlap with no read
                 on either side produces no edge under the paper's literal
                 rules, leaving the merged order of the two writes
                 ambiguous. Order the base transaction first (the
                 tentative write wins, matching the protocol's forwarded
                 updates). With no blind writes this never fires:
                 writeset ⊆ readset makes the overlap a two-cycle. *)
              let into =
                (not (Item.Set.disjoint tb.Summary.readset tm.Summary.writeset))
                || ((not out) && not (Item.Set.disjoint tm.Summary.writeset tb.Summary.writeset))
              in
              found := (m + nd.pos - from, out, into) :: !found;
              cross_edges := !cross_edges + Bool.to_int out + Bool.to_int into
            end);
        List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) !found)
      tentative
  in
  let positions l = List.sort Int.compare (List.map (fun nd -> nd.pos) l) in
  let t_succ =
    Array.mapi
      (fun i nd ->
        positions nd.after
        @ List.filter_map (fun (b, out, _) -> if out then Some b else None) cross.(i))
      tnodes
  and t_pred =
    Array.mapi
      (fun i nd ->
        positions nd.before
        @ List.filter_map (fun (b, _, into) -> if into then Some b else None) cross.(i))
      tnodes
  in
  let cross_out = Hashtbl.create 16 in
  for i = m - 1 downto 0 do
    List.iter
      (fun (b, _, into) -> if into then Hashtbl.replace cross_out b (i :: crossing cross_out b))
      cross.(i)
  done;
  let edges = intra + !cross_edges + suffix_pairs c ~from in
  Obs.Counter.incr obs_builds;
  Obs.Dist.observe_int obs_nodes n;
  Obs.Dist.observe_int obs_edges edges;
  if Obs.Event.capturing () then
    Obs.Event.emit ~lane:Obs.Event.Base
      ~attrs:[ ("nodes", Obs.Event.Int n); ("edges", Obs.Event.Int edges) ]
      "precedence.built";
  let session =
    {
      core = c;
      from;
      version = c.version;
      tentative;
      t_succ;
      t_pred;
      cross_out;
    }
  in
  { n; tentative_count = m; edges; shape = Session session; acyclic = ref None; cone = None }

let of_executions ~tentative ~base =
  build
    ~tentative:(Summary.of_execution ~kind:Summary.Tentative tentative)
    ~base:(Index.of_summaries (Summary.of_execution ~kind:Summary.Base base))

let node_count t = t.n
let edge_count t = t.edges
let tentative_count t = t.tentative_count

let summary_of_node t v =
  match t.shape with
  | Dense d -> d.summaries.(v)
  | Session s ->
    if v < t.tentative_count then s.tentative.(v) else Lazy.force (base_node s v).summary

let summaries t =
  match t.shape with Dense d -> d.summaries | Session _ -> Array.init t.n (summary_of_node t)

(* A base node's successors are its later partners, then the tentative
   nodes it reaches; a tentative node's are listed in [t_succ]. Both in
   the full graph's edge order. *)
let successors t v =
  match t.shape with
  | Dense d -> Array.to_list d.succ.(v)
  | Session s ->
    if v < t.tentative_count then s.t_succ.(v)
    else
      List.sort Int.compare (List.map (id_of s) (base_node s v).after) @ crossing s.cross_out v

(* Successors in no particular order, for walks. *)
let for_all_successors t v f =
  match t.shape with
  | Dense d -> Array.for_all f d.succ.(v)
  | Session s ->
    if v < t.tentative_count then List.for_all f s.t_succ.(v)
    else
      List.for_all (fun nd -> f (id_of s nd)) (base_node s v).after
      && List.for_all f (crossing s.cross_out v)

let iter_successors t v f = ignore (for_all_successors t v (fun w -> f w; true))

(* Predecessors, leaving out a base node's tentative ones: the cone
   holds every tentative node, so the walk and the outside count that
   read this never need them. *)
let iter_predecessors t s v f =
  if v < t.tentative_count then List.iter f s.t_pred.(v)
  else List.iter (fun nd -> if nd.pos >= s.from then f (id_of s nd)) (base_node s v).before

let edges t =
  List.concat_map (fun u -> List.map (fun v -> (u, v)) (successors t u)) (List.init t.n Fun.id)

let outside_degree t i = match t.shape with Dense d -> d.outside.(i) | Session _ -> 0

(* Edges inside one history point forward, so every cycle takes a cross
   edge and passes through the tentative block: a three-colour DFS rooted
   at the kept tentative nodes alone meets every cycle the removal leaves.
   With no kept tentative node it answers without a walk. *)
let acyclic_without t ~removed =
  let m = t.tentative_count in
  let gone = Array.init m (fun i -> Names.Set.mem (summary_of_node t i).Summary.name removed) in
  Array.for_all Fun.id gone
  ||
  let color = Array.make t.n 0 in
  let rec visit v =
    (v < m && gone.(v))
    ||
    match color.(v) with
    | 1 -> false
    | 2 -> true
    | _ ->
      color.(v) <- 1;
      let ok = for_all_successors t v visit in
      color.(v) <- 2;
      ok
  in
  let rec from i = i >= m || (visit i && from (i + 1)) in
  from 0

let is_acyclic t =
  match !(t.acyclic) with
  | Some a -> a
  | None ->
    let a = acyclic_without t ~removed:Names.Set.empty in
    t.acyclic := Some a;
    if not a then Obs.Counter.incr obs_cyclic;
    a

(* The tentative nodes plus every base node reachable from one and
   reaching one. A node on a cycle through tentative [t] is reached from
   [t] and reaches it, so the cone keeps every cycle, renumbered in
   increasing order with each successor list in order; docs/PERFORMANCE.md
   ("The conflict cone") shows why Tarjan then lists the cyclic
   components exactly as on the full graph. Every node on a path from a
   tentative node to a cone node is reached and reaches, so the backward
   walk stays inside the forward one. *)
let cone t =
  match (t.cone, t.shape) with
  | Some c, _ -> c
  | None, Dense _ -> t
  | None, Session s ->
    let n = t.n and m = t.tentative_count in
    let reached = Array.make n false in
    let rec forward v =
      if not reached.(v) then begin
        reached.(v) <- true;
        iter_successors t v forward
      end
    in
    let member = Array.make n false in
    let rec backward v =
      if reached.(v) && not member.(v) then begin
        member.(v) <- true;
        iter_predecessors t s v backward
      end
    in
    for i = 0 to m - 1 do
      forward i
    done;
    for i = 0 to m - 1 do
      backward i
    done;
    (* Cone node of each member, -1 off the cone. Every tentative node is
       a member, so the block keeps its numbers. *)
    let id = Array.make n (-1) and k = ref 0 in
    for v = 0 to n - 1 do
      if member.(v) then begin
        id.(v) <- !k;
        incr k
      end
    done;
    let k = !k in
    let old = Array.make k 0 in
    Array.iteri (fun v u -> if u >= 0 then old.(u) <- v) id;
    (* A left-out neighbour is a base node on no cycle, so back-out never
       removes it; greedy adds the count to keep the full graph's degree. *)
    let outside = Array.make k 0 in
    let keep u acc w =
      if id.(w) >= 0 then id.(w) :: acc
      else begin
        outside.(u) <- outside.(u) + 1;
        acc
      end
    in
    (* A base node's later partners are filtered to members before they
       are sorted. *)
    let succ =
      Array.init k (fun u ->
          let v = old.(u) in
          if v < m then Array.of_list (List.rev (List.fold_left (keep u) [] s.t_succ.(v)))
          else
            let later =
              List.fold_left (fun acc nd -> keep u acc (id_of s nd)) [] (base_node s v).after
            in
            Array.of_list (List.sort Int.compare later @ crossing s.cross_out v))
    in
    Array.iteri
      (fun u v ->
        iter_predecessors t s v (fun w -> if id.(w) < 0 then outside.(u) <- outside.(u) + 1))
      old;
    (* Predecessors by inverting [succ]: first the sources in the node's
       own block, then those in the other, each in increasing order — the
       order the full graph enters them in. *)
    let in_degree = Array.make k 0 in
    Array.iter (Array.iter (fun w -> in_degree.(w) <- in_degree.(w) + 1)) succ;
    let pred = Array.map (fun d -> Array.make d 0) in_degree in
    let filled = Array.make k 0 in
    let enter ~same_block =
      for u = 0 to k - 1 do
        Array.iter
          (fun w ->
            if Bool.equal (u < m) (w < m) = same_block then begin
              pred.(w).(filled.(w)) <- u;
              filled.(w) <- filled.(w) + 1
            end)
          succ.(u)
      done
    in
    enter ~same_block:true;
    enter ~same_block:false;
    let summaries = Array.map (summary_of_node t) old in
    let c =
      {
        n = k;
        tentative_count = m;
        edges = Array.fold_left ( + ) 0 in_degree;
        shape = Dense { succ; pred; summaries; outside };
        acyclic = t.acyclic;
        cone = None;
      }
    in
    c.cone <- Some c;
    t.cone <- Some c;
    c

(* [cone] always gives a dense graph. *)
let dense t = match (cone t).shape with Dense d -> d | Session _ -> assert false

let adjacency t =
  let d = dense t in
  (d.succ, d.pred)

let cyclic_components ?removed t =
  let succ = (dense t).succ in
  List.filter
    (function [ v ] -> Array.mem v succ.(v) | _ -> true)
    (Scc.components_of_arrays ?skip:removed succ)

let tentative_on_cycles t =
  let summaries = (dense t).summaries in
  List.fold_left
    (List.fold_left (fun acc v ->
         let s = summaries.(v) in
         if Summary.is_tentative s then Names.Set.add s.Summary.name acc else acc))
    Names.Set.empty (cyclic_components t)

module Int_set = Set.Make (Int)

(* Kahn's algorithm on the reduced graph under the priority "base before
   tentative, then lower node id". A base node no kept tentative reaches
   is never blocked, and no tentative goes before it, so all such nodes
   keep their base order in front of the tail; only the tail needs
   ordering. Every cycle of the reduced graph passes through a kept
   tentative, hence lies in the tail.

   Nothing is the window's size. The tail's nodes take the stamps
   [base, base + size) in the order the walk reaches them, so a base node's
   stamp, less [base], is the slot of its in-degree counter, and a stamp
   below [base] means "outside the tail"; a kept tentative's slot is in
   [slot]. The index's next stamp is past them all. *)
let merge_order t ~removed =
  let s =
    match t.shape with
    | Session s -> s
    | Dense _ -> invalid_arg "Precedence.merge_order: a cone has no base positions"
  in
  check_current s;
  let m = t.tentative_count and items = s.core.items in
  let base = items.stamp + 1 in
  let slot = Array.make m (-1) and tail = ref [] and size = ref 0 and first = ref (t.n - m) in
  (* Every kept tentative is a root, so following base successors only
     reaches through kept tentatives and never through removed ones. *)
  let rec visit nd =
    if nd.seen < base then begin
      nd.seen <- base + !size;
      incr size;
      let v = id_of s nd in
      first := Int.min !first (v - m);
      tail := v :: !tail;
      List.iter visit nd.after
    end
  in
  for i = 0 to m - 1 do
    if not (Names.Set.mem s.tentative.(i).Summary.name removed) then begin
      slot.(i) <- !size;
      incr size;
      tail := i :: !tail;
      List.iter (fun w -> if w >= m then visit (base_node s w)) s.t_succ.(i)
    end
  done;
  items.stamp <- base + !size;
  let slot_of v = if v < m then slot.(v) else (base_node s v).seen - base in
  (* [f w j] on each successor [w] of tail node [v] in the tail, [j] its slot. *)
  let iter_tail v f =
    if v < m then List.iter (fun w -> if w >= m || slot.(w) >= 0 then f w (slot_of w)) s.t_succ.(v)
    else begin
      List.iter
        (fun nd -> if nd.seen >= base then f (id_of s nd) (nd.seen - base))
        (base_node s v).after;
      List.iter (fun w -> if slot.(w) >= 0 then f w slot.(w)) (crossing s.cross_out v)
    end
  in
  let indegree = Array.make !size 0 in
  List.iter (fun v -> iter_tail v (fun _ j -> indegree.(j) <- indegree.(j) + 1)) !tail;
  (* Base keys [m, n) sort before tentative keys [n, n + m). *)
  let n = t.n in
  let key v = if v < m then n + v else v and node k = if k >= n then k - n else k in
  let rec drain ready acc =
    match Int_set.min_elt_opt ready with
    | None -> List.rev acc
    | Some k ->
      let v = node k in
      let ready = ref (Int_set.remove k ready) in
      iter_tail v (fun w j ->
          indegree.(j) <- indegree.(j) - 1;
          if indegree.(j) = 0 then ready := Int_set.add (key w) !ready);
      drain !ready (v :: acc)
  in
  let ready =
    List.fold_left
      (fun ready v -> if indegree.(slot_of v) = 0 then Int_set.add (key v) ready else ready)
      Int_set.empty !tail
  in
  let order = drain ready [] in
  if List.compare_length_with order !size <> 0 then None else Some (!first, order)

let pp ppf t =
  let name i = (summary_of_node t i).Summary.name in
  let pp_edge ppf (u, v) = Format.fprintf ppf "%s->%s" (name u) (name v) in
  Format.fprintf ppf "@[<v 2>precedence graph:@ %a@ edges: %a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Summary.pp)
    (Array.to_list (summaries t))
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " ") pp_edge)
    (edges t)
