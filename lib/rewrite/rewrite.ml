open Repro_txn
open Repro_history
module Obs = Repro_obs.Obs

let obs_runs = Obs.Counter.make "rewrite.runs"
let obs_pair_checks = Obs.Counter.make "rewrite.pair_checks"
let obs_oracle_calls = Obs.Counter.make "rewrite.can_precede_calls"
let obs_moves = Obs.Counter.make "rewrite.moves"
let obs_saved = Obs.Dist.make "rewrite.saved"
let obs_lost = Obs.Dist.make "rewrite.lost"
let obs_affected = Obs.Dist.make "rewrite.affected"
let obs_fix_items = Obs.Dist.make "rewrite.fix_items"

type algorithm = Closure | Can_follow | Can_follow_precede | Commute_only

let all_algorithms = [ Closure; Can_follow; Can_follow_precede; Commute_only ]

let algorithm_name = function
  | Closure -> "reads-from-closure"
  | Can_follow -> "can-follow (Alg 1)"
  | Can_follow_precede -> "can-follow+can-precede (Alg 2)"
  | Commute_only -> "commutes-backward-through"

type fix_mode = Exact | Coarse
type set_mode = Dynamic | Static
type jump = { jumped : Names.t; via : [ `Can_follow | `Can_precede ] }
type move = { mover : Names.t; jumps : jump list }

type verdict =
  | Follows
  | Precedes of Item.Set.t
  | Commutes
  | Blocked of Item.Set.t

type decision = { target : Names.t; verdict : verdict }
type attempt = { att_mover : Names.t; decisions : decision list; moved : bool }

type result = {
  algorithm : algorithm;
  original : History.t;
  execution : History.execution;
  rewritten : History.t;
  repaired : History.t;
  saved : Names.Set.t;
  bad : Names.Set.t;
  affected : Names.Set.t;
  moves : int;
  pair_checks : int;
  trace : move list;
  attempts : attempt list;
}

(* Working representation: the current arrangement is a list of original
   indices; fixes accumulate per index. The scan is O(n^2) relation tests,
   matching the paper's Section 7.1 complexity claim. *)
type scan_state = {
  recs : Interp.record array;  (* original execution records, by index *)
  is_bad : bool array;
  fixes : Fix.t array;
  set_mode : set_mode;
  capture : bool;  (* record per-pair verdicts for provenance *)
  mutable order : int list;  (* current arrangement *)
  mutable moves : int;
  mutable pair_checks : int;
  mutable rev_trace : move list;
  mutable rev_attempts : attempt list;
}

let reads_of st i =
  match st.set_mode with
  | Dynamic -> Interp.dynamic_readset st.recs.(i)
  | Static -> Program.readset st.recs.(i).Interp.program

let writes_of st i =
  match st.set_mode with
  | Dynamic -> Interp.dynamic_writeset st.recs.(i)
  | Static -> Program.writeset st.recs.(i).Interp.program

let program_of st i = st.recs.(i).Interp.program

(* T' (index j) can follow T (index i): nothing T read was written by T',
   and T' and T have no write-write overlap (the blind-write adaptation of
   Definition 3; redundant when writes ⊆ reads). Sets per the scan's set
   mode. *)
let dyn_can_follow st ~jumped:j ~mover:i =
  Item.Set.disjoint (writes_of st j) (Item.Set.union (reads_of st i) (writes_of st i))

(* One relation test, as a verdict. The check sequence and every counter
   increment are byte-for-byte those of the plain boolean test, so
   provenance capture never perturbs the cost accounting. *)
let check_pair ~theory st algorithm ~mover:i j =
  st.pair_checks <- st.pair_checks + 1;
  match algorithm with
  | Can_follow ->
    if dyn_can_follow st ~jumped:j ~mover:i then Follows else Blocked Item.Set.empty
  | Can_follow_precede ->
    if dyn_can_follow st ~jumped:j ~mover:i then Follows
    else begin
      Obs.Counter.incr obs_oracle_calls;
      let dom = Fix.domain st.fixes.(j) in
      if
        Semantics.can_precede ~theory ~fix_domain:dom ~mover:(program_of st i)
          ~target:(program_of st j)
      then Precedes dom
      else Blocked dom
    end
  | Commute_only ->
    Obs.Counter.incr obs_oracle_calls;
    if
      Semantics.commutes_backward_through ~theory ~mover:(program_of st i)
        ~target:(program_of st j)
    then Commutes
    else Blocked Item.Set.empty
  | Closure -> assert false

(* [List.for_all] unrolled so capture can keep the decisions: same
   left-to-right order, same short-circuit on the first blocked pair. *)
let may_move ~theory st algorithm ~block ~mover:i =
  let rec go acc = function
    | [] -> (true, List.rev acc)
    | j :: rest -> (
      let verdict = check_pair ~theory st algorithm ~mover:i j in
      let acc =
        if st.capture then
          { target = st.recs.(j).Interp.program.Program.name; verdict } :: acc
        else acc
      in
      match verdict with
      | Blocked _ -> (false, List.rev acc)
      | Follows | Precedes _ | Commutes -> go acc rest)
  in
  go [] block

(* Lemma 1: jumping T (mover) left past T' augments F' with the items T'
   read that T wrote, pinned at the values T' originally read. *)
let augment_fix st ~jumped:j ~mover:i =
  let pinned = Item.Set.inter (reads_of st j) (writes_of st i) in
  let before = st.recs.(j).Interp.before in
  st.fixes.(j) <- Fix.union st.fixes.(j) (Fix.of_state pinned before)

let move_before_b1 st ~b1 ~mover:i =
  let rec rebuild = function
    | [] -> []
    | k :: rest when k = i -> rebuild rest (* drop the mover from its old slot *)
    | k :: rest when k = b1 -> i :: k :: rebuild rest
    | k :: rest -> k :: rebuild rest
  in
  st.order <- rebuild st.order;
  st.moves <- st.moves + 1

(* The block currently between B1 (inclusive) and the mover (exclusive). *)
let block_of st ~b1 ~mover:i =
  let rec skip_prefix = function
    | [] -> []
    | k :: rest -> if k = b1 then k :: rest else skip_prefix rest
  in
  let rec take_until = function
    | [] -> []
    | k :: rest -> if k = i then [] else k :: take_until rest
  in
  take_until (skip_prefix st.order)

let scan ~theory algorithm st ~b1 ~n =
  for i = b1 + 1 to n - 1 do
    if not st.is_bad.(i) then begin
      let block = block_of st ~b1 ~mover:i in
      let ok, decisions = may_move ~theory st algorithm ~block ~mover:i in
      if st.capture then
        st.rev_attempts <-
          { att_mover = st.recs.(i).Interp.program.Program.name; decisions; moved = ok }
          :: st.rev_attempts;
      if ok then begin
        let jumps =
          List.map
            (fun j ->
              let via =
                match algorithm with
                | Can_follow -> `Can_follow
                | Can_follow_precede ->
                  (* Can-follow jumps take priority and pin fixes;
                     can-precede jumps need none (Definition 4 preserves
                     the final state as is). *)
                  if dyn_can_follow st ~jumped:j ~mover:i then `Can_follow else `Can_precede
                | Commute_only -> `Can_precede
                | Closure -> assert false
              in
              if via = `Can_follow && algorithm <> Commute_only then
                augment_fix st ~jumped:j ~mover:i;
              { jumped = st.recs.(j).Interp.program.Program.name; via })
            block
        in
        st.rev_trace <-
          { mover = st.recs.(i).Interp.program.Program.name; jumps } :: st.rev_trace;
        move_before_b1 st ~b1 ~mover:i
      end
    end
  done

(* Lemma 2: any non-empty fix may be replaced wholesale by
   [readset − writeset] pinned at the original before state, with the
   writeset taken per the scan's set mode: when can-follow runs on dynamic
   sets, an item of the static writeset that the execution did not
   actually write can still carry a pin the replay depends on. *)
let coarsen st =
  Array.iteri
    (fun i fix ->
      if not (Fix.is_empty fix) then
        let r = st.recs.(i) in
        let coarse = Item.Set.diff (Program.readset r.Interp.program) (writes_of st i) in
        st.fixes.(i) <- Fix.of_state coarse r.Interp.before)
    st.fixes

(* Static positional reads-from closure: the affected set a system
   without read logging would compute, mirroring
   Repro_history.Readsfrom.affected but over declared sets. *)
let static_affected (execution : History.execution) ~bad =
  let tainted = ref bad in
  let last_writer = ref Item.Map.empty in
  List.iter
    (fun (r : Interp.record) ->
      let p = r.Interp.program in
      let name = p.Program.name in
      let reads_tainted =
        Item.Set.exists
          (fun x ->
            match Item.Map.find_opt x !last_writer with
            | Some w -> Names.Set.mem w !tainted
            | None -> false)
          (Program.readset p)
      in
      if reads_tainted && not (Names.Set.mem name !tainted) then
        tainted := Names.Set.add name !tainted;
      Item.Set.iter
        (fun x -> last_writer := Item.Map.add x name !last_writer)
        (Program.writeset p))
    execution.History.records;
  Names.Set.diff !tainted bad

(* One tally per completed rewrite, whichever branch produced it. *)
let observe_result (r : result) =
  Obs.Counter.incr obs_runs;
  if Obs.enabled () then begin
    let n = History.length r.original in
    let saved = Names.Set.cardinal r.saved in
    Obs.Dist.observe_int obs_saved saved;
    Obs.Dist.observe_int obs_lost (n - saved);
    Obs.Dist.observe_int obs_affected (Names.Set.cardinal r.affected);
    Obs.Counter.incr ~by:r.pair_checks obs_pair_checks;
    Obs.Counter.incr ~by:r.moves obs_moves;
    Obs.Dist.observe_int obs_fix_items
      (List.fold_left
         (fun acc (e : History.entry) -> acc + List.length (Fix.to_list e.History.fix))
         0
         (History.entries r.rewritten))
  end;
  r

(* The body of [run], from an execution the caller already made: the
   merge passes the one its graph phase ran, so a merge executes its
   tentative history once. *)
let run_execution ~theory ~fix_mode ?(set_mode = Dynamic) ?(capture = false) algorithm
    (execution : History.execution) ~bad =
  Obs.Span.with_ ~lane:Obs.Event.Mobile ~name:"rewrite.run" @@ fun () ->
  let history = execution.History.history in
  List.iter
    (fun (e : History.entry) ->
      if not (Fix.is_empty e.History.fix) then
        invalid_arg "Rewrite.run: input history must carry empty fixes")
    (History.entries history);
  Names.Set.iter
    (fun name ->
      if not (History.mem history name) then
        invalid_arg ("Rewrite.run: unknown bad transaction " ^ name))
    bad;
  let affected =
    match set_mode with
    | Dynamic -> Readsfrom.affected execution ~bad
    | Static -> static_affected execution ~bad
  in
  let recs = Array.of_list execution.History.records in
  let n = Array.length recs in
  let name_at i = recs.(i).Interp.program.Program.name in
  let is_bad = Array.init n (fun i -> Names.Set.mem (name_at i) bad) in
  match algorithm with
  | Closure ->
    let discard = Names.Set.union bad affected in
    let keep name = not (Names.Set.mem name discard) in
    let repaired = History.restrict history keep in
    let dropped = History.restrict history (fun name -> not (keep name)) in
    observe_result
    {
      algorithm;
      original = history;
      execution;
      rewritten = History.append repaired dropped;
      repaired;
      saved = History.name_set repaired;
      bad;
      affected;
      moves = 0;
      pair_checks = 0;
      trace = [];
      attempts = [];
    }
  | Can_follow | Can_follow_precede | Commute_only ->
    let st =
      {
        recs;
        is_bad;
        fixes = Array.make n Fix.empty;
        set_mode;
        capture;
        order = List.init n (fun i -> i);
        moves = 0;
        pair_checks = 0;
        rev_trace = [];
        rev_attempts = [];
      }
    in
    let b1 =
      let rec first i = if i >= n then None else if is_bad.(i) then Some i else first (i + 1) in
      first 0
    in
    (match b1 with
    | None -> () (* nothing bad: the history is already repaired *)
    | Some b1 ->
      scan ~theory algorithm st ~b1 ~n;
      if fix_mode = Coarse then coarsen st);
    let entry_of i =
      { History.program = recs.(i).Interp.program; History.fix = st.fixes.(i) }
    in
    let rewritten = History.of_entries (List.map entry_of st.order) in
    let prefix =
      match b1 with
      | None -> st.order
      | Some b1 ->
        let rec take = function
          | [] -> []
          | k :: _ when k = b1 -> []
          | k :: rest -> k :: take rest
        in
        take st.order
    in
    let repaired = History.of_entries (List.map entry_of prefix) in
    observe_result
    {
      algorithm;
      original = history;
      execution;
      rewritten;
      repaired;
      saved = History.name_set repaired;
      bad;
      affected;
      moves = st.moves;
      pair_checks = st.pair_checks;
      trace = List.rev st.rev_trace;
      attempts = List.rev st.rev_attempts;
    }

let run ~theory ~fix_mode ?set_mode ?capture algorithm ~s0 history ~bad =
  run_execution ~theory ~fix_mode ?set_mode ?capture algorithm (History.execute s0 history) ~bad

let suffix r =
  let keep = History.name_set r.repaired in
  List.filter
    (fun (e : History.entry) -> not (Names.Set.mem e.History.program.Program.name keep))
    (History.entries r.rewritten)

let pp_trace ppf r =
  if r.trace = [] then Format.fprintf ppf "no moves: the scan saved nothing beyond the prefix@."
  else
    List.iter
      (fun m ->
        Format.fprintf ppf "%s moved before the bad block, jumping %s@." m.mover
          (String.concat ", "
             (List.map
                (fun j ->
                  Printf.sprintf "%s (%s)" j.jumped
                    (match j.via with
                    | `Can_follow -> "it can follow the mover"
                    | `Can_precede -> "the mover can precede it"))
                m.jumps)))
      r.trace

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v 2>%s:@ original:  %a@ rewritten: %a@ repaired:  %a@ B=%a AG=%a saved=%d/%d moves=%d \
     checks=%d@]"
    (algorithm_name r.algorithm) History.pp r.original History.pp r.rewritten History.pp
    r.repaired Names.Set.pp r.bad Names.Set.pp r.affected
    (Names.Set.cardinal r.saved) (History.length r.original) r.moves r.pair_checks
