open Repro_txn
module History = Repro_history.History
module Names = Repro_history.Names
module Engine = Repro_db.Engine
module Wal = Repro_db.Wal
module P = Repro_replication.Protocol
module Cost = Repro_replication.Cost
module Obs = Repro_obs.Obs

let obs_local = Obs.Counter.make "multibase.local_txns"
let obs_received = Obs.Counter.make "multibase.txns_received"
let obs_integrations = Obs.Counter.make "multibase.integrations"
let obs_committed = Obs.Counter.make "multibase.txns_committed"
let obs_rejected = Obs.Counter.make "multibase.txns_rejected"
let obs_commit_fast = Obs.Counter.make "multibase.commit_fast"
let obs_commit_reanchor = Obs.Counter.make "multibase.commit_reanchor"
let obs_semantic_miss = Obs.Counter.make "multibase.commit_semantic_miss"
let obs_crashes = Obs.Counter.make "multibase.base_crashes"
let obs_reconciled = Obs.Counter.make "multibase.recoveries_reconciled"
let obs_ticks = Obs.Counter.make "multibase.ticks"
let obs_batch = Obs.Dist.make "multibase.stable_batch"

(* The whole multi-base bookkeeping journals under one reserved session
   id; mobile merge sessions use positive sids, so the two never clash in
   the WAL session journal. *)
let mb_sid = 0

type store = { register : Gtxn.t -> unit; lookup : Gtxn.id -> Gtxn.t }

type config = {
  merge : P.merge_config;
  commit_acceptance : P.acceptance;
  params : Cost.params;
}

let default_config =
  {
    merge = P.default_merge_config;
    commit_acceptance = P.accept_same_shape;
    params = Cost.default_params;
  }

type t = {
  id : int;
  n : int;
  s0 : State.t;
  config : config;
  store : store;
  engine : Engine.t;
  mutable clock : int;  (* volatile Lamport clock *)
  mutable durable_clock : int;  (* highest timestamp journaled + forced *)
  mutable seq : int;  (* own per-origin sequence counter *)
  mutable stable_rev : (Gtxn.t * bool) list;  (* newest first; true = committed *)
  mutable stable_len : int;
  mutable stable_state : State.t;
  mutable tentative : (Gtxn.t * Interp.record) list;  (* local (merge) order *)
  have : int array;  (* per-origin contiguous sequence prefix held *)
  vv : int array;  (* per-origin covered-through timestamp *)
  matrix : int array array;  (* matrix.(b).(o): believed vv of base b *)
}

let create ~id ~n ~s0 ~config ~store () =
  {
    id;
    n;
    s0;
    config;
    store;
    engine = Engine.create s0;
    clock = 0;
    durable_clock = 0;
    seq = 0;
    stable_rev = [];
    stable_len = 0;
    stable_state = s0;
    tentative = [];
    have = Array.make n 0;
    vv = Array.make n 0;
    matrix = Array.make_matrix n n 0;
  }

let id t = t.id
let engine t = t.engine
let stable_state t = t.stable_state
let stable t = List.rev t.stable_rev
let stable_len t = t.stable_len
let tentative_count t = List.length t.tentative
let applied t = Engine.state t.engine

let tentative_view t =
  List.map (fun ((g : Gtxn.t), r) -> { P.program = g.Gtxn.program; record = r }) t.tentative

let journal t note = Engine.journal t.engine ~session:mb_sid note
let refresh_self t = Array.blit t.vv 0 t.matrix.(t.id) 0 t.n

(* Only durably journaled knowledge may back a timestamp the base
   reports: a crash then never regresses below anything a peer was told,
   which is what makes the commit fence safe (see docs/FAULTS.md). *)
let bump_durable t ts =
  if ts > t.durable_clock then t.durable_clock <- ts;
  if t.durable_clock > t.vv.(t.id) then t.vv.(t.id) <- t.durable_clock;
  refresh_self t

(* ------------------------------------------------------------------ *)
(* Epidemic metadata                                                   *)
(* ------------------------------------------------------------------ *)

type digest = {
  from_base : int;
  clock : int;  (* the sender's durable clock *)
  have : int array;
  vv : int array;
  matrix : int array array;
}

let digest t =
  refresh_self t;
  {
    from_base = t.id;
    clock = t.durable_clock;
    have = Array.copy t.have;
    vv = Array.copy t.vv;
    matrix = Array.map Array.copy t.matrix;
  }

(* Merge a peer digest. Coverage claims ([vv]) are only adopted for
   origins where we hold at least as many transactions as the claimant —
   a claim "all of origin o's transactions with ts <= v are held" then
   transfers soundly. Matrix entries are monotone gossip and always
   merge. *)
let gossip (t : t) (d : digest) =
  if d.clock > t.clock then t.clock <- d.clock;
  for o = 0 to t.n - 1 do
    if t.have.(o) >= d.have.(o) && d.vv.(o) > t.vv.(o) then t.vv.(o) <- d.vv.(o);
    for b = 0 to t.n - 1 do
      if d.matrix.(b).(o) > t.matrix.(b).(o) then t.matrix.(b).(o) <- d.matrix.(b).(o)
    done;
    if d.vv.(o) > t.matrix.(d.from_base).(o) then t.matrix.(d.from_base).(o) <- d.vv.(o)
  done;
  refresh_self t

(* What to pull from a peer that advertised [d]: per-origin suffixes
   beyond our contiguous prefix. *)
let missing_for (t : t) (d : digest) =
  let want = ref [] in
  for o = t.n - 1 downto 0 do
    if d.have.(o) > t.have.(o) then want := (o, t.have.(o)) :: !want
  done;
  !want

(* Ship up to [chunk] transactions satisfying [want] from our store, in
   (origin, seq) order; stateless, so retransmitted pulls are cheap and
   idempotent. *)
let ship (t : t) ~want ~chunk =
  let rec collect budget acc = function
    | [] -> (List.rev acc, true)
    | (_, _) :: _ when budget = 0 -> (List.rev acc, false)
    | (o, from) :: rest ->
      if o < 0 || o >= t.n then collect budget acc rest
      else begin
        let upto = t.have.(o) in
        let rec per_origin budget acc seq =
          if seq > upto then (budget, acc, true)
          else if budget = 0 then (budget, acc, false)
          else
            per_origin (budget - 1) (t.store.lookup { Gtxn.origin = o; seq } :: acc) (seq + 1)
        in
        let budget, acc, finished = per_origin budget acc (from + 1) in
        if finished then collect budget acc rest else (List.rev acc, false)
      end
  in
  collect chunk [] want

(* ------------------------------------------------------------------ *)
(* Tentative-layer updates                                             *)
(* ------------------------------------------------------------------ *)

(* Rebind the tentative layer to a merged logical history: every entry is
   either an already-known tentative gtxn or (when [mint] is true for its
   name) a brand-new local transaction that gets wrapped, registered and
   journaled here. Returns the newly minted gtxns. *)
let rebind_tentative (t : t) (nh : P.base_txn list) =
  let known = Hashtbl.create 16 in
  List.iter (fun (g, _) -> Hashtbl.replace known (Gtxn.name g) g) t.tentative;
  let minted = ref [] in
  t.tentative <-
    List.map
      (fun (bt : P.base_txn) ->
        match Hashtbl.find_opt known (bt.P.program.Program.name) with
        | Some g -> (g, bt.P.record)
        | None ->
          t.clock <- t.clock + 1;
          t.seq <- t.seq + 1;
          let g =
            {
              Gtxn.id = { Gtxn.origin = t.id; seq = t.seq };
              ts = t.clock;
              program = bt.P.program;
              fix = bt.P.record.Interp.fix;
              origin_record = bt.P.record;
            }
          in
          t.store.register g;
          journal t (Printf.sprintf "mb-local %d %d" t.seq t.clock);
          t.have.(t.id) <- t.seq;
          minted := g :: !minted;
          Obs.Counter.incr obs_local;
          (g, bt.P.record))
      nh;
  List.rev !minted

(* Adopt a merge session's outcome: [nh] is the report's merged history
   ([P.merged_history]) — the merged tentative layer (this base's tentative transactions plus
   the mobile's accepted ones). The engine was already updated by the
   merge itself; here the new transactions are wrapped, journaled and
   forced. *)
let integrate_history (t : t) (nh : P.base_txn list) =
  let minted =
    Engine.with_group t.engine (fun () ->
        let minted = rebind_tentative t nh in
        Engine.force t.engine;
        minted)
  in
  (* strictly after the group's real sync: digests advertise durable only *)
  bump_durable t t.clock;
  minted

(* A base-local transaction: executed on the live state, wrapped,
   journaled and forced. *)
let submit (t : t) program =
  let g =
    Engine.with_group t.engine (fun () ->
        let r = Engine.execute ~durably:false t.engine program in
        t.clock <- t.clock + 1;
        t.seq <- t.seq + 1;
        let g =
          {
            Gtxn.id = { Gtxn.origin = t.id; seq = t.seq };
            ts = t.clock;
            program;
            fix = Fix.empty;
            origin_record = r;
          }
        in
        t.store.register g;
        journal t (Printf.sprintf "mb-local %d %d" t.seq t.clock);
        t.have.(t.id) <- t.seq;
        t.tentative <- t.tentative @ [ (g, r) ];
        Engine.force t.engine;
        g)
  in
  bump_durable t g.Gtxn.ts;
  Obs.Counter.incr obs_local;
  g

(* Integrate a shipped suffix from a peer: drop duplicates (seq within
   our contiguous prefix), keep only contiguous extensions, then merge
   the fresh transactions as a tentative history against our own
   tentative layer — the paper's semantic merge, with [accept_always]
   because integration never decides commitment; only the global
   commitment rule may reject. *)
let integrate (t : t) (txns : Gtxn.t list) =
  let next = Array.copy t.have in
  let fresh =
    List.filter
      (fun (g : Gtxn.t) ->
        let o = g.Gtxn.id.Gtxn.origin in
        if o < 0 || o >= t.n then false
        else if g.Gtxn.id.Gtxn.seq = next.(o) + 1 then begin
          next.(o) <- next.(o) + 1;
          true
        end
        else false)
      txns
  in
  if fresh = [] then 0
  else begin
    Obs.Counter.incr obs_integrations;
    Obs.Span.with_ ~lane:Obs.Event.Cluster ~name:"multibase.integrate" @@ fun () ->
    (* The merge's internal per-transaction forces, the mb-recv journal
       records and the closing force all coalesce into one group commit
       — one device write + one sync for the whole integration. The
       group is delimited at the closing force: [bump_durable] below
       stays strictly after the group's real sync, so the digest never
       advertises a clock ahead of what the disk holds. *)
    Engine.with_group t.engine (fun () ->
    let tent_h =
      History.of_entries
        (List.map
           (fun (g : Gtxn.t) -> { History.program = g.Gtxn.program; fix = g.Gtxn.fix })
           fresh)
    in
    let base_history = P.index_history (tentative_view t) in
    let cfg = { t.config.merge with P.acceptance = P.accept_always } in
    let report =
      P.merge ~config:cfg ~params:t.config.params ~base:t.engine ~base_history
        ~origin:t.stable_state ~tentative:tent_h
    in
    let by_name = Hashtbl.create 16 in
    List.iter (fun (g : Gtxn.t) -> Hashtbl.replace by_name (Gtxn.name g) g) fresh;
    List.iter
      (fun (g : Gtxn.t) ->
        t.store.register g;
        journal t
          (Printf.sprintf "mb-recv %d %d %d" g.Gtxn.id.Gtxn.origin g.Gtxn.id.Gtxn.seq
             g.Gtxn.ts))
      fresh;
    (* Rebind to the merged order; fresh names resolve through [by_name]
       rather than minting. *)
    let known = Hashtbl.create 16 in
    List.iter (fun (g, _) -> Hashtbl.replace known (Gtxn.name g) g) t.tentative;
    t.tentative <-
      List.filter_map
        (fun (bt : P.base_txn) ->
          let name = bt.P.program.Program.name in
          match Hashtbl.find_opt known name with
          | Some g -> Some (g, bt.P.record)
          | None -> (
            match Hashtbl.find_opt by_name name with
            | Some g -> Some (g, bt.P.record)
            | None -> None))
        (P.merged_history base_history report.P.splice);
    Engine.force t.engine);
    let max_ts = List.fold_left (fun acc (g : Gtxn.t) -> max acc g.Gtxn.ts) 0 fresh in
    List.iter
      (fun (g : Gtxn.t) ->
        let o = g.Gtxn.id.Gtxn.origin in
        t.have.(o) <- max t.have.(o) g.Gtxn.id.Gtxn.seq;
        if g.Gtxn.ts > t.vv.(o) then t.vv.(o) <- g.Gtxn.ts)
      fresh;
    if max_ts > t.clock then t.clock <- max_ts;
    bump_durable t max_ts;
    let n = List.length fresh in
    Obs.Counter.incr ~by:n obs_received;
    n
  end

(* ------------------------------------------------------------------ *)
(* Decentralized commitment                                            *)
(* ------------------------------------------------------------------ *)

(* The commit fence: every transaction with ts <= gvt is held by every
   base (by each base's own report), and no base can ever mint a new
   transaction at or below it — minting happens above the volatile
   clock, which never falls below any reported durable clock. *)
let gvt (t : t) =
  refresh_self t;
  let m = ref max_int in
  for b = 0 to t.n - 1 do
    for o = 0 to t.n - 1 do
      if t.matrix.(b).(o) < !m then m := t.matrix.(b).(o)
    done
  done;
  !m

(* Can the newly stable batch slide left past the remaining tentative
   transactions (and internally reorder to the global order) purely by
   the semantic relations? If so the applied state is untouched and the
   commit is metadata-only. The state diff in [maybe_commit] is the
   ground truth; the semantic verdict is the prediction the paper's
   machinery makes. The prediction can only be wrong on a commit whose
   diff is non-empty, so only those commits compute it. *)
let commute_ok (t : t) ~local ~committed_names ~batch_order =
  let theory = t.config.merge.P.theory in
  let order = Hashtbl.create 16 in
  List.iteri (fun i (g : Gtxn.t) -> Hashtbl.replace order (Gtxn.name g) i) batch_order;
  let rank g = Hashtbl.find_opt order (Gtxn.name g) in
  let arr = Array.of_list local in
  let ok = ref true in
  let len = Array.length arr in
  for i = 0 to len - 1 do
    for j = i + 1 to len - 1 do
      if !ok then begin
        let a = arr.(i) and b = arr.(j) in
        let a_in = Names.Set.mem (Gtxn.name a) committed_names in
        let b_in = Names.Set.mem (Gtxn.name b) committed_names in
        let must_precede =
          (* b has to move left past a *)
          match (a_in, b_in) with
          | true, true -> (
            match (rank a, rank b) with Some ra, Some rb -> rb < ra | _ -> false)
          | false, true -> true
          | _ -> false
        in
        if must_precede then
          ok :=
            Semantics.can_precede ~theory
              ~fix_domain:(Fix.domain a.Gtxn.fix)
              ~mover:b.Gtxn.program ~target:a.Gtxn.program
      end
    done
  done;
  !ok

(* Decide commitment for everything at or below the current fence.
   The canonical pass re-executes the batch in the global order from the
   stable state — with each transaction's pinned fix — and applies the
   acceptance criterion against the origin record; this is a pure
   function of (stable prefix, batch), so every base decides
   identically. Returns the newly decided (id, committed) pairs. *)
let maybe_commit (t : t) =
  let fence = gvt t in
  let ready, rest = List.partition (fun ((g : Gtxn.t), _) -> g.Gtxn.ts <= fence) t.tentative in
  if ready = [] then []
  else
    Obs.Span.with_ ~lane:Obs.Event.Cluster ~name:"multibase.commit" @@ fun () ->
    let batch =
      List.sort (fun ((a : Gtxn.t), _) (b, _) -> Gtxn.compare_order a b) ready
    in
    let st = ref t.stable_state in
    let decided =
      List.map
        (fun ((g : Gtxn.t), _) ->
          let r = Interp.run ~fix:g.Gtxn.fix !st g.Gtxn.program in
          let ok = t.config.commit_acceptance ~original:g.Gtxn.origin_record ~replayed:r in
          if ok then st := r.Interp.after;
          (g, ok))
        batch
    in
    let new_stable_state = !st in
    let rest' =
      List.map
        (fun ((g : Gtxn.t), _) ->
          let r = Interp.run ~fix:g.Gtxn.fix !st g.Gtxn.program in
          st := r.Interp.after;
          (g, r))
        rest
    in
    let new_applied = !st in
    let changed = State.diff new_applied (Engine.state t.engine) in
    let fast = Item.Set.is_empty changed in
    if fast then Obs.Counter.incr obs_commit_fast
    else begin
      Obs.Counter.incr obs_commit_reanchor;
      let committed_names =
        List.fold_left (fun acc (g, _) -> Names.Set.add (Gtxn.name g) acc) Names.Set.empty decided
      in
      if
        List.for_all snd decided
        && commute_ok t ~local:(List.map fst t.tentative) ~committed_names
             ~batch_order:(List.map fst decided)
      then Obs.Counter.incr obs_semantic_miss
    end;
    (* one commit group: re-anchor updates and every mb-stable marker
       harden under a single barrier *)
    Engine.with_group t.engine (fun () ->
        if not fast then Engine.apply_updates ~durably:false t.engine new_applied changed;
        List.iter
          (fun ((g : Gtxn.t), ok) ->
            journal t
              (Printf.sprintf "mb-stable %d %d %d" g.Gtxn.id.Gtxn.origin g.Gtxn.id.Gtxn.seq
                 (if ok then 1 else 0)))
          decided;
        Engine.force t.engine);
    let n = List.length decided in
    t.stable_rev <- List.rev_append decided t.stable_rev;
    t.stable_len <- t.stable_len + n;
    t.stable_state <- new_stable_state;
    t.tentative <- rest';
    List.iter
      (fun (_, ok) -> if ok then Obs.Counter.incr obs_committed else Obs.Counter.incr obs_rejected)
      decided;
    Obs.Dist.observe_int obs_batch n;
    List.map (fun ((g : Gtxn.t), ok) -> (g.Gtxn.id, ok)) decided

(* A liveness heartbeat: journal a clock bump so the durable clock — the
   only clock a digest may advertise — advances even on an idle base.
   Without it an idle base pins everyone's fence at its last activity. *)
let tick (t : t) =
  t.clock <- t.clock + 1;
  Engine.with_group t.engine (fun () ->
      journal t (Printf.sprintf "mb-tick %d" t.clock);
      Engine.force t.engine);
  bump_durable t t.clock;
  Obs.Counter.incr obs_ticks

(* ------------------------------------------------------------------ *)
(* Crash / restart                                                     *)
(* ------------------------------------------------------------------ *)

let parse_note note =
  match String.split_on_char ' ' note with
  | [ "mb-local"; seq; ts ] -> (
    match (int_of_string_opt seq, int_of_string_opt ts) with
    | Some seq, Some ts -> `Local (seq, ts)
    | _ -> `Other)
  | [ "mb-recv"; o; seq; ts ] -> (
    match (int_of_string_opt o, int_of_string_opt seq, int_of_string_opt ts) with
    | Some o, Some seq, Some ts -> `Recv (o, seq, ts)
    | _ -> `Other)
  | [ "mb-stable"; o; seq; ok ] -> (
    match (int_of_string_opt o, int_of_string_opt seq, int_of_string_opt ok) with
    | Some o, Some seq, Some ok -> `Stable (o, seq, ok = 1)
    | _ -> `Other)
  | [ "mb-tick"; ts ] -> (
    match int_of_string_opt ts with Some ts -> `Tick ts | None -> `Other)
  | _ -> `Other

(* Crash and restart this base: the engine recovers from its WAL, then
   the replication bookkeeping is rebuilt from the journal — the durable
   ground truth — and the epidemic metadata is reset conservatively
   (matrix knowledge about peers is forgotten; that only delays commits,
   never un-decides one). If the recovered engine state disagrees with
   the journal-derived tentative chain (a torn unforced tail), the
   applied state is reconciled deterministically to the journal's
   truth. *)
let restore (t : t) =
  Obs.Counter.incr obs_crashes;
  Obs.Span.with_ ~lane:Obs.Event.Cluster ~name:"multibase.restore" @@ fun () ->
  let recovery = Engine.crash_restart t.engine in
  Array.fill t.have 0 t.n 0;
  Array.fill t.vv 0 t.n 0;
  for b = 0 to t.n - 1 do
    Array.fill t.matrix.(b) 0 t.n 0
  done;
  t.clock <- 0;
  t.durable_clock <- 0;
  t.seq <- 0;
  let known_rev = ref [] and stable_rev = ref [] in
  List.iter
    (fun (sid, note) ->
      if sid = mb_sid then
        match parse_note note with
        | `Local (seq, ts) ->
          let id = { Gtxn.origin = t.id; seq } in
          known_rev := id :: !known_rev;
          t.seq <- max t.seq seq;
          t.have.(t.id) <- max t.have.(t.id) seq;
          if ts > t.durable_clock then t.durable_clock <- ts
        | `Recv (o, seq, ts) ->
          if o >= 0 && o < t.n then begin
            known_rev := { Gtxn.origin = o; seq } :: !known_rev;
            t.have.(o) <- max t.have.(o) seq;
            if ts > t.durable_clock then t.durable_clock <- ts
          end
        | `Stable (o, seq, ok) -> stable_rev := ({ Gtxn.origin = o; seq }, ok) :: !stable_rev
        | `Tick ts -> if ts > t.durable_clock then t.durable_clock <- ts
        | `Other -> ())
    (Engine.session_journal t.engine);
  t.clock <- t.durable_clock;
  let stable_set = Hashtbl.create 16 in
  List.iter (fun (id, _) -> Hashtbl.replace stable_set id ()) !stable_rev;
  t.stable_rev <- List.map (fun (id, ok) -> (t.store.lookup id, ok)) !stable_rev;
  t.stable_len <- List.length t.stable_rev;
  let tentative_ids =
    List.filter (fun id -> not (Hashtbl.mem stable_set id)) (List.rev !known_rev)
  in
  (* Canonical replay of the stable prefix, then the journal-order
     tentative chain. *)
  let st = ref t.s0 in
  List.iter
    (fun ((g : Gtxn.t), ok) -> if ok then st := Interp.apply ~fix:g.Gtxn.fix !st g.Gtxn.program)
    (stable t);
  t.stable_state <- !st;
  t.tentative <-
    List.map
      (fun id ->
        let g = t.store.lookup id in
        let r = Interp.run ~fix:g.Gtxn.fix !st g.Gtxn.program in
        st := r.Interp.after;
        (g, r))
      tentative_ids;
  let expected = !st in
  (* per-origin covered-through: the last held contiguous transaction *)
  for o = 0 to t.n - 1 do
    if o <> t.id && t.have.(o) > 0 then
      t.vv.(o) <- (t.store.lookup { Gtxn.origin = o; seq = t.have.(o) }).Gtxn.ts
  done;
  bump_durable t t.durable_clock;
  let changed = State.diff (Engine.state t.engine) expected in
  if not (Item.Set.is_empty changed) then begin
    Obs.Counter.incr obs_reconciled;
    Engine.apply_updates ~durably:true t.engine expected changed
  end;
  recovery
