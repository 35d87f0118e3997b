open Repro_txn
module History = Repro_history.History
module Engine = Repro_db.Engine
module Rng = Repro_workload.Rng
module Banking = Repro_workload.Banking
module P = Repro_replication.Protocol
module Net = Repro_fault.Net
module Session = Repro_fault.Session
module Obs = Repro_obs.Obs

let obs_sessions = Obs.Counter.make "multibase.mobile_sessions"
let obs_reanchored = Obs.Counter.make "multibase.mobile_reanchored"

type op =
  | Mobile_session of {
      mobile : int;
      base : int;
      length : int;  (* fresh disconnected transactions before syncing *)
      schedule : Net.schedule;
      seed : int;
    }
  | Base_txn of { base : int; seed : int }
  | Exchange of { initiator : int; responder : int; schedule : Net.schedule; seed : int }
  | Crash of { base : int }
  | Tick of { base : int }

type mobile = {
  m_id : int;
  mutable entries : History.entry list;  (* disconnected tentative history *)
  mutable last_base : int;  (* base of the last completed sync, -1 if none *)
  mutable minted : int;  (* per-mobile transaction name counter *)
}

type stats = {
  mutable sessions : int;
  mutable completed : int;
  mutable session_aborts : int;
  mutable reanchored : int;  (* completed syncs against a new base *)
  mutable exchanges : int;
  mutable exchange_aborts : int;
  mutable pulled : int;
  mutable pushed : int;
  mutable base_txns : int;
  mutable base_crashes : int;
  mutable storage_failures : int;
  mutable committed : int;
  mutable rejected : int;
}

type t = {
  n : int;
  s0 : State.t;
  bank : Banking.t;
  config : Mbase.config;
  xconfig : Exchange.config;
  session : Session.config;
  commuting_bias : float;
  registry : (Gtxn.id, Gtxn.t) Hashtbl.t;
  bases : Mbase.t array;
  mobiles : mobile array;
  (* First-decision record per transaction: any later disagreement is a
     phantom (a commit observed somewhere and an abort elsewhere, or
     vice versa) and lands in [violations] the moment it happens. *)
  decisions : (Gtxn.id, bool) Hashtbl.t;
  mutable violations : string list;
  mutable sid : int;
  mutable base_minted : int;
  stats : stats;
}

let create ?(config = Mbase.default_config) ?(xconfig = Exchange.default_config)
    ?(session = Session.default_config) ?(commuting_bias = 0.6) ~bases ~mobiles
    ~n_accounts () =
  let bank = Banking.make ~n_accounts in
  let s0 = Banking.initial_state bank in
  let registry = Hashtbl.create 64 in
  let store =
    {
      Mbase.register = (fun (g : Gtxn.t) -> Hashtbl.replace registry g.Gtxn.id g);
      lookup =
        (fun id ->
          match Hashtbl.find_opt registry id with
          | Some g -> g
          | None ->
            invalid_arg (Format.asprintf "cluster store: unknown %a" Gtxn.pp_id id));
    }
  in
  {
    n = bases;
    s0;
    bank;
    config;
    xconfig;
    session;
    commuting_bias;
    registry;
    bases = Array.init bases (fun i -> Mbase.create ~id:i ~n:bases ~s0 ~config ~store ());
    mobiles =
      Array.init mobiles (fun i -> { m_id = i; entries = []; last_base = -1; minted = 0 });
    decisions = Hashtbl.create 64;
    violations = [];
    sid = 0;
    base_minted = 0;
    stats =
      {
        sessions = 0;
        completed = 0;
        session_aborts = 0;
        reanchored = 0;
        exchanges = 0;
        exchange_aborts = 0;
        pulled = 0;
        pushed = 0;
        base_txns = 0;
        base_crashes = 0;
        storage_failures = 0;
        committed = 0;
        rejected = 0;
      };
  }

let bases t = t.bases
let stats t = t.stats
let violations t = List.rev t.violations
let violation t msg = t.violations <- msg :: t.violations

let next_sid t =
  t.sid <- t.sid + 1;
  t.sid

let record_decisions t ds =
  List.iter
    (fun ((id : Gtxn.id), ok) ->
      match Hashtbl.find_opt t.decisions id with
      | None ->
        Hashtbl.replace t.decisions id ok;
        if ok then t.stats.committed <- t.stats.committed + 1
        else t.stats.rejected <- t.stats.rejected + 1
      | Some prev ->
        if prev <> ok then
          violation t
            (Format.asprintf "phantom: %a decided %s at one base, %s at another" Gtxn.pp_id
               id
               (if prev then "commit" else "abort")
               (if ok then "commit" else "abort")))
    ds

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)
(* ------------------------------------------------------------------ *)

let base_txn t ~base ~seed =
  let rng = Rng.create seed in
  t.base_minted <- t.base_minted + 1;
  let name = Printf.sprintf "B%d.%d" base t.base_minted in
  let p = Banking.random_transaction t.bank rng ~name ~commuting_bias:t.commuting_bias in
  ignore (Mbase.submit t.bases.(base) p);
  t.stats.base_txns <- t.stats.base_txns + 1

(* A mobile working disconnected, then syncing at [base] — any base, not
   just the one it last merged with: the session's origin is that base's
   {e current} stable state and its base history is that base's tentative
   layer, so the Strategy 2 window re-anchors wherever the mobile
   reconnects. *)
let mobile_session t ~mobile ~base ~length ~schedule ~seed =
  let m = t.mobiles.(mobile) in
  let b = t.bases.(base) in
  let rng = Rng.create seed in
  for _ = 1 to length do
    m.minted <- m.minted + 1;
    let name = Printf.sprintf "M%d.%d" m.m_id m.minted in
    m.entries <-
      m.entries
      @ [
          {
            History.program =
              Banking.random_transaction t.bank rng ~name ~commuting_bias:t.commuting_bias;
            fix = Fix.empty;
          };
        ]
  done;
  if m.entries <> [] then begin
    t.stats.sessions <- t.stats.sessions + 1;
    Obs.Counter.incr obs_sessions;
    let sid = next_sid t in
    let net = Net.create ~describe:Session.wire_label ~seed:(seed + 1) schedule in
    let tentative = History.of_entries m.entries in
    let base_history = P.index_history (Mbase.tentative_view b) in
    match
      Session.run_merge ~sid ~retry_seed:(seed lxor 0x5eed) ~net ~session:t.session
        ~config:t.config.Mbase.merge ~params:t.config.Mbase.params ~base:(Mbase.engine b)
        ~base_history ~origin:(Mbase.stable_state b) ~tentative ()
    with
    | { Session.outcome = Session.Completed report; storage_failure; _ } ->
      ignore (Mbase.integrate_history b (P.merged_history base_history report.P.splice));
      if storage_failure then t.stats.storage_failures <- t.stats.storage_failures + 1;
      if m.last_base >= 0 && m.last_base <> base then begin
        t.stats.reanchored <- t.stats.reanchored + 1;
        Obs.Counter.incr obs_reanchored
      end;
      m.entries <- [];
      m.last_base <- base;
      t.stats.completed <- t.stats.completed + 1
    | { Session.outcome = Session.Aborted _; storage_failure; _ } ->
      (* The mobile keeps its tentative history and will retry at the
         next reconnect — possibly against a different base. *)
      if storage_failure then t.stats.storage_failures <- t.stats.storage_failures + 1;
      t.stats.session_aborts <- t.stats.session_aborts + 1
  end

let exchange t ~initiator ~responder ~schedule ~seed =
  t.stats.exchanges <- t.stats.exchanges + 1;
  let net = Net.create ~describe:Exchange.wire_label ~seed schedule in
  let res =
    Exchange.run ~net ~config:t.xconfig ~initiator:t.bases.(initiator)
      ~responder:t.bases.(responder) ()
  in
  t.stats.pulled <- t.stats.pulled + res.Exchange.pulled;
  t.stats.pushed <- t.stats.pushed + res.Exchange.pushed;
  t.stats.base_crashes <- t.stats.base_crashes + res.Exchange.crashes;
  (match res.Exchange.outcome with
  | Exchange.Completed -> ()
  | Exchange.Aborted _ -> t.stats.exchange_aborts <- t.stats.exchange_aborts + 1);
  record_decisions t res.Exchange.responder_decided;
  record_decisions t res.Exchange.initiator_decided

let crash t ~base =
  t.stats.base_crashes <- t.stats.base_crashes + 1;
  let recovery = Mbase.restore t.bases.(base) in
  if recovery.Repro_db.Wal.lost_durable > 0 then
    t.stats.storage_failures <- t.stats.storage_failures + 1

let run_op t = function
  | Mobile_session { mobile; base; length; schedule; seed } ->
    mobile_session t ~mobile ~base ~length ~schedule ~seed
  | Base_txn { base; seed } -> base_txn t ~base ~seed
  | Exchange { initiator; responder; schedule; seed } ->
    exchange t ~initiator ~responder ~schedule ~seed
  | Crash { base } -> crash t ~base
  | Tick { base } -> Mbase.tick t.bases.(base)

let run_ops t ops = List.iter (run_op t) ops

(* ------------------------------------------------------------------ *)
(* Healing and the convergence contract                                *)
(* ------------------------------------------------------------------ *)

(* Heal the cluster: drain every mobile over a fault-free link (each
   syncs at its last base, re-anchoring if it never completed one), then
   run fault-free anti-entropy rounds — tick all, exchange all ordered
   pairs — until every tentative layer has committed. Bounded; returns
   [false] (and records a violation) if the cluster fails to drain. *)
let converge ?(max_rounds = 0) t =
  let max_rounds = if max_rounds > 0 then max_rounds else 8 + t.n in
  Array.iter
    (fun m ->
      if m.entries <> [] then
        let base = if m.last_base >= 0 then m.last_base else m.m_id mod t.n in
        mobile_session t ~mobile:m.m_id ~base ~length:0 ~schedule:Net.ideal
          ~seed:(0x600d + m.m_id))
    t.mobiles;
  let drained () =
    Array.for_all (fun b -> Mbase.tentative_count b = 0) t.bases
    && Array.for_all (fun m -> m.entries = []) t.mobiles
  in
  let round = ref 0 in
  while (not (drained ())) && !round < max_rounds do
    incr round;
    Array.iter Mbase.tick t.bases;
    for i = 0 to t.n - 1 do
      for j = 0 to t.n - 1 do
        if i <> j then
          exchange t ~initiator:i ~responder:j ~schedule:Net.ideal
            ~seed:(0xc0 + (1000 * !round) + (t.n * i) + j)
      done
    done
  done;
  let ok = drained () in
  if not ok then
    violation t
      (Printf.sprintf "convergence: tentative transactions left after %d healing rounds"
         max_rounds);
  ok

(* The convergence contract, checked after healing:
   (a) every base holds the identical stable sequence — same
       transactions, same order, same commit/abort decisions — and the
       identical stable state, which is also its applied and its
       {e durable} state;
   (b) no phantom commit was observed at any point ([record_decisions]);
   (c) the committed sequence is serializable: an independent oracle —
       a plain fold of [Interp.apply] over the committed programs from
       [s0], no engine involved — reproduces every base's state. *)
let check t =
  (match converge t with true -> () | false -> ());
  if t.n > 0 then begin
    let reference = t.bases.(0) in
    let ref_stable = Mbase.stable reference in
    let ref_ids = List.map (fun ((g : Gtxn.t), ok) -> (g.Gtxn.id, ok)) ref_stable in
    Array.iter
      (fun b ->
        if Mbase.id b <> Mbase.id reference then begin
          let ids = List.map (fun ((g : Gtxn.t), ok) -> (g.Gtxn.id, ok)) (Mbase.stable b) in
          if ids <> ref_ids then
            violation t
              (Printf.sprintf "divergence: base %d stable sequence differs from base 0"
                 (Mbase.id b));
          if not (State.equal (Mbase.stable_state b) (Mbase.stable_state reference)) then
            violation t
              (Printf.sprintf "divergence: base %d stable state differs from base 0"
                 (Mbase.id b))
        end)
      t.bases;
    Array.iter
      (fun b ->
        let id = Mbase.id b in
        if not (State.equal (Mbase.applied b) (Mbase.stable_state b)) then
          violation t (Printf.sprintf "base %d: applied state differs from stable state" id);
        if not (State.equal (Engine.recover (Mbase.engine b)) (Mbase.applied b)) then
          violation t (Printf.sprintf "base %d: stable state not durable" id);
        let oracle =
          List.fold_left
            (fun s ((g : Gtxn.t), ok) ->
              if ok then Interp.apply ~fix:g.Gtxn.fix s g.Gtxn.program else s)
            t.s0 (Mbase.stable b)
        in
        if not (State.equal oracle (Mbase.stable_state b)) then
          violation t
            (Printf.sprintf "base %d: committed sequence does not replay serially" id))
      t.bases
  end;
  violations t

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "@[<v>sessions=%d completed=%d aborted=%d reanchored=%d@ exchanges=%d \
     exchange_aborts=%d pulled=%d pushed=%d@ base_txns=%d base_crashes=%d \
     storage_failures=%d@ committed=%d rejected=%d@]"
    s.sessions s.completed s.session_aborts s.reanchored s.exchanges s.exchange_aborts
    s.pulled s.pushed s.base_txns s.base_crashes s.storage_failures s.committed s.rejected
