open Repro_txn
open Repro_history
open Repro_rewrite
module Engine = Repro_db.Engine
module Protocol = Repro_replication.Protocol
module Cost = Repro_replication.Cost
module Sync = Repro_replication.Sync
module P = Protocol
module Obs = Repro_obs.Obs
module Rng = Repro_workload.Rng

let obs_completed = Obs.Counter.make "fault.sessions_completed"
let obs_aborted = Obs.Counter.make "fault.sessions_aborted"
let obs_resumed = Obs.Counter.make "fault.sessions_resumed"
let obs_retries = Obs.Counter.make "fault.retries"
let obs_crashes = Obs.Counter.make "fault.crashes"
let obs_forced = Obs.Counter.make "fault.forced_resolutions"
let obs_storage = Obs.Counter.make "fault.storage_failures"
let obs_latency = Obs.Dist.make "fault.session_latency"
let obs_messages = Obs.Dist.make "fault.session_messages"

type wire =
  | Hello of { sid : int; chunks : int }
  | Hello_ack of { sid : int; next : int }
  | Ship of { sid : int; seq : int; origin : State.t option; entries : History.entry list }
  | Ship_ack of { sid : int; seq : int }
  | Merge_req of { sid : int }
  | Outcome of { sid : int; bad : Names.Set.t }
  | Forward of { sid : int; rewrite : Protocol.rewrite_phase }
  | Done of { sid : int; report : Protocol.merge_report }
  | Fin of { sid : int }
  | Nack of { sid : int }
  | Fatal of { sid : int }

type config = {
  chunk : int;
  retry_timeout : float;
  backoff : float;
  max_retries : int;
  commit_retries : int;
  reboot_delay : float;
  jitter : float;
}

let default_config =
  {
    chunk = 4;
    retry_timeout = 1.0;
    backoff = 2.0;
    max_retries = 8;
    commit_retries = 20;
    reboot_delay = 0.5;
    jitter = 0.0;
  }

type outcome = Completed of Protocol.merge_report | Aborted of string

type result = {
  outcome : outcome;
  retries : int;
  messages : int;
  crashes : int;
  resumed : bool;
  forced_resolution : bool;
  storage_failure : bool;
  elapsed : float;
}

let wire_label = function
  | Hello _ -> "Hello"
  | Hello_ack _ -> "Hello_ack"
  | Ship { seq; _ } -> Printf.sprintf "Ship[%d]" seq
  | Ship_ack { seq; _ } -> Printf.sprintf "Ship_ack[%d]" seq
  | Merge_req _ -> "Merge_req"
  | Outcome _ -> "Outcome"
  | Forward _ -> "Forward"
  | Done _ -> "Done"
  | Fin _ -> "Fin"
  | Nack _ -> "Nack"
  | Fatal _ -> "Fatal"

(* Approximate wire size of a message in the cost model's communication
   units; only retransmissions are charged with it — the first copy of
   every payload is already costed by the protocol phases themselves, so a
   fault-free session's communication tally matches the atomic
   [Protocol.merge] exactly. (I/O differs by design: the session closes
   the whole commit group with a single force, where the atomic protocol
   forces once for the forwarded updates plus once per re-execution.) *)
let units_of_wire = function
  | Hello _ | Hello_ack _ | Ship_ack _ | Merge_req _ | Fin _ | Nack _ | Fatal _ -> 1.0
  | Ship { entries; _ } ->
    List.fold_left
      (fun acc (e : History.entry) ->
        acc
        +. float_of_int
             (Item.Set.cardinal (Program.readset e.History.program)
             + Item.Set.cardinal (Program.writeset e.History.program)))
      1.0 entries
  | Outcome { bad; _ } -> 1.0 +. float_of_int (Names.Set.cardinal bad)
  | Forward { rewrite; _ } ->
    1.0 +. float_of_int (Names.Set.cardinal rewrite.P.rp_rewrite.Rewrite.saved)
  | Done { report; _ } -> 1.0 +. float_of_int (List.length report.P.txns)

let parse_applied note =
  match String.split_on_char ' ' note with
  | [ "applied"; a; b ] -> (
    match (int_of_string_opt a, int_of_string_opt b) with
    | Some first, Some last -> Some (first, last)
    | _ -> None)
  | _ -> None

let applied_markers engine ~sid =
  let applied (s, note) = s = sid && parse_applied note <> None in
  List.length (List.filter applied (Engine.session_journal engine))

(* The protocol journals exactly one record per session, its [applied]
   marker, so the session's first durable record is the marker. *)
let find_applied engine ~sid =
  Option.bind (Engine.first_session_note engine ~session:sid) parse_applied

(* The base's volatile per-session state — lost on a base crash; the
   mobile then receives [Nack] and restarts from [Hello], and only the
   journal decides whether the commit already happened. *)
type base_session = {
  bs_chunks : int;
  mutable bs_got : int;
  mutable bs_entries_rev : History.entry list list;
  mutable bs_origin : State.t option;
  mutable bs_graph : Protocol.graph_phase option;
  mutable bs_report : Protocol.merge_report option;
}

exception Base_crashed
exception Mobile_crashed
exception Session_lost
exception Storage_failed

let chunk_entries n entries =
  let rec take k = function
    | [] -> ([], [])
    | l when k = 0 -> ([], l)
    | x :: tl ->
      let a, b = take (k - 1) tl in
      (x :: a, b)
  in
  let rec go = function
    | [] -> []
    | l ->
      let c, rest = take n l in
      c :: go rest
  in
  match go entries with [] -> [ [] ] | cs -> cs

let run_merge ?(sid = 1) ?retry_seed ~net ~session ~config ~params ~base ~base_history
    ~origin ~tentative () =
  if not (session.jitter >= 0.0 && session.jitter <= 1.0) then
    invalid_arg (Printf.sprintf "Session.run_merge: jitter %g is outside [0, 1]" session.jitter);
  (* A wait that is not positive would put the retry deadline in the
     past, and the wire would set the clock back to it. *)
  let positive what x =
    if not (x > 0.0) then invalid_arg (Printf.sprintf "Session.run_merge: %s %g is not positive" what x)
  in
  positive "retry_timeout" session.retry_timeout;
  positive "backoff" session.backoff;
  Obs.Span.with_ ~name:"fault.session" @@ fun () ->
  let cost = Cost.zero () in
  let now = ref 0.0 in
  (* Private stream for backoff jitter: seeded, so retry timing is as
     deterministic as every other fault draw. *)
  let jrng = Rng.create (match retry_seed with Some s -> s | None -> 0x7ea1 + (31 * sid)) in
  let retries = ref 0
  and messages = ref 0
  and crashes = ref 0
  and resumed = ref false
  and storage_failed = ref false
  and forced = ref false in
  let base_handled = ref 0 and mobile_handled = ref 0 in

  (* ------------------------------------------------------------------ *)
  (* Base endpoint: a reactive handler over volatile session state.     *)
  (* ------------------------------------------------------------------ *)
  let bstate : base_session option ref = ref None in
  let base_crash () =
    incr crashes;
    Obs.Counter.incr obs_crashes;
    if Obs.Event.capturing () then
      Obs.Event.emit ~lane:Obs.Event.Base
        ~attrs:[ ("sim_t", Obs.Event.Float !now) ]
        "crash.base";
    let recovery = Engine.crash_restart base in
    if recovery.Repro_db.Wal.lost_durable > 0 then begin
      (* The restarted base could not recover everything it had
         acknowledged as durable: its log — the ground truth the whole
         session protocol leans on — is damaged. The base refuses to
         serve this (or any resumed) session; the mobile aborts cleanly
         and the base keeps only the verified valid prefix. *)
      storage_failed := true;
      Obs.Counter.incr obs_storage;
      if Obs.Event.capturing () then
        Obs.Event.emit ~lane:Obs.Event.Base
          ~attrs:
            [
              ("lost", Obs.Event.Int recovery.Repro_db.Wal.lost_durable);
              ("sim_t", Obs.Event.Float !now);
            ]
          "crash.base.storage_failed"
    end;
    bstate := None;
    raise Base_crashed
  in

  (* The whole commit — [Protocol.commit]'s forwarded updates and
     re-executions, then the journal marker — is one unforced WAL group
     closed by a single force: durable all together or lost all
     together. The group rides the WAL's group-commit layer, so its force
     coalesces with any others sharing the engine's open group, and a
     crash mid-commit abandons the group without a partial flush. Shared
     by the real commit ([journal_commit]) and by recovery replay on a
     scratch engine. *)
  let commit ~engine ~journal_commit g r =
    Engine.with_group engine @@ fun () ->
    let first = Engine.next_txid engine in
    let report =
      P.commit ~durably:false ~config ~params ~cost ~base:engine ~base_history ~tentative g r
    in
    if journal_commit then begin
      if Net.take_crash net Net.Base_mid_commit then base_crash ();
      Engine.journal engine ~session:sid
        (Printf.sprintf "applied %d %d" first (Engine.next_txid engine - 1));
      Engine.force engine;
      cost.Cost.base_io <- cost.Cost.base_io +. params.Cost.io_per_force
    end;
    report
  in

  (* The journal says [first..last] is durably applied but the report was
     lost (crash after the force, or an exhausted retry budget): rebuild
     it by rewinding to the pre-commit state and re-running the commit on
     a scratch engine. Deterministic replay must reconverge on the
     recovered base state. *)
  let replay_applied g r ~first ~last =
    let pre = Engine.rewind_txns base ~first ~last in
    let scratch = Engine.create pre in
    let report = commit ~engine:scratch ~journal_commit:false g r in
    if not (State.equal (Engine.state scratch) (Engine.state base)) then
      failwith "session replay diverged from recovered base state";
    report
  in

  let reply msg = Net.send net ~now:!now ~dst:Net.Mobile msg in
  let require_graph st =
    match st.bs_graph with
    | Some g -> g
    | None ->
      let shipped = History.of_entries (List.concat (List.rev st.bs_entries_rev)) in
      let sh_origin = match st.bs_origin with Some o -> o | None -> origin in
      let g =
        P.analyze_graph ~strategy:config.P.strategy ~params ~cost ~base_history
          ~origin:sh_origin ~tentative:shipped
      in
      st.bs_graph <- Some g;
      g
  in
  let base_handle msg =
    let nack () = reply (Nack { sid }) in
    match msg with
    | Hello { sid = s; chunks } ->
      if s <> sid then nack ()
      else begin
        let st =
          match !bstate with
          | Some st when st.bs_chunks = chunks -> st
          | _ ->
            let st =
              {
                bs_chunks = chunks;
                bs_got = 0;
                bs_entries_rev = [];
                bs_origin = None;
                bs_graph = None;
                bs_report = None;
              }
            in
            bstate := Some st;
            st
        in
        reply (Hello_ack { sid; next = st.bs_got })
      end
    | Ship { sid = s; seq; origin = o; entries } -> (
      match !bstate with
      | Some st when s = sid ->
        if seq = st.bs_got then begin
          st.bs_entries_rev <- entries :: st.bs_entries_rev;
          (match o with Some o0 -> st.bs_origin <- Some o0 | None -> ());
          st.bs_got <- st.bs_got + 1
        end;
        (* acks are idempotent: re-ack duplicates of already-held chunks *)
        if seq < st.bs_got then reply (Ship_ack { sid; seq })
      | _ -> nack ())
    | Merge_req { sid = s } -> (
      match !bstate with
      | Some st when s = sid && st.bs_got = st.bs_chunks ->
        reply (Outcome { sid; bad = (require_graph st).P.gp_bad })
      | Some _ -> ()  (* stale request from before a crash: ignore *)
      | None -> nack ())
    | Forward { sid = s; rewrite = r } -> (
      match !bstate with
      | Some st when s = sid && st.bs_got = st.bs_chunks ->
        let report =
          match st.bs_report with
          | Some report -> report
          | None ->
            let g = require_graph st in
            let report =
              match find_applied base ~sid with
              | Some (first, last) ->
                (* duplicate of an already-committed request *)
                replay_applied g r ~first ~last
              | None ->
                let report = commit ~engine:base ~journal_commit:true g r in
                if Net.take_crash net Net.Base_after_commit then base_crash ();
                report
            in
            st.bs_report <- Some report;
            report
        in
        reply (Done { sid; report })
      | Some _ -> ()
      | None -> nack ())
    | Fin { sid = s } -> if s = sid then bstate := None
    | Hello_ack _ | Ship_ack _ | Outcome _ | Done _ | Nack _ | Fatal _ -> ()
  in
  let base_receive msg =
    incr base_handled;
    try
      if Net.take_crash net (Net.Base_after_handling !base_handled) then base_crash ();
      if !storage_failed then reply (Fatal { sid }) else base_handle msg
    with Base_crashed -> ()
  in
  (* The mobile's side of every delivery: crash point, [Nack] and
     [Fatal] first, then the reply the pending RPC waits for. *)
  let mobile_receive pred msg =
    incr mobile_handled;
    if Net.take_crash net (Net.Mobile_after_handling !mobile_handled) then begin
      incr crashes;
      Obs.Counter.incr obs_crashes;
      if Obs.Event.capturing () then
        Obs.Event.emit ~lane:Obs.Event.Mobile
          ~attrs:[ ("sim_t", Obs.Event.Float !now) ]
          "crash.mobile";
      raise Mobile_crashed
    end;
    match msg with
    | Nack { sid = s } when s = sid -> raise Session_lost
    | Fatal { sid = s } when s = sid -> raise Storage_failed
    | m -> pred m
  in

  (* Stop-and-wait RPC with bounded retry and exponential backoff; only
     the mobile sends requests, and [Net.await] delivers to both
     endpoints while it waits. Retransmissions charge communication —
     the first copy of each payload is costed by the protocol phases
     themselves. *)
  let rpc ?(attempts = session.max_retries) msg pred =
    let rec go attempt =
      if attempt >= attempts then None
      else begin
        if attempt > 0 then begin
          incr retries;
          Obs.Counter.incr obs_retries;
          if Obs.Event.capturing () then
            Obs.Event.emit ~lane:Obs.Event.Network
              ~attrs:
                [
                  ("msg", Obs.Event.Str (wire_label msg));
                  ("attempt", Obs.Event.Int attempt);
                  ("sim_t", Obs.Event.Float !now);
                ]
              "net.retransmit";
          cost.Cost.communication <-
            cost.Cost.communication +. (params.Cost.comm_per_unit *. units_of_wire msg)
        end;
        incr messages;
        Net.send net ~now:!now ~dst:Net.Base msg;
        let backoff = session.backoff ** float_of_int (min attempt 8) in
        (* Seeded jitter spreads retransmission timing by up to
           ±[session.jitter] of the nominal timeout; at the default 0.0
           the schedule is the bare exponential. *)
        let jitter =
          if session.jitter = 0.0 then 1.0
          else 1.0 +. (session.jitter *. ((2.0 *. Rng.float jrng) -. 1.0))
        in
        let deadline = !now +. (session.retry_timeout *. backoff *. jitter) in
        match Net.await net ~now ~deadline ~base:base_receive ~mobile:(mobile_receive pred) with
        | Some v -> Some v
        | None -> go (attempt + 1)
      end
    in
    go 0
  in

  (* ------------------------------------------------------------------ *)
  (* Mobile endpoint: the session state machine, restartable from Hello. *)
  (* ------------------------------------------------------------------ *)
  let chunks = chunk_entries session.chunk (History.entries tentative) in
  let n_chunks = List.length chunks in
  (* Once a [Forward] has been put on the wire, the base may have
     durably committed even if no reply ever arrives — so {e every}
     subsequent give-up is in-doubt and must be resolved through the
     journal, not just an exhausted [Forward] retry. (A resumed session
     restarts from [Hello]; aborting there after a successful commit
     would be a phantom abort: the caller would fall back to
     reprocessing a session the base already applied.) Before any
     [Forward] was sent the base is provably untouched and giving up
     aborts directly. *)
  let forward_sent = ref false in
  (* The one in-doubt resolution. Only the durable journal can tell
     whether the base committed (the marker is forced before [Done] is
     ever sent): with the marker the report is rebuilt by replay, reusing
     the mobile's [rewrite] when this run still holds it (an exhausted
     [Forward] budget) and recomputing it after a restart, so the cost
     tally charges exactly the phases that ran. *)
  let resolve ?rewrite reason =
    forced := true;
    Obs.Counter.incr obs_forced;
    if !storage_failed then Aborted "base storage corruption detected"
    else
      match find_applied base ~sid with
      | None -> Aborted reason
      | Some (first, last) ->
        let g =
          P.analyze_graph ~strategy:config.P.strategy ~params ~cost ~base_history ~origin
            ~tentative
        in
        let r =
          match rewrite with
          | Some r -> r
          | None ->
            P.rewrite_local ~config ~params ~cost ~tentative_exec:g.P.gp_tentative_exec
              ~bad:g.P.gp_bad
        in
        Completed (replay_applied g r ~first ~last)
  in
  let give_up reason = if !forward_sent then resolve reason else Aborted reason in
  let mobile_run () =
    match
      rpc (Hello { sid; chunks = n_chunks }) (function
        | Hello_ack { sid = s; next } when s = sid -> Some next
        | _ -> None)
    with
    | None -> give_up "hello: retry budget exhausted"
    | Some next -> (
      let rec ship seq =
        if seq >= n_chunks then true
        else
          let entries = List.nth chunks seq in
          let origin = if seq = 0 then Some origin else None in
          match
            rpc (Ship { sid; seq; origin; entries }) (function
              | Ship_ack { sid = s; seq = q } when s = sid && q = seq -> Some ()
              | _ -> None)
          with
          | Some () -> ship (seq + 1)
          | None -> false
      in
      if not (ship next) then give_up "ship: retry budget exhausted"
      else
        match
          rpc (Merge_req { sid }) (function
            | Outcome { sid = s; bad } when s = sid -> Some bad
            | _ -> None)
        with
        | None -> give_up "merge request: retry budget exhausted"
        | Some bad -> (
          (* Steps 3-4 run at the mobile. *)
          let tentative_exec = History.execute origin tentative in
          let r = P.rewrite_local ~config ~params ~cost ~tentative_exec ~bad in
          forward_sent := true;
          match
            rpc ~attempts:session.commit_retries (Forward { sid; rewrite = r }) (function
              | Done { sid = s; report } when s = sid -> Some report
              | _ -> None)
          with
          | Some _ when !storage_failed ->
            (* The base sent [Done], then lost durable records in a
               later crash-restart. Under the barrier-coverage rule the
               newest commit group, this one, went with them. *)
            Aborted "base storage corruption detected"
          | Some report ->
            (* fire-and-forget: frees the base's volatile state *)
            Net.send net ~now:!now ~dst:Net.Base (Fin { sid });
            incr messages;
            Completed report
          | None -> resolve ~rewrite:r "commit undeliverable; journal shows no effect"))
  in
  let recover_event reason =
    if Obs.Event.capturing () then
      Obs.Event.emit ~lane:Obs.Event.Mobile
        ~attrs:[ ("reason", Obs.Event.Str reason); ("sim_t", Obs.Event.Float !now) ]
        "recover.mobile"
  in
  let rec attempt () =
    try mobile_run () with
    | Storage_failed -> Aborted "base storage corruption detected"
    | Mobile_crashed ->
      now := !now +. session.reboot_delay;
      resumed := true;
      Obs.Counter.incr obs_resumed;
      recover_event "reboot";
      attempt ()
    | Session_lost ->
      resumed := true;
      Obs.Counter.incr obs_resumed;
      recover_event "session-lost";
      attempt ()
  in
  let outcome = attempt () in
  (match outcome with
  | Completed report ->
    Obs.Counter.incr obs_completed;
    P.record_merge_metrics report
  | Aborted _ -> Obs.Counter.incr obs_aborted);
  Obs.Dist.observe obs_latency !now;
  Obs.Dist.observe_int obs_messages !messages;
  {
    outcome;
    retries = !retries;
    messages = !messages;
    crashes = !crashes;
    resumed = !resumed;
    forced_resolution = !forced;
    storage_failure = !storage_failed;
    elapsed = !now;
  }

type totals = {
  mutable sessions : int;
  mutable completed : int;
  mutable aborted : int;
  mutable resumed : int;
  mutable retries : int;
  mutable crashes : int;
  mutable forced : int;
}

let sync_runner ?retry_seed ~schedule ~session ~net_seed () =
  let totals =
    { sessions = 0; completed = 0; aborted = 0; resumed = 0; retries = 0; crashes = 0; forced = 0 }
  in
  (* Default the retry-jitter stream from the net seed so a faulty run is
     reproducible from [net_seed] alone; an explicit [retry_seed] still
     decouples the two streams. *)
  let retry_base = match retry_seed with Some s -> s | None -> net_seed in
  let counter = ref 0 in
  let runner ~config ~params ~base ~base_history ~origin ~tentative =
    incr counter;
    let sid = !counter in
    let net = Net.create ~describe:wire_label ~seed:(net_seed + (7919 * sid)) schedule in
    let res =
      run_merge ~sid ~retry_seed:(retry_base + (31 * sid)) ~net ~session ~config ~params ~base
        ~base_history ~origin ~tentative ()
    in
    totals.sessions <- totals.sessions + 1;
    totals.retries <- totals.retries + res.retries;
    totals.crashes <- totals.crashes + res.crashes;
    if res.resumed then totals.resumed <- totals.resumed + 1;
    if res.forced_resolution then totals.forced <- totals.forced + 1;
    match res.outcome with
    | Completed report ->
      totals.completed <- totals.completed + 1;
      Sync.Merge_completed report
    | Aborted reason ->
      totals.aborted <- totals.aborted + 1;
      Sync.Merge_aborted reason
  in
  (runner, totals)

let pp_totals ppf t =
  Format.fprintf ppf "sessions=%d completed=%d aborted=%d resumed=%d retries=%d crashes=%d forced=%d"
    t.sessions t.completed t.aborted t.resumed t.retries t.crashes t.forced
