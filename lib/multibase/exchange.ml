module Net = Repro_fault.Net
module Rng = Repro_workload.Rng
module Obs = Repro_obs.Obs

let obs_exchanges = Obs.Counter.make "multibase.exchanges"
let obs_aborts = Obs.Counter.make "multibase.exchange_aborts"
let obs_pulled = Obs.Counter.make "multibase.exchange_pulled"
let obs_pushed = Obs.Counter.make "multibase.exchange_pushed"
let obs_retries = Obs.Counter.make "multibase.exchange_retries"
let obs_crashes = Obs.Counter.make "multibase.exchange_crashes"

(* One anti-entropy exchange between an initiator base and a responder
   base, carried over a {!Net} wire: the initiator drives, the responder
   is stateless (every reply is computed from its durable replication
   state), so crash-restart on either side needs no session resume —
   retransmitted requests are answered idempotently by the restarted
   node. The initiator maps to the wire's [Mobile] endpoint and the
   responder to [Base], which gives the asymmetric-link schedule fields
   their meaning for base pairs. *)

type wire =
  | Digest of Mbase.digest
  | Offer of Mbase.digest
  | Pull of { nonce : int; want : (int * int) list }
  | Txns of { nonce : int; txns : Gtxn.t list; last : bool }
  | Push of { nonce : int; txns : Gtxn.t list }
  | Push_ack of { nonce : int }
  | Bye of Mbase.digest
  | Bye_ack of Mbase.digest

let wire_label = function
  | Digest _ -> "Digest"
  | Offer _ -> "Offer"
  | Pull { nonce; _ } -> Printf.sprintf "Pull[%d]" nonce
  | Txns { nonce; txns; _ } -> Printf.sprintf "Txns[%d]x%d" nonce (List.length txns)
  | Push { nonce; txns } -> Printf.sprintf "Push[%d]x%d" nonce (List.length txns)
  | Push_ack { nonce } -> Printf.sprintf "Push_ack[%d]" nonce
  | Bye _ -> "Bye"
  | Bye_ack _ -> "Bye_ack"

type config = {
  chunk : int;  (** transactions per [Txns] / [Push] batch *)
  retry_timeout : float;
  backoff : float;
  max_retries : int;
}

let default_config = { chunk = 6; retry_timeout = 1.0; backoff = 2.0; max_retries = 6 }

type outcome = Completed | Aborted of string

type result = {
  outcome : outcome;
  pulled : int;  (** fresh transactions integrated at the initiator *)
  pushed : int;  (** transactions shipped to the responder *)
  retries : int;
  messages : int;
  crashes : int;
  initiator_decided : (Gtxn.id * bool) list;
  responder_decided : (Gtxn.id * bool) list;
  elapsed : float;
}

exception Initiator_crashed of string

let run ~net ~config ~initiator ~responder () =
  (* A wait that is not positive would put the retry deadline in the
     past, and the wire would set the clock back to it. *)
  let positive what x =
    if not (x > 0.0) then invalid_arg (Printf.sprintf "Exchange.run: %s %g is not positive" what x)
  in
  positive "retry_timeout" config.retry_timeout;
  positive "backoff" config.backoff;
  Obs.Span.with_ ~lane:Obs.Event.Cluster ~name:"multibase.exchange" @@ fun () ->
  Obs.Counter.incr obs_exchanges;
  let now = ref 0.0 in
  let retries = ref 0 and messages = ref 0 and crashes = ref 0 in
  let pulled = ref 0 and pushed = ref 0 in
  let resp_decided = ref [] and init_decided = ref [] in
  let resp_handled = ref 0 and init_handled = ref 0 in
  let resp_dead = ref false in
  let crash_base who =
    incr crashes;
    Obs.Counter.incr obs_crashes;
    if Obs.Event.capturing () then
      Obs.Event.emit ~lane:Obs.Event.Cluster
        ~attrs:
          [ ("base", Obs.Event.Int (Mbase.id who)); ("sim_t", Obs.Event.Float !now) ]
        "crash.base";
    let recovery = Mbase.restore who in
    recovery.Repro_db.Wal.lost_durable > 0
  in

  (* The responder: stateless request handling over durable replication
     state. [Bye] is where commitment runs, so the commit-window crash
     points attach to it: [Base_mid_commit] kills the responder before it
     handles the [Bye] at all, [Base_after_commit] after commitment is
     durable but before the ack leaves — the retransmitted [Bye] is then
     answered by re-running [maybe_commit] over an empty ready set
     (idempotence the nemesis checks lean on). *)
  let respond msg =
    incr resp_handled;
    if Net.take_crash net (Net.Base_after_handling !resp_handled) then begin
      if crash_base responder then resp_dead := true
    end
    else
      match msg with
      | Digest d ->
        Mbase.gossip responder d;
        Net.send net ~now:!now ~dst:Net.Mobile (Offer (Mbase.digest responder))
      | Pull { nonce; want } ->
        let txns, last = Mbase.ship responder ~want ~chunk:config.chunk in
        Net.send net ~now:!now ~dst:Net.Mobile (Txns { nonce; txns; last })
      | Push { nonce; txns } ->
        ignore (Mbase.integrate responder txns);
        Net.send net ~now:!now ~dst:Net.Mobile (Push_ack { nonce })
      | Bye d ->
        if Net.take_crash net Net.Base_mid_commit then begin
          if crash_base responder then resp_dead := true
        end
        else begin
          Mbase.gossip responder d;
          resp_decided := !resp_decided @ Mbase.maybe_commit responder;
          if Net.take_crash net Net.Base_after_commit then begin
            if crash_base responder then resp_dead := true
          end
          else Net.send net ~now:!now ~dst:Net.Mobile (Bye_ack (Mbase.digest responder))
        end
      | Offer _ | Txns _ | Push_ack _ | Bye_ack _ -> ()
  in

  (* A responder that lost durable records hears nothing more. *)
  let to_responder msg = if not !resp_dead then respond msg in
  (* An initiator crash aborts the exchange; [crash_base] counts it. *)
  let initiate pred msg =
    incr init_handled;
    if Net.take_crash net (Net.Mobile_after_handling !init_handled) then
      raise
        (Initiator_crashed
           (if crash_base initiator then "initiator storage corruption" else "initiator crashed"));
    pred msg
  in

  let rpc msg pred =
    let rec go attempt =
      if attempt >= config.max_retries then None
      else begin
        if attempt > 0 then begin
          incr retries;
          Obs.Counter.incr obs_retries
        end;
        incr messages;
        Net.send net ~now:!now ~dst:Net.Base msg;
        let backoff = config.backoff ** float_of_int (min attempt 8) in
        let deadline = !now +. (config.retry_timeout *. backoff) in
        match Net.await net ~now ~deadline ~base:to_responder ~mobile:(initiate pred) with
        | Some v -> Some v
        | None -> go (attempt + 1)
      end
    in
    go 0
  in

  let nonce = ref 0 in
  let fresh_nonce () =
    incr nonce;
    !nonce
  in
  let fail reason =
    Obs.Counter.incr obs_aborts;
    {
      outcome = Aborted reason;
      pulled = !pulled;
      pushed = !pushed;
      retries = !retries;
      messages = !messages;
      crashes = !crashes;
      initiator_decided = !init_decided;
      responder_decided = !resp_decided;
      elapsed = !now;
    }
  in
  try
    (* 1. Digest / Offer: learn the responder's coverage. *)
    match rpc (Digest (Mbase.digest initiator)) (function Offer d -> Some d | _ -> None) with
    | None -> fail "no offer"
    | Some offer -> (
      Mbase.gossip initiator offer;
      (* 2. Pull: fetch per-origin suffixes the responder holds and we
         lack, chunk by chunk, until caught up with the offer. *)
      let rec pull () =
        let want = Mbase.missing_for initiator offer in
        if want = [] then Ok ()
        else
          let n = fresh_nonce () in
          match
            rpc
              (Pull { nonce = n; want })
              (function Txns { nonce; txns; last } when nonce = n -> Some (txns, last) | _ -> None)
          with
          | None -> Error "pull timed out"
          | Some (txns, _) ->
            if txns = [] then Ok () (* responder cannot supply more *)
            else begin
              let fresh = Mbase.integrate initiator txns in
              pulled := !pulled + fresh;
              Obs.Counter.incr ~by:fresh obs_pulled;
              if fresh = 0 then Ok () (* no progress: stop rather than loop *) else pull ()
            end
      in
      match pull () with
      | Error reason -> fail reason
      | Ok () -> (
        (* 3. Push: ship our suffixes the responder lacked at offer
           time. [jhave] tracks what the responder acknowledged. *)
        let jhave = Array.copy offer.Mbase.have in
        let rec push () =
          let want = ref [] in
          let d = Mbase.digest initiator in
          Array.iteri
            (fun o h -> if o < Array.length jhave && h > jhave.(o) then want := (o, jhave.(o)) :: !want)
            d.Mbase.have;
          if !want = [] then Ok ()
          else
            let txns, _ = Mbase.ship initiator ~want:(List.rev !want) ~chunk:config.chunk in
            if txns = [] then Ok ()
            else
              let n = fresh_nonce () in
              match
                rpc
                  (Push { nonce = n; txns })
                  (function Push_ack { nonce } when nonce = n -> Some () | _ -> None)
              with
              | None -> Error "push timed out"
              | Some () ->
                List.iter
                  (fun (g : Gtxn.t) ->
                    let o = g.Gtxn.id.Gtxn.origin in
                    if o < Array.length jhave then jhave.(o) <- max jhave.(o) g.Gtxn.id.Gtxn.seq)
                  txns;
                pushed := !pushed + List.length txns;
                Obs.Counter.incr ~by:(List.length txns) obs_pushed;
                push ()
        in
        match push () with
        | Error reason -> fail reason
        | Ok () -> (
          (* 4. Bye / Bye_ack: exchange final digests; both sides gossip
             and run the commitment rule. *)
          match
            rpc (Bye (Mbase.digest initiator)) (function Bye_ack d -> Some d | _ -> None)
          with
          | None -> fail "no bye ack"
          | Some d ->
            Mbase.gossip initiator d;
            init_decided := !init_decided @ Mbase.maybe_commit initiator;
            {
              outcome = Completed;
              pulled = !pulled;
              pushed = !pushed;
              retries = !retries;
              messages = !messages;
              crashes = !crashes;
              initiator_decided = !init_decided;
              responder_decided = !resp_decided;
              elapsed = !now;
            })))
  with Initiator_crashed reason -> fail reason
