(** Pairwise anti-entropy exchange between two bases over an unreliable
    wire.

    The initiator drives a stop-and-wait RPC sequence against a
    {e stateless} responder — every reply is computed from the
    responder's durable replication state, so neither side keeps
    volatile session state and crash-restart needs no resume protocol:
    a retransmitted request is simply answered again (idempotently) by
    the restarted node.

    Wire sequence: [Digest]/[Offer] (learn coverage), a [Pull]/[Txns]
    loop (fetch per-origin suffixes the responder holds), a
    [Push]/[Push_ack] loop (ship suffixes the responder lacks), then
    [Bye]/[Bye_ack] — where both sides gossip final digests and run the
    decentralized commitment rule ({!Mbase.maybe_commit}).

    Fault mapping: the initiator is the wire's [Mobile] endpoint and
    the responder its [Base] endpoint (so [to_base_drop] /
    [to_mobile_drop] express asymmetric base-pair links), and the
    schedule's crash points fire as base crash/restart injection —
    [Base_after_handling n] kills the responder on its [n]-th request,
    [Base_mid_commit] kills it just before it would run commitment,
    [Base_after_commit] after commitment is durable but before the ack
    leaves (the retransmitted [Bye] then re-runs commitment over an
    empty ready set), [Mobile_after_handling n] kills the initiator,
    aborting the exchange. An abort is always safe: everything
    integrated so far is durable, and the next exchange catches up. *)

module Net = Repro_fault.Net

type wire =
  | Digest of Mbase.digest
  | Offer of Mbase.digest
  | Pull of { nonce : int; want : (int * int) list }
  | Txns of { nonce : int; txns : Gtxn.t list; last : bool }
  | Push of { nonce : int; txns : Gtxn.t list }
  | Push_ack of { nonce : int }
  | Bye of Mbase.digest
  | Bye_ack of Mbase.digest

(** Short display label — pass as [Net.create ~describe:wire_label]. *)
val wire_label : wire -> string

type config = {
  chunk : int;  (** transactions per [Txns] / [Push] batch *)
  retry_timeout : float;  (** initial per-request reply timeout, positive *)
  backoff : float;  (** timeout multiplier per retry, positive *)
  max_retries : int;
}

val default_config : config

type outcome = Completed | Aborted of string

type result = {
  outcome : outcome;
  pulled : int;  (** fresh transactions integrated at the initiator *)
  pushed : int;  (** transactions shipped to the responder *)
  retries : int;
  messages : int;
  crashes : int;
      (** crashes injected on either side, each counted once, as
          [multibase.exchange_crashes] counts them *)
  initiator_decided : (Gtxn.id * bool) list;
  responder_decided : (Gtxn.id * bool) list;
  elapsed : float;  (** simulated exchange duration *)
}

(** [run ~net ~config ~initiator ~responder ()] drives one exchange to
    completion or abort; both endpoints are simulated in one event loop
    over [net]'s clock ({!Repro_fault.Net.await}), and each crash point
    is consumed through {!Repro_fault.Net.take_crash}. Newly decided commitments on either side are
    reported in the result (for the cluster's phantom-commit check).
    Every fault draw comes from [net], so the seed [net] was created
    with is the exchange's only seed.
    @raise Invalid_argument if [config.retry_timeout] or [config.backoff]
    is not positive (NaN included), before the [multibase.exchange] span
    opens and before either base is touched. *)
val run :
  net:wire Net.t ->
  config:config ->
  initiator:Mbase.t ->
  responder:Mbase.t ->
  unit ->
  result
