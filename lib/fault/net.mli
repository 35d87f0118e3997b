(** Simulated mobile-base message transport with a seeded, deterministic
    fault schedule.

    The wire carries opaque payloads between the two endpoints of a merge
    session. Faults are drawn from a {!Repro_workload.Rng} stream owned by
    the transport, so the same [(seed, schedule)] pair always produces the
    same deliveries, drops, duplicates and orderings — the property the
    nemesis harness ({!Nemesis}) relies on to shrink and replay failures.

    Fault model (docs/FAULTS.md):
    - every send is delayed by a latency drawn uniformly from
      [[min_latency, max_latency]]; two messages sent back-to-back can
      overtake each other, so {e reordering} emerges from latency alone;
    - a send is {e dropped} with probability [drop_rate], silently;
    - a delivered send is additionally {e duplicated} with probability
      [dup_rate] (the copy gets its own latency draw);
    - while the clock is inside a [partitions] interval the link is down
      and every send is dropped;
    - [crashes] name protocol points at which an endpoint dies. The wire
      keeps the ones not yet fired, and the protocol running over it
      ({!Session}, [Repro_multibase.Exchange]) consumes each through
      {!take_crash} at the point it names; what a crash does is up to
      that protocol.

    Both protocols deliver through {!await}, the one event loop, and
    keep only their message handlers and retry policy. *)

type endpoint = Mobile | Base

(** A point in the session protocol at which a node crashes. Each crash
    point fires at most once per wire ({!take_crash}), and every session
    or exchange runs on a wire of its own. *)
type crash_point =
  | Base_after_handling of int
      (** the base dies on receipt of its [n]-th message, before
          handling it (volatile session state is lost) *)
  | Base_mid_commit
      (** the base dies inside the commit group — after appending the
          forwarded updates and re-executions but before the single
          force (the torn-batch case) *)
  | Base_after_commit
      (** the base dies after the commit force but before replying
          [Done] (the in-doubt case) *)
  | Mobile_after_handling of int
      (** the mobile dies on receipt of its [n]-th message and reboots
          after [Session.config.reboot_delay] *)

type schedule = {
  drop_rate : float;  (** per-send drop probability, [0..1] *)
  dup_rate : float;  (** per-delivered-send duplication probability *)
  min_latency : float;
  max_latency : float;
  partitions : (float * float) list;  (** link-down intervals [(from, to)] *)
  crashes : crash_point list;
  to_base_drop : float option;
      (** asymmetric link: overrides [drop_rate] for sends toward
          [Base] (the responder side of a base-to-base exchange) *)
  to_mobile_drop : float option;
      (** asymmetric link: overrides [drop_rate] for sends toward
          [Mobile] (the initiator side of a base-to-base exchange) *)
}

(** No faults: small constant-ish latency, nothing dropped. *)
val ideal : schedule

(** A schedule that only drops (for CLI [--drop-rate]). *)
val lossy : drop_rate:float -> schedule

type 'a t

(** [create ?describe ~seed sched] — [describe] labels payloads in the
    trace events the wire emits on the network lane when event capturing
    is on ([net.send] / [net.drop] / [net.dup] / [net.deliver], each
    carrying the message label, destination and simulated clock);
    defaults to ["msg"]. *)
val create : ?describe:('a -> string) -> seed:int -> schedule -> 'a t

(** [take_crash t p] — does a scheduled crash fire at [p]? True the
    first time [p] is asked for, if the schedule lists it; the point is
    then consumed, so it never fires again on [t] (a point listed twice
    still fires once). *)
val take_crash : 'a t -> crash_point -> bool

(** Is the link partitioned at [time]? *)
val partitioned : 'a t -> float -> bool

(** [send t ~now ~dst payload] submits a message; it is dropped,
    delayed and possibly duplicated per the schedule. *)
val send : 'a t -> now:float -> dst:endpoint -> 'a -> unit

(** Arrival time of the next message queued for [dst], if any. *)
val next_arrival : 'a t -> dst:endpoint -> float option

(** [recv t ~now ~dst] delivers the earliest message for [dst] whose
    arrival time is [<= now]. *)
val recv : 'a t -> now:float -> dst:endpoint -> 'a option

(** [await t ~now ~deadline ~base ~mobile] — the protocols' delivery loop.
    It delivers queued messages earliest arrival first, a tie to [Base]
    first, while the arrival is at most [deadline], and advances the
    clock [now] to each arrival that is later than it. [base] handles
    every message for [Base]; [mobile] handles each message for
    [Mobile], and its first [Some v] ends the wait with [Some v]. When
    nothing more arrives by [deadline], [now] is set to [deadline]
    (which must not be before [!now]) and the result is [None]. An
    exception from a handler propagates with [now] at that message's
    arrival. *)
val await :
  'a t ->
  now:float ref ->
  deadline:float ->
  base:('a -> unit) ->
  mobile:('a -> 'b option) ->
  'b option

type stats = { sent : int; dropped : int; duplicated : int; delivered : int }

val stats : 'a t -> stats
val pp_stats : Format.formatter -> stats -> unit
