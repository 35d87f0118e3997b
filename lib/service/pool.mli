(** Minimal OCaml 5 Domain worker pool. *)

(** [map_w ~domains f n] evaluates [f ~worker 0 .. f ~worker (n-1)] on
    up to [domains] domains (the caller's included) and returns the
    results indexed by task — a deterministic array even though
    task-to-domain assignment is dynamic (idle domains claim the next
    task via an [Atomic] counter). Exceptions raised by a task on a
    spawned domain are re-raised by [Domain.join].

    [worker] is the claiming worker's physical index ([0] is the calling
    domain; spawned domains are [1 .. domains-1]). It is
    scheduling-dependent — use it only for timing attribution, never for
    deterministic outputs.

    With [domains <= 1] (or a single task) everything runs inline on the
    calling domain — no spawning. Tasks that record telemetry should
    wrap themselves in [Obs.Shard.collect] regardless of domain count so
    the coordinator can fold the shards back in deterministic task
    order. *)
val map_w : domains:int -> (worker:int -> int -> 'a) -> int -> 'a array
