(* Domain worker pool with dynamic task claiming.

   Tasks are claimed through an [Atomic] fetch-and-add counter, so the
   assignment of tasks to domains is scheduling-dependent — but each
   result lands in the slot of its task index, so the returned array is
   deterministic regardless of which domain ran what. [Domain.join]
   publishes every worker's writes before results are read.

   [domains = 1] runs every task inline on the calling domain: no spawn,
   no atomics contended. Tasks that record into the Obs registry should
   wrap themselves in [Obs.Shard.collect] regardless of domain count, so
   the merged telemetry is identical inline and spawned. *)

let map_w ~domains f n =
  if n = 0 then [||]
  else if domains <= 1 || n = 1 then Array.init n (fun i -> f ~worker:0 i)
  else begin
    let workers = min (domains - 1) (n - 1) in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let work worker =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- Some (f ~worker i);
          go ()
        end
      in
      go ()
    in
    (* The caller participates as worker 0; spawned domains are 1..workers. *)
    let spawned = List.init workers (fun k -> Domain.spawn (fun () -> work (k + 1))) in
    work 0;
    List.iter Domain.join spawned;
    Array.map
      (function Some r -> r | None -> invalid_arg "Pool.map_w: missing result")
      results
  end
