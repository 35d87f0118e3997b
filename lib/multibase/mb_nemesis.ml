module Rng = Repro_workload.Rng
module Net = Repro_fault.Net
module Sweep = Repro_fault.Sweep

(* A random link schedule for one base pair or one mobile session. On
   top of {!Repro_fault.Nemesis}'s repertoire this draws the multi-base
   faults: hard base-from-base partitions (the link is down for the
   whole exchange — anti-entropy must simply fail and a later exchange
   catch up), asymmetric links (one direction lossy, the other clean),
   and base crash/restart injection through the schedule's crash
   points. *)
let random_schedule ?(partition_rate = 0.3) ?(crash_rate = 0.2) rng =
  let drop_rate = if Rng.bool rng 0.4 then Sweep.frac rng 0.0 0.6 else 0.0 in
  let dup_rate = if Rng.bool rng 0.3 then Sweep.frac rng 0.0 0.4 else 0.0 in
  let min_latency = Sweep.frac rng 0.005 0.05 in
  let max_latency = min_latency +. Sweep.frac rng 0.0 1.0 in
  let partitions =
    if Rng.float rng < partition_rate then
      if Rng.bool rng 0.5 then [ (0.0, 1e9) ]
      else
        let from = Sweep.frac rng 0.0 10.0 in
        [ (from, from +. Sweep.frac rng 0.5 8.0) ]
    else []
  in
  let to_base_drop = if Rng.bool rng 0.25 then Some (Sweep.frac rng 0.3 1.0) else None in
  let to_mobile_drop = if Rng.bool rng 0.25 then Some (Sweep.frac rng 0.3 1.0) else None in
  let crashes =
    List.concat
      [
        (if Rng.float rng < crash_rate then [ Net.Base_after_handling (1 + Rng.int rng 6) ]
         else []);
        (if Rng.bool rng 0.15 then [ Net.Mobile_after_handling (1 + Rng.int rng 6) ] else []);
        (if Rng.bool rng 0.15 then [ Net.Base_mid_commit ] else []);
        (if Rng.bool rng 0.15 then [ Net.Base_after_commit ] else []);
      ]
  in
  {
    Net.drop_rate;
    dup_rate;
    min_latency;
    max_latency;
    partitions;
    crashes;
    to_base_drop;
    to_mobile_drop;
  }

type case = { bases : int; mobiles : int; ops : Cluster.op list }

let random_case ?(partition_rate = 0.3) ?(crash_rate = 0.2) ?bases ?mobiles ?n_ops
    ?crash_at ~seed () =
  let rng = Rng.create seed in
  let bases = match bases with Some n -> n | None -> 3 + Rng.int rng 2 in
  let mobiles = match mobiles with Some n -> n | None -> 2 + Rng.int rng 3 in
  let n_ops = match n_ops with Some n -> n | None -> 12 + Rng.int rng 16 in
  let random_schedule ?partition_rate ?crash_rate rng =
    let s = random_schedule ?partition_rate ?crash_rate rng in
    (* A pinned crash point (CLI --base-crash-at) replaces the drawn
       ones: every exchange then kills its responder deterministically. *)
    match crash_at with
    | None -> s
    | Some n -> { s with Net.crashes = [ Net.Base_after_handling n ] }
  in
  let ops =
    List.init n_ops (fun i ->
        let seed_i = seed + (101 * (i + 1)) in
        let r = Rng.float rng in
        if r < 0.30 then
          Cluster.Mobile_session
            {
              mobile = Rng.int rng mobiles;
              base = Rng.int rng bases;
              length = 1 + Rng.int rng 3;
              schedule = random_schedule ~partition_rate ~crash_rate rng;
              seed = seed_i;
            }
        else if r < 0.50 then Cluster.Base_txn { base = Rng.int rng bases; seed = seed_i }
        else if r < 0.80 then begin
          let initiator = Rng.int rng bases in
          let responder = (initiator + 1 + Rng.int rng (bases - 1)) mod bases in
          Cluster.Exchange
            {
              initiator;
              responder;
              schedule = random_schedule ~partition_rate ~crash_rate rng;
              seed = seed_i;
            }
        end
        else if r < 0.90 then Cluster.Crash { base = Rng.int rng bases }
        else Cluster.Tick { base = Rng.int rng bases })
  in
  { bases; mobiles; ops }

let check_case ?partition_rate ?crash_rate ~seed () =
  let case = random_case ?partition_rate ?crash_rate ~seed () in
  let cluster =
    Cluster.create ~bases:case.bases ~mobiles:case.mobiles ~n_accounts:8 ()
  in
  match Cluster.run_ops cluster case.ops with
  | exception e -> Error (Printf.sprintf "exception: %s" (Printexc.to_string e))
  | () -> (
    match Cluster.check cluster with
    | [] -> Ok (Cluster.stats cluster)
    | vs -> Error (String.concat "; " vs))

type sweep = Cluster.stats Sweep.t

let run_sweep ?partition_rate ?crash_rate ~seed ~count () =
  Sweep.run ~seed ~count (fun seed -> check_case ?partition_rate ?crash_rate ~seed ())

let pp_sweep =
  Sweep.pp (fun ppf (s : sweep) ->
      let sum f = List.fold_left (fun n (c : Cluster.stats) -> n + f c) 0 s.passed in
      Format.fprintf ppf
        "cases=%d ok=%d@ sessions=%d completed=%d aborted=%d reanchored=%d@ \
         exchanges=%d exchange_aborts=%d base_crashes=%d@ committed=%d rejected=%d"
        s.cases (List.length s.passed)
        (sum (fun c -> c.Cluster.sessions))
        (sum (fun c -> c.Cluster.completed))
        (sum (fun c -> c.Cluster.session_aborts))
        (sum (fun c -> c.Cluster.reanchored))
        (sum (fun c -> c.Cluster.exchanges))
        (sum (fun c -> c.Cluster.exchange_aborts))
        (sum (fun c -> c.Cluster.base_crashes))
        (sum (fun c -> c.Cluster.committed))
        (sum (fun c -> c.Cluster.rejected)))
