(* Timing, order statistics, fingerprints and the result line. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Processor seconds of the whole process (user plus system, every
   domain). A shared host takes the processor away from a run for
   stretches of seconds to minutes, to other processes or, on a virtual
   machine, to other guests: wall time counts those stretches, processor
   time does not (the guest kernel subtracts stolen time when it
   accounts paravirtual steal time). The measured work runs on one
   domain and waits on nothing but the processor, so its processor time
   is the wall time it would take on a machine of its own. *)
let cpu_timed f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

(* Linear interpolation between order statistics, so a percentile moves
   smoothly with the samples instead of jumping between them. *)
let quantile xs q =
  match xs with
  | [] -> 0.0
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = min (int_of_float pos) (n - 1) in
    if i = n - 1 then a.(i)
    else
      let frac = pos -. float_of_int i in
      a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let sum = List.fold_left ( +. ) 0.0
let mean = function [] -> 0.0 | xs -> sum xs /. float_of_int (List.length xs)
let ratio a b = if b = 0.0 then 0.0 else a /. b
let ratio_i a b = ratio (float_of_int a) (float_of_int b)

(* Input size: [Full] for measured runs, [Tiny] for the benchmark's own
   tests. *)
type size = Full | Tiny

(* Input [i] of a run: its own seed, derived from the run's seed. *)
let input_seed seed i = (seed * 7919) + i

(* [until ~seconds ~min step] is [step 0], [step 1], ...: steps until
   [seconds] have passed since the call, and at least [min]. The inputs a
   step serves must depend only on its index, so the clock decides how
   often an input is repeated, never which inputs a run has. *)
let until ~seconds ~min step =
  let deadline = now () +. seconds in
  let rec go i acc = if i >= min && now () >= deadline then List.rev acc else go (i + 1) (step i :: acc) in
  go 0 []

let show xs = String.concat "," (List.map (Printf.sprintf "%.6g") xs)

(* The speed reference: a fixed integer kernel, pseudo-random reads and
   writes over a 4 KiB table. It allocates nothing and its table stays in
   the first-level cache, so neither the program's heap nor where the
   system placed the process's memory can move it; it calls nothing in
   the repository, so a change to the program cannot move it either.
   Only the processor's speed can. *)
let table = Array.make 512 0

let kernel () =
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to 3_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let i = !x land 511 in
    let v = table.(i) in
    table.(i) <- v + 1;
    acc := !acc + (v lxor (!x lsr 7))
  done;
  !acc

(* Processor seconds one kernel call takes on the machine the benchmark
   was calibrated on (a quiet 2-vCPU VM). Fixed for good: every scaled
   time in every run is relative to it. *)
let reference_nominal_s = 0.008

(* One reference timing: a warm-up call, then one timed call. *)
let reference () =
  ignore (Sys.opaque_identity (kernel ()));
  snd (cpu_timed (fun () -> Sys.opaque_identity (kernel ())))

(* A meter times pieces of work between reference timings. Processor
   time leaves out the stretches in which the processor is taken away,
   but not those in which it runs slow: neighbours on a shared host slow
   it by up to 1.5x for seconds to minutes (through a shared turbo
   budget or a busy sibling hyperthread, for instance). The reference,
   timed right before and right
   after each piece, reads that slowdown. [measure m f] runs [f] on a
   freshly collected heap and returns its result and a [sample]: its
   processor and wall seconds, and the factor that scales processor
   seconds to the calibration machine's speed (the nominal reference
   time over the mean of the two taken around the piece). The collection
   is outside the timing, so garbage left by earlier work is not charged
   to [f]. *)
type meter = { mutable last : float }

type sample = { cpu_s : float; wall_s : float; scale : float }

(* Processor seconds at the calibration machine's speed. *)
let scaled s = s.cpu_s *. s.scale

let meter () = { last = reference () }

let measure m f =
  Gc.full_major ();
  let t0 = now () in
  let r, cpu_s = cpu_timed f in
  let wall_s = now () -. t0 in
  let next = reference () in
  let scale = reference_nominal_s /. ((m.last +. next) /. 2.0) in
  m.last <- next;
  (r, { cpu_s; wall_s; scale })

(* Telemetry overhead from (untraced, traced) wall-time pairs of the same
   work: the median traced time over the median untraced time, minus 1. *)
let overhead pairs =
  let plain = List.map (fun (p, _, _) -> p) pairs and traced = List.map (fun (_, t, _) -> t) pairs in
  ratio (median traced) (median plain) -. 1.0

(* Live major-heap data in MiB, after a full collection: what the
   program holds at this point, independent of when the collector last
   ran. Also leaves the next measured phase a clean heap. *)
let live_heap_mb () =
  Gc.full_major ();
  float_of_int ((Gc.quick_stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.0

(* Short stable hex digest of a canonical string rendering. *)
let digest parts = String.sub (Digest.to_hex (Digest.string (String.concat "|" parts))) 0 16

let state_digest s =
  digest (List.map (fun (x, v) -> x ^ "=" ^ string_of_int v) (Repro_txn.State.to_list s))

(* What one run of a workload produced: metric values by name, the
   operations attempted and failed, and every failed output check. *)
type outcome = {
  values : (string * float) list;
  attempted : int;
  failed : int;
  problems : string list;
}

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

(* The result object; [metrics] are (name, unit, value) triples. *)
let result_line ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun (name, unit_, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v) unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " body)
