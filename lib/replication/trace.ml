open Repro_txn
module Rng = Repro_workload.Rng
module Gen = Repro_workload.Gen

type workload = {
  initial : State.t;
  make_mobile_txn : Rng.t -> name:string -> Program.t;
  make_base_txn : Rng.t -> name:string -> Program.t;
}

type gap = Exponential of float | Pareto of { mean : float; alpha : float }

type params = {
  n_mobiles : int;
  duration : float;
  window : float;
  connect_gap : gap;
  mean_mobile_txn_gap : float;
  mean_base_txn_gap : float;
  seed : int;
}

type event =
  | Mobile_txn of { mobile : int; program : Program.t }
  | Base_txn of { program : Program.t }
  | Connect of { mobile : int }
  | Window_boundary

(* Event [i] happens at [times.(i)]: times sit unboxed in one float
   array, and every connect of mobile [m] is the one [Connect] block
   [generate] allocated for [m]. *)
type t = { params : params; times : float array; events : event array }

let exponential rng mean = -.mean *. log (1.0 -. Rng.float rng)

let draw_gap rng = function
  | Exponential mean -> exponential rng mean
  | Pareto { mean; alpha } -> Gen.power_law_disconnect ~mean ~alpha rng

(* Internal scheduling tokens; the public events carry the generated
   programs instead of counters. *)
type sched = S_mobile of int | S_base | S_connect of int | S_window

let generate params workload =
  (* Each event schedules its successor one interval later: a zero or
     negative interval would never pass the duration. *)
  let positive what x =
    if not (x > 0.0) then invalid_arg ("Trace.generate: " ^ what ^ " must be > 0")
  in
  (* The loop ends at the first event past the duration, which never
     comes for NaN or infinity. *)
  if not (Float.is_finite params.duration) then
    invalid_arg "Trace.generate: duration must be finite";
  positive "window" params.window;
  positive "mean_mobile_txn_gap" params.mean_mobile_txn_gap;
  positive "mean_base_txn_gap" params.mean_base_txn_gap;
  (match params.connect_gap with
  | Exponential mean | Pareto { mean; _ } -> positive "connect gap mean" mean);
  let rng = Rng.create params.seed in
  let queue = Pqueue.create () in
  let schedule time ev = Pqueue.push queue time ev in
  (* The draw order below replicates the original Sync.run event loop
     exactly: scheduling gaps and program generation pull from one rng
     stream, so for the default exponential connect gap a trace-driven
     run is byte-identical to the historical inlined loop. *)
  for i = 0 to params.n_mobiles - 1 do
    schedule (exponential rng params.mean_mobile_txn_gap) (S_mobile i);
    schedule (draw_gap rng params.connect_gap) (S_connect i)
  done;
  schedule (exponential rng params.mean_base_txn_gap) S_base;
  schedule params.window S_window;
  let txn_counter = Array.make params.n_mobiles 0 in
  let base_counter = ref 0 in
  let connects = Array.init params.n_mobiles (fun mobile -> Connect { mobile }) in
  (* Doubling buffers, trimmed to the [len] events emitted once the
     loop ends. *)
  let times = ref (Array.make 1024 0.0) and events = ref (Array.make 1024 Window_boundary) in
  let len = ref 0 in
  let emit t ev =
    if !len = Array.length !times then begin
      let grow a fill =
        let b = Array.make (2 * !len) fill in
        Array.blit a 0 b 0 !len;
        b
      in
      times := grow !times 0.0;
      events := grow !events Window_boundary
    end;
    !times.(!len) <- t;
    !events.(!len) <- ev;
    incr len
  in
  (* Every event schedules exactly one successor, its own token one
     interval later, so the loop replaces the queue's minimum with it:
     a pop and a push in one sift, in the same tie order. *)
  let rec loop () =
    match Pqueue.min queue with
    | None -> ()
    | Some (t, _) when t > params.duration -> ()
    | Some (t, ev) ->
      let next =
        match ev with
        | S_mobile i ->
          let n = txn_counter.(i) + 1 in
          txn_counter.(i) <- n;
          let name = Gen.numbered2 "M" i "T" n in
          let program = workload.make_mobile_txn rng ~name in
          emit t (Mobile_txn { mobile = i; program });
          t +. exponential rng params.mean_mobile_txn_gap
        | S_base ->
          incr base_counter;
          let name = Gen.numbered "B" !base_counter in
          let program = workload.make_base_txn rng ~name in
          emit t (Base_txn { program });
          t +. exponential rng params.mean_base_txn_gap
        | S_connect i ->
          emit t connects.(i);
          t +. draw_gap rng params.connect_gap
        | S_window ->
          emit t Window_boundary;
          t +. params.window
      in
      Pqueue.replace_min queue next ev;
      loop ()
  in
  loop ();
  { params; times = Array.sub !times 0 !len; events = Array.sub !events 0 !len }

let iter f t = Array.iteri (fun i ev -> f t.times.(i) ev) t.events

let params t = t.params
let length t = Array.length t.events

let pp_event ppf = function
  | Mobile_txn { mobile; program } ->
      Format.fprintf ppf "mobile %d txn %s" mobile program.Program.name
  | Base_txn { program } -> Format.fprintf ppf "base txn %s" program.Program.name
  | Connect { mobile } -> Format.fprintf ppf "connect %d" mobile
  | Window_boundary -> Format.fprintf ppf "window"
