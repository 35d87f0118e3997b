open Repro_txn
module Trace = Repro_replication.Trace

type session = {
  mobile : int;
  at : float;
  window_started : int;
  programs : Program.t list;
  reads : Item.Set.t;  (* static readset union *)
  writes : Item.Set.t;  (* static writeset union *)
}

type wevent =
  | Base of { at : float; program : Program.t }
  | Session of session

type window = { index : int; events : wevent array }

let time_of = function Base { at; _ } -> at | Session s -> s.at

let footprint = function
  | Base { program; _ } -> Program.add_writeset program (Program.readset program)
  | Session s -> Item.Set.union s.reads s.writes

let write_set = function
  | Base { program; _ } -> Program.writeset program
  | Session s -> s.writes

(* Deterministic seeded tie-break for events admitted at the same
   instant: a splitmix64 finalizer over (seed, discriminant). Times are
   continuous draws, so ties are measure-zero in simulation — the
   tie-break exists so that, when they do occur (or when a caller feeds
   hand-built traces), admission order is a pure function of the seed
   rather than of queue internals. *)
let mix seed k =
  let z = ref (Int64.of_int ((seed * 0x9e3779b9) + k)) in
  z := Int64.mul (Int64.logxor !z (Int64.shift_right_logical !z 30)) 0xbf58476d1ce4e5b9L;
  z := Int64.mul (Int64.logxor !z (Int64.shift_right_logical !z 27)) 0x94d049bb133111ebL;
  Int64.to_int (Int64.logxor !z (Int64.shift_right_logical !z 31)) land max_int

let tie_break seed = function
  | Base _ -> mix seed (-1)
  | Session s -> mix seed s.mobile

(* Materialize the per-window admission queues from a trace: walk events
   in processing order, buffering each mobile's tentative transactions
   until its next [Connect], which admits them as one session. A session
   carries the window index its history originated in ([window_started]
   < the current window marks it late, to be reprocessed rather than
   merged — exactly Sync's Strategy-2 rule). Empty connects admit
   nothing but still re-anchor the mobile's origin window.

   Returns the windows (one per boundary plus the trailing partial
   window, mirroring Sync's final [check_window]) and the trace-wide
   base/tentative transaction counts. *)
let windows ~seed trace =
  let params = Trace.params trace in
  let n = params.Trace.n_mobiles in
  let buf = Array.make n [] in
  let started = Array.make n 0 in
  let cur = ref 0 in
  let acc = ref [] in
  let out = ref [] in
  let base_txns = ref 0 and tentative_txns = ref 0 in
  let close_window () =
    let events = Array.of_list (List.rev !acc) in
    (* Stable sort on (time, seeded tie-break): normally the identity
       permutation, see [tie_break]. *)
    let keyed = Array.map (fun e -> (time_of e, tie_break seed e, e)) events in
    let cmp (ta, ka, _) (tb, kb, _) =
      match Float.compare ta tb with 0 -> Int.compare ka kb | c -> c
    in
    Array.stable_sort cmp keyed;
    out := { index = !cur; events = Array.map (fun (_, _, e) -> e) keyed } :: !out;
    acc := [];
    incr cur
  in
  Trace.iter
    (fun at ev ->
      match ev with
      | Trace.Mobile_txn { mobile; program } ->
          incr tentative_txns;
          buf.(mobile) <- program :: buf.(mobile)
      | Trace.Base_txn { program } ->
          incr base_txns;
          acc := Base { at; program } :: !acc
      | Trace.Connect { mobile } ->
          (match buf.(mobile) with
          | [] -> ()
          | rev ->
              let programs = List.rev rev in
              let reads =
                List.fold_left (fun s p -> Program.add_readset p s) Item.Set.empty programs
              in
              let writes =
                List.fold_left (fun s p -> Program.add_writeset p s) Item.Set.empty programs
              in
              acc :=
                Session { mobile; at; window_started = started.(mobile); programs; reads; writes }
                :: !acc);
          buf.(mobile) <- [];
          started.(mobile) <- !cur
      | Trace.Window_boundary -> close_window ())
    trace;
  close_window ();
  (List.rev !out, !base_txns, !tentative_txns)
