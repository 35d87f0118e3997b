(* Tests for the workload substrate: PRNG determinism and ranges, Zipf
   shape, generator well-formedness, and the banking / reservation canned
   systems. *)

open Repro_txn
open Repro_history
module Rng = Repro_workload.Rng
module Zipf = Repro_workload.Zipf
module Gen_wl = Repro_workload.Gen
module Banking = Repro_workload.Banking
module Profile_gen = Repro_workload.Profile_gen
module Reservation = Repro_workload.Reservation
module G = Test_support.Generators

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let thy = Semantics.default_theory

let test_rng_deterministic () =
  let a = Rng.create 99 and b = Rng.create 99 in
  let seq r = List.init 20 (fun _ -> Rng.int r 1000) in
  Alcotest.check (Alcotest.list Alcotest.int) "same seed same stream" (seq a) (seq b);
  let c = Rng.create 100 in
  checkb "different seed different stream" true (seq (Rng.create 99) <> seq c)

let test_rng_ranges () =
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int r 7 in
    if v < 0 || v >= 7 then Alcotest.failf "Rng.int out of range: %d" v;
    let w = Rng.in_range r (-5) 5 in
    if w < -5 || w > 5 then Alcotest.failf "Rng.in_range out of range: %d" w;
    let f = Rng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "Rng.float out of range: %f" f
  done

let test_rng_sample_distinct () =
  let r = Rng.create 5 in
  let s = Rng.sample r 4 [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  checki "four elements" 4 (List.length s);
  checki "distinct" 4 (List.length (List.sort_uniq compare s))

(* The splitmix64 generator as it was with a boxed [int64] state: the
   reference stream the unboxed [Rng] must reproduce draw for draw. *)
module Boxed_rng = struct
  type t = { mutable state : int64 }

  let mix z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let next t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    mix t.state

  let create seed = { state = mix (Int64.of_int seed) }
  let int t bound = Int64.to_int (Int64.shift_right_logical (next t) 2) mod bound
  let float t = Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0
  let split t = { state = mix (next t) }
end

(* Interleaved draws of every kind, splits included, over seeds that
   cover negative, zero and large values. *)
let test_rng_matches_boxed_reference () =
  List.iter
    (fun seed ->
      let r = ref (Rng.create seed) and b = ref (Boxed_rng.create seed) in
      for i = 1 to 5000 do
        match i mod 5 with
        | 0 -> checki "int" (Boxed_rng.int !b 1000) (Rng.int !r 1000)
        | 1 -> checki "int max_int" (Boxed_rng.int !b max_int) (Rng.int !r max_int)
        | 2 ->
          let want = Boxed_rng.float !b and got = Rng.float !r in
          if Int64.bits_of_float want <> Int64.bits_of_float got then
            Alcotest.failf "seed %d draw %d: float %h, reference %h" seed i got want
        | 3 -> checki "in_range" (-7 + Boxed_rng.int !b 15) (Rng.in_range !r (-7) 7)
        | _ ->
          if i mod 50 = 4 then begin
            r := Rng.split !r;
            b := Boxed_rng.split !b
          end
          else checkb "bool" (Boxed_rng.float !b < 0.3) (Rng.bool !r 0.3)
      done)
    [ 0; 1; 7; -1; 7919; 31337; max_int; min_int ]

(* Words allocated per draw over 100k draws: the state is unboxed, so an
   integer draw allocates nothing and a float draw only its boxed
   result. *)
let test_rng_draws_do_not_box_the_state () =
  let draws = 100_000 in
  let words_per_draw draw =
    let r = Rng.create 42 in
    let w0 = Gc.minor_words () in
    for _ = 1 to draws do
      ignore (Sys.opaque_identity (draw r))
    done;
    (Gc.minor_words () -. w0) /. float_of_int draws
  in
  let per_float = words_per_draw (fun r -> Obj.repr (Rng.float r)) in
  let per_int = words_per_draw (fun r -> Obj.repr (Rng.int r 1000)) in
  if per_float > 3.0 then Alcotest.failf "Rng.float allocates %.2f words per draw" per_float;
  if per_int > 0.5 then Alcotest.failf "Rng.int allocates %.2f words per draw" per_int

let test_zipf_skew_prefers_low_ranks () =
  let r = Rng.create 3 in
  let z = Zipf.make ~n:50 ~skew:1.2 in
  let counts = Array.make 50 0 in
  for _ = 1 to 5000 do
    let k = Zipf.sample z r in
    counts.(k) <- counts.(k) + 1
  done;
  checkb "rank 0 beats rank 25" true (counts.(0) > counts.(25));
  checkb "rank 0 at least 10%" true (counts.(0) > 500)

let test_zipf_uniform_when_flat () =
  let r = Rng.create 3 in
  let z = Zipf.make ~n:10 ~skew:0.0 in
  let counts = Array.make 10 0 in
  for _ = 1 to 10000 do
    let k = Zipf.sample z r in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iter (fun c -> checkb "roughly uniform" true (c > 700 && c < 1300)) counts

let test_zipf_distinct () =
  let r = Rng.create 11 in
  let z = Zipf.make ~n:6 ~skew:2.0 in
  let picks = Zipf.sample_distinct z r 6 in
  checki "all six" 6 (List.length (List.sort_uniq compare picks))

let test_zipf_rejects_non_finite_skew () =
  List.iter
    (fun skew ->
      Alcotest.check_raises (Printf.sprintf "skew %h" skew)
        (Invalid_argument "Zipf.make: skew must be finite")
        (fun () -> ignore (Zipf.make ~n:8 ~skew)))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  (* A negative finite skew is a distribution that prefers high ranks. *)
  let r = Rng.create 3 and z = Zipf.make ~n:8 ~skew:(-2.0) in
  let counts = Array.make 8 0 in
  for _ = 1 to 4000 do
    let k = Zipf.sample z r in
    counts.(k) <- counts.(k) + 1
  done;
  checkb "rank 7 beats rank 0" true (counts.(7) > counts.(0))

let prop_generated_histories_well_formed =
  QCheck.Test.make ~count:100 ~name:"generated histories execute and validate"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let pool = Gen_wl.pool Gen_wl.default_profile in
      let s0 = Gen_wl.initial_state pool rng in
      let h = Gen_wl.history pool rng ~prefix:"T" ~length:12 in
      let exec = History.execute s0 h in
      History.length h = 12
      && List.for_all
           (fun (r : Interp.record) ->
             Item.Set.subset (Interp.dynamic_writeset r) (Interp.dynamic_readset r))
           exec.History.records)

let prop_commuting_fraction_respected =
  QCheck.Test.make ~count:50 ~name:"commuting_fraction=1 yields only additive programs"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let pool = Gen_wl.pool { Gen_wl.default_profile with Gen_wl.commuting_fraction = 1.0 } in
      let h = Gen_wl.history pool rng ~prefix:"T" ~length:10 in
      List.for_all Analysis.is_additive_program (History.programs h))

let test_summaries_shapes () =
  let rng = Rng.create 17 in
  let tentative, base =
    Gen_wl.summaries rng ~n_items:10 ~tentative:6 ~base:4 ~reads:(1, 2) ~writes:(1, 2)
      ~skew:0.5 ~blind:0.0
  in
  checki "tentative count" 6 (List.length tentative);
  checki "base count" 4 (List.length base);
  List.iter
    (fun (s : Repro_precedence.Summary.t) ->
      checkb "no blind writes when blind=0" true
        (Item.Set.subset s.Repro_precedence.Summary.writeset s.Repro_precedence.Summary.readset))
    (tentative @ base)

(* Profile-driven generation *)

let profile_system =
  match
    Repro_lang.Parser.system_of_string
      {|
system toy
type bump(item x, int amt) { x := x + amt; }
type move(item from, item to, int amt) { from := from - amt; to := to + amt; }
type check(item a) { read a; read ledger; }
|}
  with
  | Ok sys -> sys
  | Error msg -> failwith msg

let test_profile_gen_instantiates () =
  let gen = Profile_gen.make profile_system in
  let rng = Rng.create 7 in
  let h = Profile_gen.history gen rng ~prefix:"T" ~length:50 in
  checki "fifty transactions" 50 (History.length h);
  (* distinct formals never collapse onto one item (move from == to would
     be rejected by validation, so reaching here already proves it), and
     every instance is one of the declared types *)
  List.iter
    (fun (p : Program.t) ->
      checkb "known type" true (List.mem p.Program.ttype [ "bump"; "move"; "check" ]))
    (History.programs h);
  let s0 = Profile_gen.initial_state gen (Rng.create 8) in
  checki "executes" 50 (List.length (History.execute s0 h).History.records)

let test_profile_gen_globals_in_universe () =
  let gen = Profile_gen.make profile_system in
  checkb "ledger is in the universe" true (List.mem "ledger" (Profile_gen.items gen))

let test_profile_gen_deterministic () =
  let gen = Profile_gen.make profile_system in
  let h1 = Profile_gen.history gen (Rng.create 5) ~prefix:"T" ~length:10 in
  let h2 = Profile_gen.history gen (Rng.create 5) ~prefix:"T" ~length:10 in
  checkb "same seed, same history" true (History.programs h1 = History.programs h2)

(* Banking *)

let bank = Banking.make ~n_accounts:5

let test_banking_deposit_withdraw_commute () =
  let d = Banking.deposit bank ~name:"D" ~account:2 ~amount:50 in
  let w = Banking.withdraw bank ~name:"W" ~account:2 ~amount:30 in
  checkb "deposit/withdraw commute" true (Semantics.commutes_backward_through ~theory:thy ~mover:d ~target:w);
  checkb "compensators derivable" true (Compensation.derivable d && Compensation.derivable w)

let test_banking_safe_withdraw_guarded () =
  let s = Banking.safe_withdraw bank ~name:"S" ~account:1 ~amount:30 in
  let d = Banking.deposit bank ~name:"D" ~account:1 ~amount:50 in
  checkb "guarded withdraw does not commute with deposit" false
    (Semantics.commutes_backward_through ~theory:thy ~mover:d ~target:s);
  let s0 = Banking.initial_state bank in
  let after = Interp.apply s0 s in
  checki "withdraw applied when funded" 70 (State.get after "acct1");
  let broke = State.set s0 "acct1" 10 in
  let after' = Interp.apply broke s in
  checki "no-op when underfunded" 10 (State.get after' "acct1")

let test_banking_transfer_preserves_ledger_invariant () =
  let s0 = Banking.initial_state bank in
  let t = Banking.transfer bank ~name:"T" ~from_:0 ~to_:3 ~amount:25 in
  let after = Interp.apply s0 t in
  let total st = List.fold_left (fun acc i -> acc + State.get st (Printf.sprintf "acct%d" i)) 0 [ 0; 1; 2; 3; 4 ] in
  checki "account total preserved" (total s0) (total after);
  checki "ledger unchanged by transfer" (State.get s0 "ledger") (State.get after "ledger")

let test_banking_accrue_interest_not_additive () =
  let a = Banking.accrue_interest bank ~name:"I" ~account:0 in
  checkb "not additive" false (Analysis.is_additive_program a);
  checkb "no compensator" false (Compensation.derivable a)

let prop_banking_histories_execute =
  QCheck.Test.make ~count:100 ~name:"banking histories well-formed at any bias"
    QCheck.(pair (make Gen.(int_bound 1_000_000)) (make Gen.(map (fun n -> float_of_int n /. 100.0) (int_bound 100))))
    (fun (seed, bias) ->
      let rng = Rng.create seed in
      let h = Banking.random_history bank rng ~prefix:"T" ~length:15 ~commuting_bias:bias in
      let exec = History.execute (Banking.initial_state bank) h in
      List.length exec.History.records = 15)

(* Power-law (Pareto) disconnection lengths *)

let test_power_law_deterministic () =
  let draw seed = Gen_wl.power_law_disconnect ~mean:8.0 ~alpha:1.6 (Rng.create seed) in
  checkb "same seed, same draw" true (draw 7 = draw 7);
  checkb "different seeds differ" true (draw 7 <> draw 8);
  Alcotest.check_raises "alpha <= 1 rejected"
    (Invalid_argument "Gen.power_law_disconnect: alpha must be > 1") (fun () ->
      ignore (Gen_wl.power_law_disconnect ~mean:8.0 ~alpha:1.0 (Rng.create 1)));
  Alcotest.check_raises "mean <= 0 rejected"
    (Invalid_argument "Gen.power_law_disconnect: mean must be > 0") (fun () ->
      ignore (Gen_wl.power_law_disconnect ~mean:0.0 ~alpha:1.6 (Rng.create 1)))

(* The sampler is Pareto(x_m, alpha) with x_m = mean*(alpha-1)/alpha: every
   draw is >= x_m, the empirical mean converges to [mean], and the
   empirical survival function matches the analytic tail
   P(X > x) = (x_m / x)^alpha. This is the satellite's tail-shape check:
   an exponential with the same mean would be orders of magnitude off at
   the deep quantiles. *)
let test_power_law_tail_shape () =
  let mean = 8.0 and alpha = 1.6 in
  let x_m = mean *. (alpha -. 1.0) /. alpha in
  let n = 200_000 in
  let rng = Rng.create 99 in
  let xs = Array.init n (fun _ -> Gen_wl.power_law_disconnect ~mean ~alpha rng) in
  Array.iter (fun x -> if x < x_m then Alcotest.fail "draw below scale x_m") xs;
  let total = Array.fold_left ( +. ) 0.0 xs in
  let emp_mean = total /. float_of_int n in
  (* alpha = 1.6 has infinite variance, so the sample mean converges
     slowly; a loose band is the honest check. *)
  checkb "empirical mean near analytic" true (emp_mean > 0.7 *. mean && emp_mean < 1.6 *. mean);
  let survival x =
    let c = Array.fold_left (fun acc v -> if v > x then acc + 1 else acc) 0 xs in
    float_of_int c /. float_of_int n
  in
  List.iter
    (fun mult ->
      let x = x_m *. mult in
      let analytic = (x_m /. x) ** alpha in
      let emp = survival x in
      let ok = emp > 0.8 *. analytic && emp < 1.25 *. analytic in
      if not ok then
        Alcotest.failf "tail at %gx: empirical %.5f vs analytic %.5f" mult emp analytic)
    [ 2.0; 5.0; 10.0; 30.0 ];
  (* And it is genuinely heavy-tailed: an exponential of the same mean
     has survival e^{-x/mean} ~ 3e-5 at x = 10*mean; Pareto sits far above. *)
  checkb "heavier than exponential at 10x mean" true (survival (10.0 *. mean) > 0.003)

(* Reservation *)

let airline = Reservation.make ~n_flights:3

let test_reserve_guarded_by_capacity () =
  let s0 = Reservation.initial_state airline ~seats:1 in
  let r1 = Reservation.reserve airline ~name:"R1" ~flight:0 ~fare:100 in
  let r2 = Reservation.reserve airline ~name:"R2" ~flight:0 ~fare:100 in
  let after = Interp.apply (Interp.apply s0 r1) r2 in
  checki "no overselling" 0 (State.get after "flight0");
  checki "only one fare collected" 100 (State.get after "revenue0")

let test_block_release_commute () =
  let b = Reservation.block_seats airline ~name:"B" ~flight:1 ~count:3 in
  let r = Reservation.release_seats airline ~name:"R" ~flight:1 ~count:2 in
  checkb "block/release commute" true (Semantics.commutes_backward_through ~theory:thy ~mover:b ~target:r)

let test_rebook_moves_seat () =
  let s0 = Reservation.initial_state airline ~seats:5 in
  let rb = Reservation.rebook airline ~name:"RB" ~from_:0 ~to_:1 in
  let after = Interp.apply s0 rb in
  checki "destination decremented" 4 (State.get after "flight1");
  checki "source incremented" 6 (State.get after "flight0")

(* Generated names are written digit by digit; each must be exactly the
   concatenation it stands for, for any prefix and any int. The ints mix
   every power of ten and the number one below it, their negations and
   both ends of the range with arbitrary ones. *)
let prop_numbered_is_concatenation =
  let edges =
    let rec powers p acc = if p > max_int / 10 then p :: acc else powers (p * 10) (p :: acc) in
    [ 0; 9; 10; min_int; min_int + 1; max_int; max_int - 1 ]
    @ List.concat_map (fun p -> [ p; p - 1; -p; 1 - p ]) (powers 1 [])
  in
  let n = QCheck.Gen.(oneof [ oneofl edges; int; int_range (-1000) 1000 ]) in
  let prefix = QCheck.Gen.(string_size (int_bound 6)) in
  QCheck.Test.make ~count:2000 ~name:"numbered names = prefix ^ string_of_int"
    (QCheck.make
       ~print:QCheck.Print.(quad string int string int)
       QCheck.Gen.(quad prefix n prefix n))
    (fun (p, n, q, m) ->
      Gen_wl.numbered p n = p ^ string_of_int n
      && Gen_wl.numbered2 p n q m = p ^ string_of_int n ^ q ^ string_of_int m)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "repro_workload"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "ranges" `Quick test_rng_ranges;
          Alcotest.test_case "sample distinct" `Quick test_rng_sample_distinct;
          Alcotest.test_case "matches the boxed reference" `Quick
            test_rng_matches_boxed_reference;
          Alcotest.test_case "draws do not box the state" `Quick
            test_rng_draws_do_not_box_the_state;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "skew prefers low ranks" `Quick test_zipf_skew_prefers_low_ranks;
          Alcotest.test_case "flat is uniform" `Quick test_zipf_uniform_when_flat;
          Alcotest.test_case "distinct exhausts" `Quick test_zipf_distinct;
          Alcotest.test_case "non-finite skew rejected" `Quick test_zipf_rejects_non_finite_skew;
        ] );
      ( "generator",
        [ Alcotest.test_case "summaries" `Quick test_summaries_shapes ]
        @ qsuite
            [
              prop_generated_histories_well_formed;
              prop_commuting_fraction_respected;
              prop_numbered_is_concatenation;
            ] );
      ( "profile-gen",
        [
          Alcotest.test_case "instantiates" `Quick test_profile_gen_instantiates;
          Alcotest.test_case "globals in universe" `Quick test_profile_gen_globals_in_universe;
          Alcotest.test_case "deterministic" `Quick test_profile_gen_deterministic;
        ] );
      ( "banking",
        [
          Alcotest.test_case "deposit/withdraw commute" `Quick
            test_banking_deposit_withdraw_commute;
          Alcotest.test_case "safe withdraw guarded" `Quick test_banking_safe_withdraw_guarded;
          Alcotest.test_case "transfer invariant" `Quick
            test_banking_transfer_preserves_ledger_invariant;
          Alcotest.test_case "interest not additive" `Quick
            test_banking_accrue_interest_not_additive;
        ]
        @ qsuite [ prop_banking_histories_execute ] );
      ( "power-law",
        [
          Alcotest.test_case "deterministic + guards" `Quick test_power_law_deterministic;
          Alcotest.test_case "Pareto tail vs analytic CDF" `Quick test_power_law_tail_shape;
        ] );
      ( "reservation",
        [
          Alcotest.test_case "capacity guard" `Quick test_reserve_guarded_by_capacity;
          Alcotest.test_case "block/release commute" `Quick test_block_release_commute;
          Alcotest.test_case "rebook" `Quick test_rebook_moves_seat;
        ] );
    ]
