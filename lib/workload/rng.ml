(* The splitmix64 state lives unboxed in 8 bytes: a mutable [int64]
   field would box a fresh value on every draw. With [mix] and [next]
   inlined the arithmetic stays in registers, so [int] allocates nothing
   and [float] only its result. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let state = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 state;
  mix state

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 state;
  t

let create seed = of_state (mix (Int64.of_int seed))

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Shift by 2 so the value fits OCaml's 63-bit int without wrapping
     negative. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let in_range t lo hi =
  if hi < lo then invalid_arg "Rng.in_range: empty range";
  lo + int t (hi - lo + 1)

let float t =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  v /. 9007199254740992.0 (* 2^53 *)

let bool t p = float t < p

let pick t l =
  match l with
  | [] -> invalid_arg "Rng.pick: empty list"
  | _ -> List.nth l (int t (List.length l))

let sample t k l =
  let n = List.length l in
  if k >= n then l
  else begin
    (* Reservoir-free: mark k distinct indices. *)
    let chosen = Hashtbl.create k in
    let rec draw remaining =
      if remaining = 0 then ()
      else
        let i = int t n in
        if Hashtbl.mem chosen i then draw remaining
        else begin
          Hashtbl.replace chosen i ();
          draw (remaining - 1)
        end
    in
    draw k;
    List.filteri (fun i _ -> Hashtbl.mem chosen i) l
  end

let split t = of_state (mix (next t))
