open Repro_txn
open Repro_history

type profile = {
  n_items : int;
  commuting_fraction : float;
  writes_per_txn : int * int;
  extra_reads : int * int;
  zipf_skew : float;
  guard_fraction : float;
}

let default_profile =
  {
    n_items = 40;
    commuting_fraction = 0.5;
    writes_per_txn = (1, 3);
    extra_reads = (0, 2);
    zipf_skew = 0.8;
    guard_fraction = 0.5;
  }

(* Characters of [string_of_int n]. Digits are counted on the
   non-positive side, where [min_int] has no overflowing negation. *)
let int_length n =
  let rec width m w = if m > -10 then w else width (m / 10) (w + 1) in
  if n < 0 then width n 2 else width (-n) 1

(* Writes [string_of_int n], [len] characters long, at [pos]. *)
let blit_int b pos len n =
  if n < 0 then Bytes.set b pos '-';
  let m = ref (if n < 0 then n else -n) in
  for i = pos + len - 1 downto pos + Bool.to_int (n < 0) do
    Bytes.set b i (Char.unsafe_chr (48 - (!m mod 10)));
    m := !m / 10
  done

(* Prefixes are a character or two: a loop beats a [memmove] call. *)
let blit_prefix p b pos =
  for i = 0 to String.length p - 1 do
    Bytes.set b (pos + i) p.[i]
  done

let numbered2 p n q m =
  let lp = String.length p and ln = int_length n in
  let lq = String.length q and lm = int_length m in
  let b = Bytes.create (lp + ln + lq + lm) in
  blit_prefix p b 0;
  blit_int b lp ln n;
  blit_prefix q b (lp + ln);
  blit_int b (lp + ln + lq) lm m;
  Bytes.unsafe_to_string b

let numbered p n =
  let lp = String.length p and ln = int_length n in
  let b = Bytes.create (lp + ln) in
  blit_prefix p b 0;
  blit_int b lp ln n;
  Bytes.unsafe_to_string b

(* The additive parameters' names, one copy for every program; a longer
   write list names the rest afresh. *)
let amt_names = Array.init 8 (numbered "amt")
let amt i = if i < Array.length amt_names then amt_names.(i) else numbered "amt" i

type pool = { profile : profile; item_names : Item.t array; zipf : Zipf.t }

let pool profile =
  {
    profile;
    item_names = Array.init profile.n_items (numbered "d");
    zipf = Zipf.make ~n:profile.n_items ~skew:profile.zipf_skew;
  }

let items p = Array.to_list p.item_names

let initial_state p rng =
  State.of_list (List.map (fun x -> (x, Rng.in_range rng 50 150)) (items p))

let pick_items p rng k = List.map (fun i -> p.item_names.(i)) (Zipf.sample_distinct p.zipf rng k)

(* Additive type: every update is x := x + $amt, the saveable fragment. *)
let additive_body rng writes reads =
  let amts = List.mapi (fun i _ -> amt i) writes in
  let params = List.map (fun p -> (p, Rng.in_range rng (-20) 20)) amts in
  let updates =
    List.map2 (fun x p -> Stmt.Update (x, Expr.Add (Expr.Item x, Expr.Param p))) writes amts
  in
  let read_stmts = List.map (fun x -> Stmt.Read x) reads in
  (params, read_stmts @ updates)

(* Assignment type: the first write copies scaled foreign values, the rest
   are multiplicative self-updates; nothing here commutes. *)
let assignment_body rng writes reads =
  let params = [ ("c", Rng.in_range rng 1 10) ] in
  let source = match reads with x :: _ -> Some x | [] -> None in
  let updates =
    List.mapi
      (fun i x ->
        if i = 0 then
          match source with
          | Some y -> Stmt.Update (x, Expr.Add (Expr.Item y, Expr.Param "c"))
          | None -> Stmt.Update (x, Expr.Mul (Expr.Item x, Expr.Const 2))
        else Stmt.Update (x, Expr.Mul (Expr.Item x, Expr.Const 2)))
      writes
  in
  let read_stmts = List.map (fun x -> Stmt.Read x) reads in
  (params, read_stmts @ updates)

(* Guarded type: additive deltas inside a branch whose guard reads the
   updated item itself — conditional, hence not saveable against other
   writers of the same item, exercising the detector's guard analysis. *)
let guarded_body rng writes reads =
  let params = [ ("thr", Rng.in_range rng 40 120); ("amt", Rng.in_range rng 1 20) ] in
  let updates =
    List.map
      (fun x ->
        Stmt.If
          ( Pred.Gt (Expr.Item x, Expr.Param "thr"),
            [ Stmt.Update (x, Expr.Sub (Expr.Item x, Expr.Param "amt")) ],
            [ Stmt.Update (x, Expr.Add (Expr.Item x, Expr.Param "amt")) ] ))
      writes
  in
  let read_stmts = List.map (fun x -> Stmt.Read x) reads in
  (params, read_stmts @ updates)

(* Guarded-additive type: the guard reads a foreign item, updates are
   additive — saveable against writers that leave the guard item alone. *)
let guarded_additive_body rng writes reads =
  let params = [ ("thr", Rng.in_range rng 40 120); ("amt", Rng.in_range rng 1 20) ] in
  let guard_item = match reads with x :: _ -> Some x | [] -> None in
  let update x = Stmt.Update (x, Expr.Add (Expr.Item x, Expr.Param "amt")) in
  let updates =
    match guard_item with
    | Some g -> [ Stmt.If (Pred.Gt (Expr.Item g, Expr.Param "thr"), List.map update writes, []) ]
    | None -> List.map update writes
  in
  (params, updates)

let transaction_over profile rng ~name ~writes ~reads =
  let ttype, (params, body) =
    if Rng.bool rng profile.commuting_fraction then ("additive", additive_body rng writes reads)
    else if Rng.bool rng profile.guard_fraction then
      if Rng.bool rng 0.5 then ("guarded", guarded_body rng writes reads)
      else ("guarded-additive", guarded_additive_body rng writes reads)
    else ("assignment", assignment_body rng writes reads)
  in
  Program.make ~name ~ttype ~params body

let transaction p rng ~name =
  let lo_w, hi_w = p.profile.writes_per_txn in
  let lo_r, hi_r = p.profile.extra_reads in
  let n_writes = max 1 (Rng.in_range rng lo_w hi_w) in
  let n_reads = Rng.in_range rng lo_r hi_r in
  let chosen = pick_items p rng (n_writes + n_reads) in
  let rec split k l = if k = 0 then ([], l) else match l with
    | [] -> ([], [])
    | x :: rest -> let a, b = split (k - 1) rest in (x :: a, b)
  in
  let writes, reads = split n_writes chosen in
  transaction_over p.profile rng ~name ~writes ~reads

(* Pareto with tail index [alpha] and the given mean: scale
   x_m = mean (alpha-1)/alpha, survival P(X > x) = (x_m/x)^alpha for
   x >= x_m. Consumes exactly one rng float, like the exponential
   sampler in Sync, so swapping distributions never shifts the rest of
   a seeded draw sequence. *)
let power_law_disconnect ~mean ~alpha rng =
  if not (alpha > 1.0) then invalid_arg "Gen.power_law_disconnect: alpha must be > 1";
  if not (mean > 0.0) then invalid_arg "Gen.power_law_disconnect: mean must be > 0";
  let x_m = mean *. (alpha -. 1.0) /. alpha in
  x_m *. ((1.0 -. Rng.float rng) ** (-1.0 /. alpha))

let history p rng ~prefix ~length =
  History.of_programs
    (List.init length (fun i -> transaction p rng ~name:(numbered prefix (i + 1))))

let mobile_base_pair p rng ~tentative_len ~base_len =
  let hm = history p rng ~prefix:"Tm" ~length:tentative_len in
  let hb = history p rng ~prefix:"Tb" ~length:base_len in
  (hm, hb)

let summaries rng ~n_items ~tentative ~base ~reads ~writes ~skew ~blind =
  let zipf = Zipf.make ~n:n_items ~skew in
  let item = numbered "d" in
  let one kind prefix i =
    let lo_w, hi_w = writes and lo_r, hi_r = reads in
    let n_w = Rng.in_range rng lo_w hi_w in
    let n_r = Rng.in_range rng lo_r hi_r in
    let ws = List.map item (Zipf.sample_distinct zipf rng n_w) in
    let rs = List.map item (Zipf.sample_distinct zipf rng n_r) in
    let read_back = List.filter (fun _ -> not (Rng.bool rng blind)) ws in
    Repro_precedence.Summary.make
      ~name:(numbered prefix (i + 1))
      ~kind ~reads:(rs @ read_back) ~writes:ws
  in
  ( List.init tentative (one Repro_precedence.Summary.Tentative "Tm"),
    List.init base (one Repro_precedence.Summary.Base "Tb") )
