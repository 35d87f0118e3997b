type t = { n : int; cdf : float array }

let make ~n ~skew =
  if n <= 0 then invalid_arg "Zipf.make: n must be positive";
  (* A NaN or infinite skew leaves every cdf entry but the last NaN (or
     the weights 0 or infinite), so [sample] would always pick one rank. *)
  if not (Float.is_finite skew) then invalid_arg "Zipf.make: skew must be finite";
  let weights = Array.init n (fun k -> 1.0 /. (float_of_int (k + 1) ** skew)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. (w /. total);
      cdf.(i) <- !acc)
    weights;
  cdf.(n - 1) <- 1.0;
  { n; cdf }

let sample t rng =
  let u = Rng.float rng in
  (* binary search for the first index with cdf >= u *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if t.cdf.(mid) >= u then search lo mid else search (mid + 1) hi
  in
  search 0 (t.n - 1)

let sample_distinct t rng k =
  let k = max 0 (min k t.n) in
  let chosen = Hashtbl.create k in
  let rec draw acc remaining attempts =
    if remaining = 0 then List.rev acc
    else if attempts > 1000 * k then
      (* extreme skew: fall back to filling with the smallest unused ranks *)
      let rec fill acc remaining rank =
        if remaining = 0 then List.rev acc
        else if Hashtbl.mem chosen rank then fill acc remaining (rank + 1)
        else begin
          Hashtbl.replace chosen rank ();
          fill (rank :: acc) (remaining - 1) (rank + 1)
        end
      in
      fill acc remaining 0
    else
      let r = sample t rng in
      if Hashtbl.mem chosen r then draw acc remaining (attempts + 1)
      else begin
        Hashtbl.replace chosen r ();
        draw (r :: acc) (remaining - 1) (attempts + 1)
      end
  in
  draw [] k 0
