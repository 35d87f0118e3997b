open Repro_txn

type scheme = Hash | Range of Item.t array

type t = {
  shards : int;
  scheme : scheme;
  (* Range only: item -> block index, precomputed from the sorted universe. *)
  index : (Item.t, int) Hashtbl.t option;
  universe : int;  (* Range only: universe size *)
}

(* FNV-1a, 64-bit. Deterministic across runs and processes, unlike
   [Hashtbl.hash] whose contract does not promise stability. *)
let fnv1a (s : string) =
  let h = ref (-3750763034362895579L) (* 0xcbf29ce484222325 *) in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 1099511628211L)
    s;
  Int64.to_int !h land max_int

let make ~shards scheme =
  if shards < 1 then invalid_arg "Smap.make: shards must be >= 1";
  match scheme with
  | Hash -> { shards; scheme; index = None; universe = 0 }
  | Range universe ->
      let sorted = Array.copy universe in
      Array.stable_sort Item.compare sorted;
      (* Duplicates are adjacent once sorted; each item keeps the rank of
         its first copy. *)
      let index = Hashtbl.create (Array.length sorted * 2) in
      Array.iteri
        (fun i x -> if i = 0 || not (Item.equal sorted.(i - 1) x) then Hashtbl.add index x i)
        sorted;
      { shards; scheme = Range sorted; index = Some index; universe = Array.length sorted }

let shards t = t.shards

let shard_of_item t x =
  match t.index with
  | None -> fnv1a x mod t.shards
  | Some index -> (
      match Hashtbl.find_opt index x with
      | Some i -> i * t.shards / max 1 t.universe
      | None -> fnv1a x mod t.shards (* off-universe items fall back to hashing *))

(* Distinct shards of a footprint, ascending. *)
let footprint t items =
  let seen = Array.make t.shards false in
  Item.Set.iter (fun x -> seen.(shard_of_item t x) <- true) items;
  let acc = ref [] in
  for s = t.shards - 1 downto 0 do
    if seen.(s) then acc := s :: !acc
  done;
  !acc

let scheme t = t.scheme
