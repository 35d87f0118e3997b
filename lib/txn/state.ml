type t = int Item.Map.t

let empty = Item.Map.empty
let of_list bindings = List.fold_left (fun m (k, v) -> Item.Map.add k v m) empty bindings
let to_list state = Item.Map.bindings state
let get state x = match Item.Map.find_opt x state with Some v -> v | None -> 0
let set state x v = Item.Map.add x v state

(* One [update] walk both reads the old binding and writes the new one;
   it leaves the same tree as [set]. *)
let exchange state x v =
  let before = ref 0 in
  let state =
    Item.Map.update x
      (fun old ->
        (match old with Some b -> before := b | None -> ());
        Some v)
      state
  in
  (!before, state)

(* One lookup per item of [items], not a walk of [state]. *)
let restrict state items =
  Item.Set.fold
    (fun x acc ->
      match Item.Map.find_opt x state with Some v -> Item.Map.add x v acc | None -> acc)
    items Item.Map.empty

let items state = Item.Map.keys state

(* One ordered walk of both maps; an item bound on one side only differs
   iff its value is not the default 0. *)
let diff s1 s2 =
  let add_if differs x acc = if differs then Item.Set.add x acc else acc in
  let rec walk acc n1 n2 =
    match (n1, n2) with
    | Seq.Nil, Seq.Nil -> acc
    | Seq.Cons ((x, v), r1), Seq.Nil -> walk (add_if (v <> 0) x acc) (r1 ()) Seq.Nil
    | Seq.Nil, Seq.Cons ((y, w), r2) -> walk (add_if (w <> 0) y acc) Seq.Nil (r2 ())
    | Seq.Cons ((x, v), r1), Seq.Cons ((y, w), r2) ->
      let c = Item.compare x y in
      if c = 0 then walk (add_if (v <> w) x acc) (r1 ()) (r2 ())
      else if c < 0 then walk (add_if (v <> 0) x acc) (r1 ()) n2
      else walk (add_if (w <> 0) y acc) n1 (r2 ())
  in
  walk Item.Set.empty (Item.Map.to_seq s1 ()) (Item.Map.to_seq s2 ())

(* Identical bindings settle it in one [Item.Map.equal] walk, which
   copies neither map; only states that differ as maps take [diff]'s
   walk, which reads an item bound on one side as 0 on the other. *)
let equal s1 s2 = s1 == s2 || Item.Map.equal Int.equal s1 s2 || Item.Set.is_empty (diff s1 s2)

let pp = Item.Map.pp Format.pp_print_int

let merge_updates base updates item_set =
  Item.Set.fold (fun x acc -> set acc x (get updates x)) item_set base
