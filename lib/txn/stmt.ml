type t =
  | Read of Item.t
  | Update of Item.t * Expr.t
  | Assign of Item.t * Expr.t
  | If of Pred.t * t list * t list

(* Read and write sets accumulate: every item is added to one set that
   the whole statement sequence threads through. *)
let rec add_reads s acc =
  match s with
  | Read x -> Item.Set.add x acc
  | Update (x, e) -> Item.Set.add x (Expr.add_items e acc)
  | Assign (_, e) -> Expr.add_items e acc
  | If (c, ss1, ss2) -> add_reads_of_seq ss2 (add_reads_of_seq ss1 (Pred.add_items c acc))

and add_reads_of_seq ss acc = List.fold_left (fun acc s -> add_reads s acc) acc ss

let read_items s = add_reads s Item.Set.empty

let rec add_writes s acc =
  match s with
  | Read _ -> acc
  | Update (x, _) | Assign (x, _) -> Item.Set.add x acc
  | If (_, ss1, ss2) -> add_writes_of_seq ss2 (add_writes_of_seq ss1 acc)

and add_writes_of_seq ss acc = List.fold_left (fun acc s -> add_writes s acc) acc ss

let write_items s = add_writes s Item.Set.empty

let rec must_write_items = function
  | Read _ -> Item.Set.empty
  | Update (x, _) | Assign (x, _) -> Item.Set.singleton x
  | If (_, ss1, ss2) -> Item.Set.inter (must_writes_of_seq ss1) (must_writes_of_seq ss2)

and must_writes_of_seq ss =
  List.fold_left (fun acc s -> Item.Set.union acc (must_write_items s)) Item.Set.empty ss

let rec params = function
  | Read _ -> []
  | Update (_, e) | Assign (_, e) -> Expr.params e
  | If (c, ss1, ss2) -> Pred.params c @ params_of_seq ss1 @ params_of_seq ss2

and params_of_seq ss = List.concat_map params ss

let rec pp ppf = function
  | Read x -> Format.fprintf ppf "read %a" Item.pp x
  | Update (x, e) -> Format.fprintf ppf "%a := %a" Item.pp x Expr.pp e
  | Assign (x, e) -> Format.fprintf ppf "%a <- %a" Item.pp x Expr.pp e
  | If (c, ss1, []) -> Format.fprintf ppf "if %a then { %a }" Pred.pp c pp_list ss1
  | If (c, ss1, ss2) ->
    Format.fprintf ppf "if %a then { %a } else { %a }" Pred.pp c pp_list ss1 pp_list ss2

and pp_list ppf ss =
  Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp ppf ss
