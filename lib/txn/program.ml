type t = {
  name : string;
  ttype : string;
  params : (string * int) list;
  body : Stmt.t list;
}

exception Ill_formed of string

(* Each item may be updated at most once on any execution path (Section
   6.2). Walk the body tracking, per path, the set of already-updated
   items; branches fork the set and rejoin as alternatives. The state space
   stays small because bodies are short. *)
let check_single_update name body =
  let rec step written_alternatives stmt =
    match stmt with
    | Stmt.Read _ -> written_alternatives
    | Stmt.Update (x, _) | Stmt.Assign (x, _) ->
      List.map
        (fun written ->
          if Item.Set.mem x written then
            raise (Ill_formed (Printf.sprintf "%s: item %s updated twice on a path" name x))
          else Item.Set.add x written)
        written_alternatives
    | Stmt.If (_, ss1, ss2) ->
      let after_then = List.fold_left step written_alternatives ss1 in
      let after_else = List.fold_left step written_alternatives ss2 in
      after_then @ after_else
  in
  ignore (List.fold_left step [ Item.Set.empty ] body)

let check_params name params body =
  let bound = List.map fst params in
  let used = Stmt.params_of_seq body in
  List.iter
    (fun p ->
      if not (List.mem p bound) then
        raise (Ill_formed (Printf.sprintf "%s: unbound parameter $%s" name p)))
    used

let make ~name ?(ttype = "adhoc") ?(params = []) body =
  check_single_update name body;
  check_params name params body;
  { name; ttype; params; body }

let rename t name = { t with name }
let add_readset t acc = Stmt.add_reads_of_seq t.body acc
let add_writeset t acc = Stmt.add_writes_of_seq t.body acc
let readset t = add_readset t Item.Set.empty
let writeset t = add_writeset t Item.Set.empty
let read_only_items t = Item.Set.diff (readset t) (writeset t)
let is_read_only t = Item.Set.is_empty (writeset t)

let param t p =
  match List.assoc_opt p t.params with
  | Some v -> v
  | None -> raise (Ill_formed (Printf.sprintf "%s: unbound parameter $%s" t.name p))

let equal a b = a = b
let pp ppf t = Format.pp_print_string ppf t.name

let pp_full ppf t =
  let pp_param ppf (p, v) = Format.fprintf ppf "$%s=%d" p v in
  Format.fprintf ppf "@[<v 2>%s : %s [%a]@ %a@]" t.name t.ttype
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_param)
    t.params Stmt.pp_list t.body
