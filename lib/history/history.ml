open Repro_txn

type entry = { program : Program.t; fix : Fix.t }
type t = { items : entry list }

exception Duplicate_name of string

(* The names seen so far, accumulated in list order: the first entry
   whose name an earlier one holds is the one reported. *)
let of_entries entries =
  ignore
    (List.fold_left
       (fun seen e ->
         let name = e.program.Program.name in
         if Names.Set.mem name seen then raise (Duplicate_name name);
         Names.Set.add name seen)
       Names.Set.empty entries);
  { items = entries }

let of_programs ps = of_entries (List.map (fun p -> { program = p; fix = Fix.empty }) ps)
let entries t = t.items
let programs t = List.map (fun e -> e.program) t.items
let names t = List.map (fun e -> e.program.Program.name) t.items
let name_set t = Names.Set.of_names (names t)
let length t = List.length t.items
let is_empty t = t.items = []
let append a b = of_entries (a.items @ b.items)
let find t name = List.find (fun e -> String.equal e.program.Program.name name) t.items
let mem t name = List.exists (fun e -> String.equal e.program.Program.name name) t.items
let restrict t keep = { items = List.filter (fun e -> keep e.program.Program.name) t.items }

let readset t =
  List.fold_left (fun acc e -> Program.add_readset e.program acc) Item.Set.empty t.items

let writeset t =
  List.fold_left (fun acc e -> Program.add_writeset e.program acc) Item.Set.empty t.items

type execution = {
  history : t;
  initial : State.t;
  records : Interp.record list;
  final : State.t;
}

let execute s0 t =
  let state = ref s0 in
  let records =
    List.map
      (fun e ->
        let r = Interp.run ~fix:e.fix !state e.program in
        state := r.Interp.after;
        r)
      t.items
  in
  { history = t; initial = s0; records; final = !state }

let final_state s0 t = (execute s0 t).final

let record_of exec name =
  List.find (fun r -> String.equal r.Interp.program.Program.name name) exec.records

let pp ppf t =
  let pp_entry ppf e =
    if Fix.is_empty e.fix then Program.pp ppf e.program
    else Format.fprintf ppf "%a^%a" Program.pp e.program Fix.pp e.fix
  in
  Format.fprintf ppf "@[<h>%a@]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " ") pp_entry)
    t.items
