open Repro_txn
open Repro_history

let same_transactions h1 h2 = Names.Set.equal (History.name_set h1) (History.name_set h2)

let final_state_equivalent s0 h1 h2 =
  same_transactions h1 h2
  && State.equal (History.final_state s0 h1) (History.final_state s0 h2)

(* Ordered pairs of conflicting transactions, by name, computed from the
   dynamic read/write sets of an execution. *)
let conflict_pairs exec =
  let records = Array.of_list exec.History.records in
  let n = Array.length records in
  let pairs = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let ri = records.(i) and rj = records.(j) in
      let wi = Interp.dynamic_writeset ri and wj = Interp.dynamic_writeset rj in
      let ai = Item.Set.union (Interp.dynamic_readset ri) wi in
      let aj = Item.Set.union (Interp.dynamic_readset rj) wj in
      let conflict =
        (not (Item.Set.disjoint wi aj)) || not (Item.Set.disjoint wj ai)
      in
      if conflict then
        pairs :=
          (ri.Interp.program.Program.name, rj.Interp.program.Program.name) :: !pairs
    done
  done;
  !pairs

let conflict_equivalent s0 h1 h2 =
  same_transactions h1 h2
  &&
  let p1 = conflict_pairs (History.execute s0 h1) in
  let p2 = conflict_pairs (History.execute s0 h2) in
  let sorted l = List.sort compare l in
  sorted p1 = sorted p2

let prefix_of h1 h2 =
  let rec go l1 l2 =
    match (l1, l2) with
    | [], _ -> true
    | _, [] -> false
    | a :: l1', b :: l2' -> String.equal a b && go l1' l2'
  in
  go (History.names h1) (History.names h2)
