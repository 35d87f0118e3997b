open Repro_txn
open Repro_history
open Repro_precedence
open Repro_rewrite
module Report = Repro_obs.Report

type disposition =
  | Kept
  | Saved_by_can_follow
  | Saved_by_can_precede
  | Backed_out of {
      pruned : [ `Compensation | `Undo_repair ];
      reexec : [ `Reexecuted | `Rejected ];
    }

type t = {
  txn : Names.t;
  index : int;
  cycle_peers : Names.Set.t;
  in_bad : bool;
  in_affected : bool;
  move : Rewrite.move option;
  attempts : Rewrite.attempt list;
  disposition : disposition;
}

let disposition_name = function
  | Kept -> "kept"
  | Saved_by_can_follow -> "saved-by-can-follow"
  | Saved_by_can_precede -> "saved-by-can-precede"
  | Backed_out { pruned; reexec } ->
    Printf.sprintf "backed-out (%s, %s)"
      (match pruned with `Compensation -> "compensated" | `Undo_repair -> "undo-repaired")
      (match reexec with `Reexecuted -> "re-executed" | `Rejected -> "rejected")

(* Fellow members of the transaction's cyclic SCC in G(H_m, H_b): the
   cycle company that made it a back-out candidate. Empty when the graph
   put it on no cycle. The cone holds every cycle, so its cyclic
   components are the graph's (docs/PERFORMANCE.md §4). *)
let cycle_peers_of pg =
  let cone = Precedence.cone pg in
  let peers = Hashtbl.create 16 in
  List.iter
    (fun component ->
      match component with
      | [] | [ _ ] -> ()
      | _ ->
        let names =
          Names.Set.of_names
            (List.map (fun v -> (Precedence.summary_of_node cone v).Summary.name) component)
        in
        Names.Set.iter (fun n -> Hashtbl.replace peers n (Names.Set.remove n names)) names)
    (Precedence.cyclic_components cone);
  fun name -> Option.value ~default:Names.Set.empty (Hashtbl.find_opt peers name)

let of_merge ~pg ~tentative ~(report : Protocol.merge_report) =
  let rw = report.Protocol.rewrite in
  let peers_of = cycle_peers_of pg in
  let outcome_of name =
    List.find_opt (fun (t : Protocol.txn_report) -> String.equal t.Protocol.name name)
      report.Protocol.txns
  in
  List.mapi
    (fun index (p : Program.t) ->
      let name = p.Program.name in
      let in_bad = Names.Set.mem name report.Protocol.bad in
      let in_affected = Names.Set.mem name report.Protocol.affected in
      let move =
        List.find_opt (fun (m : Rewrite.move) -> String.equal m.Rewrite.mover name)
          rw.Rewrite.trace
      in
      let attempts =
        List.filter
          (fun (a : Rewrite.attempt) -> String.equal a.Rewrite.att_mover name)
          rw.Rewrite.attempts
      in
      let disposition =
        if Names.Set.mem name report.Protocol.saved then
          match move with
          | None -> Kept
          | Some m ->
            if
              List.exists
                (fun (j : Rewrite.jump) -> j.Rewrite.via = `Can_precede)
                m.Rewrite.jumps
            then Saved_by_can_precede
            else Saved_by_can_follow
        else
          let pruned =
            if report.Protocol.pruned_by_compensation then `Compensation else `Undo_repair
          in
          let reexec =
            match outcome_of name with
            | Some { Protocol.outcome = Protocol.Reexecuted; _ } -> `Reexecuted
            | Some { Protocol.outcome = Protocol.Rejected; _ } -> `Rejected
            | Some { Protocol.outcome = Protocol.Merged; _ } | None ->
              invalid_arg ("Provenance.of_merge: no re-execution outcome for " ^ name)
          in
          Backed_out { pruned; reexec }
      in
      { txn = name; index; cycle_peers = peers_of name; in_bad; in_affected; move; attempts;
        disposition })
    (History.programs tentative)

let find records name =
  List.find_opt (fun r -> String.equal r.txn name) records

(* ------------------------------------------------------------------ *)
(* Renderers *)

let verdict_text = function
  | Rewrite.Follows -> "can follow the mover"
  | Rewrite.Commutes -> "commutes backward through the mover"
  | Rewrite.Precedes dom ->
    if Item.Set.is_empty dom then "the mover can precede it"
    else
      Printf.sprintf "the mover can precede it (fix domain {%s})"
        (String.concat "," (Item.Set.elements dom))
  | Rewrite.Blocked dom ->
    if Item.Set.is_empty dom then "blocked"
    else
      Printf.sprintf "blocked (fix domain {%s} consulted)"
        (String.concat "," (Item.Set.elements dom))

let names_text s =
  if Names.Set.is_empty s then "none" else String.concat ", " (Names.Set.elements s)

let to_text r =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "transaction %s (tentative #%d)" r.txn (r.index + 1);
  line "  cycle peers: %s" (names_text r.cycle_peers);
  line "  in back-out set B: %s" (if r.in_bad then "yes" else "no");
  line "  in affected set AG: %s" (if r.in_affected then "yes" else "no");
  (match r.attempts with
  | [] -> line "  scan attempts: none"
  | attempts ->
    line "  scan attempts:";
    List.iter
      (fun (a : Rewrite.attempt) ->
        line "    %s:" (if a.Rewrite.moved then "moved" else "stayed");
        List.iter
          (fun (d : Rewrite.decision) ->
            line "      %s: %s" d.Rewrite.target (verdict_text d.Rewrite.verdict))
          a.Rewrite.decisions)
      attempts);
  line "  disposition: %s" (disposition_name r.disposition);
  Buffer.contents b

let esc = Report.escape_json

let str_arr elems =
  "[" ^ String.concat ", " (List.map (fun s -> Printf.sprintf "\"%s\"" (esc s)) elems) ^ "]"

let verdict_json = function
  | Rewrite.Follows -> "{\"relation\": \"follows\"}"
  | Rewrite.Commutes -> "{\"relation\": \"commutes\"}"
  | Rewrite.Precedes dom ->
    Printf.sprintf "{\"relation\": \"precedes\", \"fix_domain\": %s}"
      (str_arr (Item.Set.elements dom))
  | Rewrite.Blocked dom ->
    Printf.sprintf "{\"relation\": \"blocked\", \"fix_domain\": %s}"
      (str_arr (Item.Set.elements dom))

let disposition_json = function
  | Kept -> "{\"kind\": \"kept\"}"
  | Saved_by_can_follow -> "{\"kind\": \"saved\", \"via\": \"can-follow\"}"
  | Saved_by_can_precede -> "{\"kind\": \"saved\", \"via\": \"can-precede\"}"
  | Backed_out { pruned; reexec } ->
    Printf.sprintf "{\"kind\": \"backed-out\", \"pruned\": \"%s\", \"reexec\": \"%s\"}"
      (match pruned with `Compensation -> "compensation" | `Undo_repair -> "undo-repair")
      (match reexec with `Reexecuted -> "reexecuted" | `Rejected -> "rejected")

let record_json r =
  let attempt_json (a : Rewrite.attempt) =
    Printf.sprintf "{\"moved\": %b, \"decisions\": [%s]}" a.Rewrite.moved
      (String.concat ", "
         (List.map
            (fun (d : Rewrite.decision) ->
              Printf.sprintf "{\"target\": \"%s\", \"verdict\": %s}" (esc d.Rewrite.target)
                (verdict_json d.Rewrite.verdict))
            a.Rewrite.decisions))
  in
  Printf.sprintf
    "{\"txn\": \"%s\", \"index\": %d, \"cycle_peers\": %s, \"in_bad\": %b, \"in_affected\": \
     %b, \"attempts\": [%s], \"disposition\": %s}"
    (esc r.txn) r.index
    (str_arr (Names.Set.elements r.cycle_peers))
    r.in_bad r.in_affected
    (String.concat ", " (List.map attempt_json r.attempts))
    (disposition_json r.disposition)

let to_json records =
  "{\"provenance\": [\n  " ^ String.concat ",\n  " (List.map record_json records) ^ "\n]}\n"
