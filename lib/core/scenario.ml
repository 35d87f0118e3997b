open Repro_txn
open Repro_history
open Repro_replication
module Engine = Repro_db.Engine

type outcome = {
  log : string list;
  final_base : State.t;
  failed_expectations : int;
}

type mobile = { mutable tentative_rev : Program.t list; mutable engine : Engine.t }

type session = {
  origin : State.t;
  window : Window.t;
  mobiles : (string, mobile) Hashtbl.t;
  mutable names : Names.Set.t;  (* every transaction name used so far *)
  mutable rev_log : string list;
  mutable failed : int;
}

let emit session line = session.rev_log <- line :: session.rev_log

let mobile_of session id =
  match Hashtbl.find_opt session.mobiles id with
  | Some m -> m
  | None ->
    let m = { tentative_rev = []; engine = Engine.create session.origin } in
    Hashtbl.replace session.mobiles id m;
    m

(* Transaction bodies reuse the profile language's statement grammar by
   wrapping them as a parameterless type declaration. *)
let parse_body ~name braced =
  match Repro_lang.Parser.decl_of_string (Printf.sprintf "type body() %s" braced) with
  | Error msg -> Error msg
  | Ok decl -> (
    let decl = { decl with Repro_lang.Ast.tname = "scenario" } in
    match Repro_lang.Elaborate.instantiate decl ~name ~items:[] ~ints:[] with
    | p -> Ok p
    | exception Repro_lang.Elaborate.Elab_error msg -> Error msg
    | exception Program.Ill_formed msg -> Error msg)

let split_words line =
  List.filter (fun w -> w <> "") (String.split_on_char ' ' line)

let parse_binding word =
  match String.index_opt word '=' with
  | Some i -> (
    let name = String.sub word 0 i in
    let value = String.sub word (i + 1) (String.length word - i - 1) in
    match int_of_string_opt value with
    | Some v when name <> "" -> Ok (name, v)
    | _ -> Error (Printf.sprintf "malformed binding %S" word))
  | None -> Error (Printf.sprintf "malformed binding %S (expected name=value)" word)

let bindings_of words =
  List.fold_left
    (fun acc w ->
      match (acc, parse_binding w) with
      | Error _, _ -> acc
      | _, Error msg -> Error msg
      | Ok l, Ok b -> Ok (b :: l))
    (Ok []) words

(* Parse a transaction body under a name no earlier command used: a
   reused name would reach the precedence graph twice. *)
let new_txn session ~name braced =
  match parse_body ~name braced with
  | Ok _ when Names.Set.mem name session.names ->
    Error (Printf.sprintf "duplicate transaction name %s" name)
  | Ok p ->
    session.names <- Names.Set.add name session.names;
    Ok p
  | Error _ as e -> e

let run_base session name braced =
  Result.map
    (fun p ->
      ignore (Window.base_txn session.window p);
      emit session (Printf.sprintf "base %s committed" name))
    (new_txn session ~name braced)

let run_mobile session id name braced =
  Result.map
    (fun p ->
      let m = mobile_of session id in
      ignore (Engine.execute m.engine p);
      m.tentative_rev <- p :: m.tentative_rev;
      emit session (Printf.sprintf "mobile %s ran %s (tentative)" id name))
    (new_txn session ~name braced)

let describe_outcome (t : Protocol.txn_report) =
  Printf.sprintf "%s:%s" t.Protocol.name (Protocol.outcome_name t.Protocol.outcome)

let connect session id ~reprocess =
  let m = mobile_of session id in
  let tentative = History.of_programs (List.rev m.tentative_rev) in
  (if History.is_empty tentative then emit session (Printf.sprintf "connect %s: nothing to do" id)
   else
     let w = session.window and origin = session.origin in
     let mode, txns =
       if reprocess then ("reprocess", (Window.reprocess w ~origin tentative).Protocol.txns)
       else ("merge", Window.reconnect w ~late:false ~origin tentative)
     in
     emit session
       (Printf.sprintf "connect %s (%s): %s" id mode
          (String.concat ", " (List.map describe_outcome txns))));
  m.tentative_rev <- [];
  m.engine <- Engine.create session.origin

let expect session word =
  match parse_binding word with
  | Error msg -> Error msg
  | Ok (x, v) ->
    let actual = State.get (Engine.state (Window.engine session.window)) x in
    if actual = v then begin
      emit session (Printf.sprintf "expect %s=%d: ok" x v);
      Ok ()
    end
    else begin
      session.failed <- session.failed + 1;
      emit session (Printf.sprintf "expect %s=%d: FAILED (actual %d)" x v actual);
      Ok ()
    end

(* A command line; base/mobile commands may carry a single-line { body }. *)
let braced_part line =
  match String.index_opt line '{' with
  | None -> None
  | Some i -> Some (String.sub line 0 i, String.sub line i (String.length line - i))

let strip_comment line =
  let rec find i =
    if i + 1 >= String.length line then None
    else if line.[i] = '/' && line.[i + 1] = '/' then Some i
    else find (i + 1)
  in
  match find 0 with Some i -> String.sub line 0 i | None -> line

let run_line session lineno line =
  let line = String.trim (strip_comment line) in
  let fail msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  if line = "" then Ok ()
  else
    match braced_part line with
    | Some (head, braced) -> (
      match split_words head with
      | [ "base"; name ] -> (
        match run_base session name braced with Ok () -> Ok () | Error m -> fail m)
      | [ "mobile"; id; name ] -> (
        match run_mobile session id name braced with Ok () -> Ok () | Error m -> fail m)
      | _ -> fail (Printf.sprintf "malformed command %S" line))
    | None -> (
      match split_words line with
      | "init" :: _ -> fail "init must be the first command"
      | [ "connect"; id ] -> Ok (connect session id ~reprocess:false)
      | [ "connect"; id; "reprocess" ] -> Ok (connect session id ~reprocess:true)
      | [ "expect"; binding ] -> (
        match expect session binding with Ok () -> Ok () | Error m -> fail m)
      | [ "state" ] ->
        emit session
          (Format.asprintf "state: %a" State.pp (Engine.state (Window.engine session.window)));
        Ok ()
      | _ -> fail (Printf.sprintf "unknown command %S" line))

let run ?(config = Protocol.default_merge_config) source =
  let lines = String.split_on_char '\n' source in
  (* First non-empty command must be init. *)
  let rec find_init lineno = function
    | [] -> Error "scenario has no init command"
    | line :: rest ->
      let stripped = String.trim (strip_comment line) in
      if stripped = "" then find_init (lineno + 1) rest
      else (
        match split_words stripped with
        | "init" :: bindings -> (
          match bindings_of bindings with
          | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
          | Ok bs -> Ok (State.of_list bs, lineno + 1, rest))
        | _ -> Error (Printf.sprintf "line %d: expected init, found %S" lineno stripped))
  in
  match find_init 1 lines with
  | Error msg -> Error msg
  | Ok (origin, next_lineno, rest) ->
    let session =
      {
        origin;
        window =
          Window.create ~protocol:(Window.Merging config) ~params:Cost.default_params
            (Engine.create origin);
        mobiles = Hashtbl.create 4;
        names = Names.Set.empty;
        rev_log = [];
        failed = 0;
      }
    in
    emit session (Format.asprintf "init: %a" State.pp origin);
    let rec play lineno = function
      | [] ->
        Ok
          {
            log = List.rev session.rev_log;
            final_base = Engine.state (Window.engine session.window);
            failed_expectations = session.failed;
          }
      | line :: rest -> (
        match run_line session lineno line with
        | Ok () -> play (lineno + 1) rest
        | Error msg -> Error msg)
    in
    play next_lineno rest

let pp_outcome ppf o =
  List.iter (fun line -> Format.fprintf ppf "%s@." line) o.log;
  Format.fprintf ppf "final: %a@." State.pp o.final_base;
  if o.failed_expectations > 0 then
    Format.fprintf ppf "%d expectation(s) FAILED@." o.failed_expectations
