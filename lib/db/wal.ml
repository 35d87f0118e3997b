open Repro_txn

type entry =
  | Begin of int
  | Read of int * Item.t * int
  | Write of int * Item.t * int * int
  | Commit of int
  | Abort of int
  | Checkpoint of State.t
  | Session of int * string

type t = {
  mutable rev_entries : entry list;
  mutable total : int;
  mutable durable : int;  (* count of entries covered by the last force *)
  mutable forces : int;
  mutable rev_barriers : int list;  (* entry counts at each force, newest first *)
  mutable device : Block.t option;
  mutable disk_seq : int;  (* sequence number of the next on-disk record *)
  mutable group_depth : int;  (* open [begin_group] nesting *)
  mutable group_pending : int;  (* forces deferred by the open group *)
  mutable group_mark : int;  (* entry count covered by the last deferred force *)
}

module Obs = Repro_obs.Obs

let obs_records = Obs.Counter.make "db.wal_records"
let obs_forces = Obs.Counter.make "db.wal_forces"
let obs_corruption = Obs.Counter.make "db.corruption_detected"
let obs_torn = Obs.Counter.make "db.torn_tail_records"
let obs_lost = Obs.Counter.make "db.durable_records_lost"
let obs_coalesced = Obs.Counter.make "db.group_commit.coalesced"
let obs_bytes = Obs.Counter.make "db.wal.bytes_written"

let create () =
  {
    rev_entries = [];
    total = 0;
    durable = 0;
    forces = 0;
    rev_barriers = [];
    device = None;
    disk_seq = 0;
    group_depth = 0;
    group_pending = 0;
    group_mark = 0;
  }

let append t e =
  t.rev_entries <- e :: t.rev_entries;
  t.total <- t.total + 1;
  Obs.Counter.incr obs_records

let entries t = List.rev t.rev_entries

let durable_entries t =
  let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl in
  List.rev (drop (t.total - t.durable) t.rev_entries)

let force_count t = t.forces
let length t = t.total
let durable_count t = t.durable
let device t = t.device

(* ---------------------------------------------------------------------- *)
(* Line codec for entry payloads (v2).                                    *)
(* ---------------------------------------------------------------------- *)

let check_item x =
  String.iter
    (fun c ->
      if c = ' ' || c = '=' || c = ',' then
        invalid_arg (Printf.sprintf "Wal: item name %S not serializable" x))
    x;
  x

let state_to_string s =
  String.concat ","
    (List.map (fun (x, v) -> Printf.sprintf "%s=%d" (check_item x) v) (State.to_list s))

let entry_to_line = function
  | Begin id -> Printf.sprintf "begin %d" id
  | Read (id, x, v) -> Printf.sprintf "read %d %s %d" id (check_item x) v
  | Write (id, x, b, a) -> Printf.sprintf "write %d %s %d %d" id (check_item x) b a
  | Commit id -> Printf.sprintf "commit %d" id
  | Abort id -> Printf.sprintf "abort %d" id
  | Checkpoint s -> Printf.sprintf "checkpoint %s" (state_to_string s)
  | Session (sid, note) ->
    String.iter
      (fun c -> if c = '\n' then invalid_arg "Wal: session note not serializable")
      note;
    Printf.sprintf "session %d %s" sid note

type parse_error =
  | Unknown_record of string
  | Bad_int of { field : string; value : string }
  | Bad_item of string
  | Bad_state of string

let string_of_parse_error = function
  | Unknown_record line -> Printf.sprintf "unrecognized log line %S" line
  | Bad_int { field; value } -> Printf.sprintf "bad integer in %s: %S" field value
  | Bad_item x -> Printf.sprintf "bad item name %S" x
  | Bad_state b -> Printf.sprintf "bad state binding %S" b

(* Strict decimal parser: optional leading '-', digits only. Unlike
   [int_of_string] it rejects '0x'/'0b' prefixes, '_' separators, '+'
   signs and empty strings, so the codec accepts exactly what
   [entry_to_line] can emit. *)
let int_of_string_strict s =
  let n = String.length s in
  let start = if n > 0 && s.[0] = '-' then 1 else 0 in
  if n = start || n - start > 18 then None
  else
    let rec go i acc =
      if i >= n then Some (if start = 1 then -acc else acc)
      else
        match s.[i] with
        | '0' .. '9' -> go (i + 1) ((acc * 10) + (Char.code s.[i] - Char.code '0'))
        | _ -> None
    in
    go start 0

let int_field ~field value k =
  match int_of_string_strict value with
  | Some v -> k v
  | None -> Error (Bad_int { field; value })

let item_field x k =
  if String.length x = 0 || String.exists (fun c -> c = ' ' || c = '=' || c = ',') x then
    Error (Bad_item x)
  else k x

let state_of_string str =
  if String.equal str "" then Ok State.empty
  else
    let rec go acc = function
      | [] -> Ok (State.of_list (List.rev acc))
      | binding :: rest -> (
        match String.index_opt binding '=' with
        | None -> Error (Bad_state binding)
        | Some i ->
          let x = String.sub binding 0 i in
          let v = String.sub binding (i + 1) (String.length binding - i - 1) in
          if String.length x = 0 || String.exists (fun c -> c = ' ' || c = '=') x then
            Error (Bad_state binding)
          else (
            match int_of_string_strict v with
            | None -> Error (Bad_state binding)
            | Some v -> go ((x, v) :: acc) rest))
    in
    go [] (String.split_on_char ',' str)

let entry_of_line line =
  match String.split_on_char ' ' line with
  | [ "begin"; id ] -> int_field ~field:"begin txid" id (fun id -> Ok (Begin id))
  | [ "commit"; id ] -> int_field ~field:"commit txid" id (fun id -> Ok (Commit id))
  | [ "abort"; id ] -> int_field ~field:"abort txid" id (fun id -> Ok (Abort id))
  | [ "read"; id; x; v ] ->
    int_field ~field:"read txid" id @@ fun id ->
    item_field x @@ fun x ->
    int_field ~field:"read value" v @@ fun v -> Ok (Read (id, x, v))
  | [ "write"; id; x; b; a ] ->
    int_field ~field:"write txid" id @@ fun id ->
    item_field x @@ fun x ->
    int_field ~field:"write before-image" b @@ fun b ->
    int_field ~field:"write after-image" a @@ fun a -> Ok (Write (id, x, b, a))
  | [ "checkpoint" ] -> Ok (Checkpoint State.empty)
  | [ "checkpoint"; s ] -> (
    match state_of_string s with Ok st -> Ok (Checkpoint st) | Error e -> Error e)
  | "session" :: sid :: rest ->
    int_field ~field:"session id" sid (fun sid -> Ok (Session (sid, String.concat " " rest)))
  | _ -> Error (Unknown_record line)

(* ---------------------------------------------------------------------- *)
(* On-disk format v2 (read and migrated, never written): header, then   *)
(* one record per line,                                                  *)
(*   <seq> <crc32-hex> <payload>                                         *)
(* with the CRC computed over "<seq> <payload>". Payloads are entry      *)
(* lines, or "barrier <n>" — the checksummed force-barrier record, where *)
(* <n> is the number of entries the force covers. Only entries covered   *)
(* by a valid barrier in the contiguous valid prefix are durable: a      *)
(* force's effects and its barrier harden together, so a torn tail can   *)
(* never surface half a commit group.                                    *)
(* ---------------------------------------------------------------------- *)

let format_header = "repro-wal 2"

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           if Int32.logand !c 1l <> 0l then
             c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
           else c := Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      c :=
        Int32.logxor
          (Int32.shift_right_logical !c 8)
          table.(Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl)))
    s;
  Int32.logxor !c 0xFFFFFFFFl

let record_line ~seq payload =
  Printf.sprintf "%d %08lx %s" seq (crc32 (Printf.sprintf "%d %s" seq payload)) payload

type verdict = Clean | Torn_tail of int | Corrupt of { seq : int; reason : string }

let pp_verdict ppf = function
  | Clean -> Format.pp_print_string ppf "clean"
  | Torn_tail 0 -> Format.pp_print_string ppf "torn tail (no records lost)"
  | Torn_tail n -> Format.fprintf ppf "torn tail (%d record line%s discarded)" n (if n = 1 then "" else "s")
  | Corrupt { seq; reason } -> Format.fprintf ppf "corrupt at record %d: %s" seq reason

type decoded = {
  d_format : int;
  d_entries : entry list;
  d_verdict : verdict;
  d_barriers : int list;
  d_records : int;
  d_dropped : int;
  d_kept_bytes : int;
  d_lost_txids : int list;
  d_lost_entries : int;
}

let empty_decoded =
  {
    d_format = 3;
    d_entries = [];
    d_verdict = Torn_tail 0;
    d_barriers = [];
    d_records = 0;
    d_dropped = 0;
    d_kept_bytes = 0;
    d_lost_txids = [];
    d_lost_entries = 0;
  }

let is_crc_hex s =
  String.length s = 8
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

(* Structural validation of one record line: framing, checksum, then the
   sequence number — in that order, so a record moved out of place (e.g.
   a duplicated sequence number) reports a sequence error rather than a
   checksum one. Returns the payload. *)
let parse_record ~expect line =
  match String.index_opt line ' ' with
  | None -> Error "record framing: missing sequence field"
  | Some sp1 -> (
    let seq_s = String.sub line 0 sp1 in
    let rest = String.sub line (sp1 + 1) (String.length line - sp1 - 1) in
    match String.index_opt rest ' ' with
    | None -> Error "record framing: missing checksum field"
    | Some sp2 -> (
      let crc_s = String.sub rest 0 sp2 in
      let payload = String.sub rest (sp2 + 1) (String.length rest - sp2 - 1) in
      match int_of_string_strict seq_s with
      | None -> Error (Printf.sprintf "record framing: bad sequence %S" seq_s)
      | Some seq ->
        if not (is_crc_hex crc_s) then
          Error (Printf.sprintf "record framing: bad checksum field %S" crc_s)
        else
          let actual = Printf.sprintf "%08lx" (crc32 (Printf.sprintf "%d %s" seq payload)) in
          if not (String.equal actual crc_s) then Error "checksum mismatch"
          else if seq <> expect then
            Error (Printf.sprintf "sequence %d where %d was expected" seq expect)
          else Ok payload))

(* A record whose framing and checksum hold regardless of position. *)
let record_self_valid line =
  match String.index_opt line ' ' with
  | None -> None
  | Some sp1 -> (
    let seq_s = String.sub line 0 sp1 in
    let rest = String.sub line (sp1 + 1) (String.length line - sp1 - 1) in
    match String.index_opt rest ' ' with
    | None -> None
    | Some sp2 -> (
      let crc_s = String.sub rest 0 sp2 in
      let payload = String.sub rest (sp2 + 1) (String.length rest - sp2 - 1) in
      match int_of_string_strict seq_s with
      | None -> None
      | Some seq ->
        if
          is_crc_hex crc_s
          && String.equal crc_s
               (Printf.sprintf "%08lx" (crc32 (Printf.sprintf "%d %s" seq payload)))
        then Some payload
        else None))

let classify_payload payload =
  match String.split_on_char ' ' payload with
  | [ "barrier"; n ] -> (
    match int_of_string_strict n with
    | Some n -> `Barrier n
    | None -> `Bad (Printf.sprintf "bad barrier record %S" payload))
  | _ -> (
    match entry_of_line payload with
    | Ok e -> `Entry e
    | Error pe -> `Bad (string_of_parse_error pe))

let txid_of_entry = function
  | Begin id | Read (id, _, _) | Write (id, _, _, _) | Commit id | Abort id -> Some id
  | Checkpoint _ | Session _ -> None

let is_strict_prefix s full =
  String.length s < String.length full && String.equal s (String.sub full 0 (String.length s))

let decode_v2 raw lines =
  match lines with
  | hd :: records when String.equal hd format_header ->
    let arr = Array.of_list records in
    let n = Array.length arr in
    let rev_entries = ref [] and n_entries = ref 0 in
    let rev_barriers = ref [] in
    let last_barrier = ref (-1) (* index into arr *) and covered = ref 0 in
    let invalid = ref None in
    let i = ref 0 in
    while !invalid = None && !i < n do
      (match parse_record ~expect:!i arr.(!i) with
      | Error reason -> invalid := Some (!i, reason)
      | Ok payload -> (
        match classify_payload payload with
        | `Entry e ->
          rev_entries := e :: !rev_entries;
          incr n_entries
        | `Barrier b ->
          if b = !n_entries then begin
            rev_barriers := b :: !rev_barriers;
            last_barrier := !i;
            covered := b
          end
          else
            invalid :=
              Some (!i, Printf.sprintf "barrier covers %d entries, log holds %d" b !n_entries)
        | `Bad reason -> invalid := Some (!i, reason)));
      if !invalid = None then incr i
    done;
    let kept_records = !last_barrier + 1 in
    let dropped = n - kept_records in
    let verdict =
      match !invalid with
      | None -> if dropped = 0 then Clean else Torn_tail dropped
      | Some (idx, reason) ->
        (* A self-valid record after the damage proves the damage is
           interior (read corruption), not a torn tail — torn writes
           only ever cut the end off. *)
        let interior = ref false in
        for j = idx + 1 to n - 1 do
          if record_self_valid arr.(j) <> None then interior := true
        done;
        if !interior then Corrupt { seq = idx; reason } else Torn_tail dropped
    in
    let entries =
      let rec take k l acc =
        if k = 0 then List.rev acc
        else match l with [] -> List.rev acc | x :: tl -> take (k - 1) tl (x :: acc)
      in
      take !covered (List.rev !rev_entries) []
    in
    let kept_bytes =
      let b = ref (String.length format_header + 1) in
      for j = 0 to kept_records - 1 do
        b := !b + String.length arr.(j) + 1
      done;
      min !b (String.length raw)
    in
    let lost_entries = ref (!n_entries - !covered) in
    (* index just past the contiguous valid prefix: lines there were
       already counted via [n_entries] *)
    let valid_end = match !invalid with Some (idx, _) -> idx | None -> n in
    let lost_txids =
      let ids = Hashtbl.create 8 in
      (* entries parsed validly but beyond the last barrier *)
      let rec drop k l = if k <= 0 then l else match l with [] -> [] | _ :: tl -> drop (k - 1) tl in
      List.iter
        (fun e -> match txid_of_entry e with Some id -> Hashtbl.replace ids id () | None -> ())
        (drop !covered (List.rev !rev_entries));
      (* best-effort parse of the damaged region *)
      for j = kept_records to n - 1 do
        match record_self_valid arr.(j) with
        | Some payload -> (
          match classify_payload payload with
          | `Entry e ->
            if j >= valid_end then incr lost_entries;
            (match txid_of_entry e with Some id -> Hashtbl.replace ids id () | None -> ())
          | `Barrier _ | `Bad _ -> ())
        | None -> ()
      done;
      List.sort compare (Hashtbl.fold (fun id () acc -> id :: acc) ids [])
    in
    Ok
      {
        d_format = 2;
        d_entries = entries;
        d_verdict = verdict;
        d_barriers = List.rev !rev_barriers;
        d_records = kept_records;
        d_dropped = dropped;
        d_kept_bytes = kept_bytes;
        d_lost_txids = lost_txids;
        d_lost_entries = !lost_entries;
      }
  | [ only ] when is_strict_prefix only format_header ->
    (* torn write of the header itself: an empty log *)
    Ok { empty_decoded with d_format = 2; d_verdict = Torn_tail 1; d_dropped = 1 }
  | _ ->
    Error
      (Printf.sprintf "unrecognized log header (want %S or %S)" format_header "repro-wal 3")

(* ---------------------------------------------------------------------- *)
(* On-disk format v3: the same header-line convention ("repro-wal 3"),   *)
(* then length-prefixed binary frames                                     *)
(*   len:u32le | crc:u32le | body                                         *)
(* where body = tag:u8, seq:varint, payload and the CRC-32 (IEEE) covers  *)
(* the body. Integers are zigzag LEB128 varints; strings are varint       *)
(* length + bytes. Tags: 1 begin, 2 read, 3 write, 4 commit, 5 abort,    *)
(* 6 checkpoint, 7 session, 8 barrier (payload = covered entry count).   *)
(* The barrier-coverage durability rule is identical to v2.               *)
(* ---------------------------------------------------------------------- *)

let format_header_v3 = "repro-wal 3"
let header_v3 = format_header_v3 ^ "\n"

(* Frames this large are structurally impossible for our entries; the
   bound keeps a corrupted length field from swallowing the whole image
   as one "frame". *)
let max_frame_body = 1 lsl 26

let add_u32le buf n =
  Buffer.add_char buf (Char.chr (n land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff))

let u32le s pos =
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

let crc32_int s = Int32.to_int (crc32 s) land 0xFFFFFFFF

let add_vint buf n =
  (* zigzag so small negatives stay short; OCaml ints are 63-bit *)
  let rec go z =
    if z land lnot 0x7f = 0 then Buffer.add_char buf (Char.chr (z land 0x7f))
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (z land 0x7f)));
      go (z lsr 7)
    end
  in
  go ((n lsl 1) lxor (n asr 62))

let read_vint s pos limit =
  let rec go pos shift acc count =
    if pos >= limit || count > 9 then None
    else
      let b = Char.code s.[pos] in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then Some ((acc lsr 1) lxor (- (acc land 1)), pos + 1)
      else go (pos + 1) (shift + 7) acc (count + 1)
  in
  go pos 0 0 0

let add_vstr buf s =
  add_vint buf (String.length s);
  Buffer.add_string buf s

let read_vstr s pos limit =
  match read_vint s pos limit with
  | Some (n, pos) when n >= 0 && limit - pos >= n -> Some (String.sub s pos n, pos + n)
  | _ -> None

let entry_tag = function
  | Begin _ -> 1
  | Read _ -> 2
  | Write _ -> 3
  | Commit _ -> 4
  | Abort _ -> 5
  | Checkpoint _ -> 6
  | Session _ -> 7

let tag_barrier = 8

let add_entry_payload buf = function
  | Begin id | Commit id | Abort id -> add_vint buf id
  | Read (id, x, v) ->
    add_vint buf id;
    add_vstr buf x;
    add_vint buf v
  | Write (id, x, b, a) ->
    add_vint buf id;
    add_vstr buf x;
    add_vint buf b;
    add_vint buf a
  | Checkpoint s ->
    let bindings = State.to_list s in
    add_vint buf (List.length bindings);
    List.iter
      (fun (x, v) ->
        add_vstr buf x;
        add_vint buf v)
      bindings
  | Session (sid, note) ->
    add_vint buf sid;
    add_vstr buf note

let frame ~seq kind =
  let body = Buffer.create 32 in
  (match kind with
  | `Entry e ->
    Buffer.add_char body (Char.chr (entry_tag e));
    add_vint body seq;
    add_entry_payload body e
  | `Barrier n ->
    Buffer.add_char body (Char.chr tag_barrier);
    add_vint body seq;
    add_vint body n);
  let body = Buffer.contents body in
  let out = Buffer.create (String.length body + 8) in
  add_u32le out (String.length body);
  add_u32le out (crc32_int body);
  Buffer.add_string out body;
  Buffer.contents out

(* Structural validation of the frame at [pos]: framing and checksum.
   Returns the body and the offset just past the frame. *)
let frame_at raw pos =
  let len = String.length raw in
  if len - pos < 8 then Error "frame cut short"
  else
    let n = u32le raw pos in
    if n < 2 || n > max_frame_body then Error (Printf.sprintf "bad frame length %d" n)
    else if len - pos - 8 < n then Error "frame cut short"
    else
      let body = String.sub raw (pos + 8) n in
      if crc32_int body <> u32le raw (pos + 4) then Error "checksum mismatch"
      else Ok (body, pos + 8 + n)

(* Decode a frame body (tag, seq, payload); the payload must consume the
   body exactly. *)
let decode_body body =
  let limit = String.length body in
  let tag = Char.code body.[0] in
  let bad = Error "bad frame payload" in
  let ( let* ) o k = match o with Some v -> k v | None -> bad in
  match read_vint body 1 limit with
  | None -> Error "bad frame sequence varint"
  | Some (seq, pos) ->
    let finish pos v = if pos = limit then Ok (seq, v) else Error "trailing bytes in frame body" in
    (match tag with
    | 1 | 4 | 5 ->
      let* id, pos = read_vint body pos limit in
      finish pos (`Entry (match tag with 1 -> Begin id | 4 -> Commit id | _ -> Abort id))
    | 2 ->
      let* id, pos = read_vint body pos limit in
      let* x, pos = read_vstr body pos limit in
      let* v, pos = read_vint body pos limit in
      finish pos (`Entry (Read (id, x, v)))
    | 3 ->
      let* id, pos = read_vint body pos limit in
      let* x, pos = read_vstr body pos limit in
      let* b, pos = read_vint body pos limit in
      let* a, pos = read_vint body pos limit in
      finish pos (`Entry (Write (id, x, b, a)))
    | 6 ->
      let* n, pos = read_vint body pos limit in
      if n < 0 || n > limit then bad
      else
        let rec bindings k pos acc =
          if k = 0 then finish pos (`Entry (Checkpoint (State.of_list (List.rev acc))))
          else
            let* x, pos = read_vstr body pos limit in
            let* v, pos = read_vint body pos limit in
            bindings (k - 1) pos ((x, v) :: acc)
        in
        bindings n pos []
    | 7 ->
      let* sid, pos = read_vint body pos limit in
      let* note, pos = read_vstr body pos limit in
      finish pos (`Entry (Session (sid, note)))
    | 8 ->
      let* n, pos = read_vint body pos limit in
      finish pos (`Barrier n)
    | _ -> Error (Printf.sprintf "unknown record tag %d" tag))

let decode_v3 raw =
  let len = String.length raw in
  let hlen = String.length header_v3 in
  let rev_entries = ref [] and n_entries = ref 0 in
  let rev_barriers = ref [] and covered = ref 0 in
  let frames = ref 0 (* contiguous valid frames *) in
  let kept_records = ref 0 (* frames up to and including the last barrier *) in
  let kept_bytes = ref hlen in
  let invalid = ref None in
  let resync_from = ref len in
  let damaged_entry = ref None in
  let pos = ref hlen in
  while !invalid = None && !pos < len do
    match frame_at raw !pos with
    | Error reason ->
      invalid := Some (!frames, reason);
      (* damage starts inside this frame: rescan from the next byte *)
      resync_from := !pos + 1
    | Ok (body, next) -> (
      let fail reason entry =
        invalid := Some (!frames, reason);
        (* the frame itself checksums — damage, if any, is past it *)
        resync_from := next;
        damaged_entry := entry
      in
      match decode_body body with
      | Error reason -> fail reason None
      | Ok (seq, kind) ->
        if seq <> !frames then
          fail
            (Printf.sprintf "sequence %d where %d was expected" seq !frames)
            (match kind with `Entry e -> Some e | `Barrier _ -> None)
        else (
          match kind with
          | `Entry e ->
            rev_entries := e :: !rev_entries;
            incr n_entries;
            incr frames;
            pos := next
          | `Barrier b ->
            if b = !n_entries then begin
              rev_barriers := b :: !rev_barriers;
              covered := b;
              incr frames;
              kept_records := !frames;
              kept_bytes := next;
              pos := next
            end
            else fail (Printf.sprintf "barrier covers %d entries, log holds %d" b !n_entries) None))
  done;
  (* Best-effort resync scan past the damage: frames whose checksum holds
     at a later offset prove the damage is interior (v2's self-valid-line
     rule in byte form) and name the records at risk. *)
  let lost_ids = Hashtbl.create 8 in
  let lost_entries = ref (!n_entries - !covered) in
  let record_lost e =
    incr lost_entries;
    match txid_of_entry e with Some id -> Hashtbl.replace lost_ids id () | None -> ()
  in
  (let rec drop k l = if k <= 0 then l else match l with [] -> [] | _ :: tl -> drop (k - 1) tl in
   List.iter
     (fun e -> match txid_of_entry e with Some id -> Hashtbl.replace lost_ids id () | None -> ())
     (drop !covered (List.rev !rev_entries)));
  (match !damaged_entry with Some e -> record_lost e | None -> ());
  let resynced = ref 0 and interior = ref false in
  (if !invalid <> None then
     let q = ref !resync_from in
     while !q + 8 <= len do
       match frame_at raw !q with
       | Ok (body, next) ->
         interior := true;
         incr resynced;
         (match decode_body body with
         | Ok (_, `Entry e) -> record_lost e
         | Ok (_, `Barrier _) | Error _ -> ());
         q := next
       | Error _ -> incr q
     done);
  let dropped =
    !frames - !kept_records + !resynced + (match !invalid with Some _ -> 1 | None -> 0)
  in
  let verdict =
    match !invalid with
    | None -> if dropped = 0 then Clean else Torn_tail dropped
    | Some (idx, reason) ->
      if !interior then Corrupt { seq = idx; reason } else Torn_tail dropped
  in
  let entries =
    let rec take k l acc =
      if k = 0 then List.rev acc
      else match l with [] -> List.rev acc | x :: tl -> take (k - 1) tl (x :: acc)
    in
    take !covered (List.rev !rev_entries) []
  in
  Ok
    {
      d_format = 3;
      d_entries = entries;
      d_verdict = verdict;
      d_barriers = List.rev !rev_barriers;
      d_records = !kept_records;
      d_dropped = dropped;
      d_kept_bytes = !kept_bytes;
      d_lost_txids = List.sort compare (Hashtbl.fold (fun id () acc -> id :: acc) lost_ids []);
      d_lost_entries = !lost_entries;
    }

let decode raw =
  if String.length (String.trim raw) = 0 then Ok empty_decoded
  else if
    String.length raw >= String.length header_v3
    && String.equal (String.sub raw 0 (String.length header_v3)) header_v3
  then decode_v3 raw
  else if String.equal raw format_header_v3 || is_strict_prefix raw format_header_v3 then
    (* torn write of the v3 header itself: an empty log (a bare
       "repro-wal" prefix is ambiguous between formats; either answer is
       an empty log, so report v3, the format this log writes) *)
    Ok { empty_decoded with d_format = 3; d_verdict = Torn_tail 1; d_dropped = 1 }
  else
    let lines = String.split_on_char '\n' raw in
    (* a final newline leaves one trailing empty element; interior empty
       lines are damage and stay *)
    let lines = match List.rev lines with "" :: rest -> List.rev rest | _ -> lines in
    match lines with [] -> Ok empty_decoded | lines -> decode_v2 raw lines

(* ---------------------------------------------------------------------- *)
(* Durability: forces write through the attached device.                  *)
(* ---------------------------------------------------------------------- *)

(* The durable prefix as an image, oldest first, with each barrier
   framed at the entry count it covers; also the number of frames. *)
let durable_image t =
  let buf = Buffer.create 256 in
  let seq = ref 0 in
  Buffer.add_string buf header_v3;
  let emit kind =
    Buffer.add_string buf (frame ~seq:!seq kind);
    incr seq
  in
  let barriers = ref (List.rev t.rev_barriers) in
  let count = ref 0 in
  let flush_barrier () =
    match !barriers with
    | b :: rest when b = !count ->
      emit (`Barrier b);
      barriers := rest
    | _ -> ()
  in
  flush_barrier ();
  List.iter
    (fun e ->
      emit (`Entry e);
      incr count;
      flush_barrier ())
    (durable_entries t);
  (Buffer.contents buf, !seq)

let image_of ~entries ~barriers =
  let n = List.length entries in
  let t =
    {
      rev_entries = List.rev entries;
      total = n;
      durable = n;
      forces = List.length barriers;
      rev_barriers = List.rev barriers;
      device = None;
      disk_seq = 0;
      group_depth = 0;
      group_pending = 0;
      group_mark = 0;
    }
  in
  fst (durable_image t)

let device_write dev s =
  Block.append dev s;
  Obs.Counter.incr ~by:(String.length s) obs_bytes

let attach t dev =
  t.device <- Some dev;
  let image, seq = durable_image t in
  device_write dev image;
  t.disk_seq <- seq;
  Block.sync dev

let do_force t =
  if t.durable < t.total then begin
    (match t.device with
    | None -> ()
    | Some dev ->
      let tail =
        let rec take k l acc = if k <= 0 then acc else match l with [] -> acc | x :: tl -> take (k - 1) tl (x :: acc) in
        take (t.total - t.durable) t.rev_entries []
      in
      (* buffered: the whole force — tail frames plus barrier — is one
         device write *)
      let buf = Buffer.create 256 in
      List.iter
        (fun e ->
          Buffer.add_string buf (frame ~seq:t.disk_seq (`Entry e));
          t.disk_seq <- t.disk_seq + 1)
        tail;
      Buffer.add_string buf (frame ~seq:t.disk_seq (`Barrier t.total));
      t.disk_seq <- t.disk_seq + 1;
      device_write dev (Buffer.contents buf);
      Block.sync dev);
    t.durable <- t.total;
    t.forces <- t.forces + 1;
    t.rev_barriers <- t.total :: t.rev_barriers;
    Obs.Counter.incr obs_forces
  end

(* ---------------------------------------------------------------------- *)
(* Group commit: an open group defers forces; the outermost [end_group]  *)
(* performs one combined force (one device write + one sync)             *)
(* covering everything the deferred forces covered. The barrier-coverage *)
(* rule keeps the combined group atomic on disk: a torn tail can only    *)
(* drop the whole coalesced group, never part of it.                     *)
(* ---------------------------------------------------------------------- *)

let begin_group t = t.group_depth <- t.group_depth + 1

let end_group t =
  if t.group_depth = 0 then invalid_arg "Wal.end_group: no open group";
  t.group_depth <- t.group_depth - 1;
  if t.group_depth = 0 then begin
    let pending = t.group_pending in
    t.group_pending <- 0;
    t.group_mark <- 0;
    if pending > 0 then begin
      do_force t;
      if pending > 1 then Obs.Counter.incr ~by:(pending - 1) obs_coalesced
    end
  end

let abort_group t =
  if t.group_depth > 0 then begin
    t.group_depth <- t.group_depth - 1;
    if t.group_depth = 0 then begin
      t.group_pending <- 0;
      t.group_mark <- 0
    end
  end

let with_group t f =
  begin_group t;
  match f () with
  | v ->
    end_group t;
    v
  | exception e ->
    abort_group t;
    raise e

let in_group t = t.group_depth > 0

let force t =
  if t.group_depth > 0 then begin
    if t.total > max t.durable t.group_mark then begin
      t.group_pending <- t.group_pending + 1;
      t.group_mark <- t.total
    end
  end
  else do_force t

let crash t =
  t.group_depth <- 0;
  t.group_pending <- 0;
  t.group_mark <- 0;
  let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl in
  t.rev_entries <- drop (t.total - t.durable) t.rev_entries;
  t.total <- t.durable;
  match t.device with None -> () | Some dev -> Block.crash dev

type recovery = { verdict : verdict; lost_durable : int; discarded : int }

let clean_recovery = { verdict = Clean; lost_durable = 0; discarded = 0 }

let reload t =
  t.group_depth <- 0;
  t.group_pending <- 0;
  t.group_mark <- 0;
  match t.device with
  | None -> clean_recovery
  | Some dev ->
    let believed = t.durable in
    let dec =
      match decode (Block.read dev) with
      | Ok dec -> dec
      | Error reason -> { empty_decoded with d_verdict = Corrupt { seq = 0; reason } }
    in
    t.rev_entries <- List.rev dec.d_entries;
    t.total <- List.length dec.d_entries;
    t.durable <- t.total;
    t.rev_barriers <- List.rev dec.d_barriers;
    t.disk_seq <- dec.d_records;
    Block.truncate dev dec.d_kept_bytes;
    (* No header survived (empty medium, torn or unrecognizable header):
       write it again, or every later force appends frames that no
       reload can find. *)
    if dec.d_kept_bytes < String.length header_v3 then begin
      device_write dev header_v3;
      Block.sync dev
    end;
    let lost = max 0 (believed - t.total) in
    (match dec.d_verdict with
    | Corrupt _ -> Obs.Counter.incr obs_corruption
    | Torn_tail n when n > 0 -> Obs.Counter.incr ~by:n obs_torn
    | Torn_tail _ | Clean -> ());
    if lost > 0 then Obs.Counter.incr ~by:lost obs_lost;
    { verdict = dec.d_verdict; lost_durable = lost; discarded = dec.d_dropped }

(* ---------------------------------------------------------------------- *)
(* File persistence (the log's own format).                               *)
(* ---------------------------------------------------------------------- *)

let save t ~path =
  let image, _ = durable_image t in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc image)

let load ~path =
  let raw = In_channel.with_open_bin path In_channel.input_all in
  match decode raw with
  | Ok dec -> Ok (dec.d_entries, dec.d_verdict)
  | Error msg -> Error msg

let pp_entry ppf = function
  | Begin id -> Format.fprintf ppf "BEGIN %d" id
  | Read (id, x, v) -> Format.fprintf ppf "READ %d %a=%d" id Item.pp x v
  | Write (id, x, b, a) -> Format.fprintf ppf "WRITE %d %a:%d->%d" id Item.pp x b a
  | Commit id -> Format.fprintf ppf "COMMIT %d" id
  | Abort id -> Format.fprintf ppf "ABORT %d" id
  | Checkpoint _ -> Format.fprintf ppf "CHECKPOINT"
  | Session (sid, note) -> Format.fprintf ppf "SESSION %d %s" sid note

let entry_equal a b =
  match (a, b) with
  | Checkpoint s, Checkpoint s' -> State.equal s s'
  | Begin i, Begin j | Commit i, Commit j | Abort i, Abort j -> i = j
  | Read (i, x, v), Read (j, y, w) -> i = j && Item.equal x y && v = w
  | Write (i, x, b1, a1), Write (j, y, b2, a2) ->
    i = j && Item.equal x y && b1 = b2 && a1 = a2
  | Session (i, n), Session (j, m) -> i = j && String.equal n m
  | _ -> false
