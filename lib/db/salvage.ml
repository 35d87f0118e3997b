type outcome = {
  format_version : int;
  entries : Wal.entry list;
  verdict : Wal.verdict;
  kept_records : int;
  dropped : int;
  lost_txids : int list;
  output : string;
}

let empty_log = function
  | 2 -> Wal.format_header ^ "\n"
  | _ -> Wal.format_header_v3 ^ "\n"

let of_string raw =
  match Wal.decode raw with
  | Ok d ->
    {
      format_version = d.Wal.d_format;
      entries = d.Wal.d_entries;
      verdict = d.Wal.d_verdict;
      kept_records = d.Wal.d_records;
      dropped = d.Wal.d_dropped;
      lost_txids = d.Wal.d_lost_txids;
      output =
        (if d.Wal.d_kept_bytes = 0 then empty_log d.Wal.d_format
         else String.sub raw 0 d.Wal.d_kept_bytes);
    }
  | Error reason ->
    {
      format_version = 3;
      entries = [];
      verdict = Wal.Corrupt { seq = 0; reason };
      kept_records = 0;
      dropped = 0;
      lost_txids = [];
      output = empty_log 3;
    }

let file ~path ~out =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | raw -> (
    let o = of_string raw in
    match Out_channel.with_open_bin out (fun oc -> Out_channel.output_string oc o.output) with
    | () -> Ok o
    | exception Sys_error msg -> Error msg)

let to_json o =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "{\"schema\": \"repro-wal-salvage/1\", ";
  Buffer.add_string buf (Printf.sprintf "\"format_version\": %d, " o.format_version);
  Scrub.json_verdict_fields buf o.verdict;
  Buffer.add_string buf
    (Printf.sprintf
       ", \"recovered_entries\": %d, \"kept_records\": %d, \"dropped\": %d, \"output_bytes\": %d, \
        \"lost_txids\": [%s]}"
       (List.length o.entries) o.kept_records o.dropped (String.length o.output)
       (Scrub.json_int_list o.lost_txids));
  Buffer.contents buf

let pp ppf o =
  Format.fprintf ppf
    "@[<v>format: v%d@ verdict: %a@ recovered: %d entries (%d records)@ dropped: %d record%s%a@]"
    o.format_version Wal.pp_verdict o.verdict (List.length o.entries) o.kept_records o.dropped
    (if o.dropped = 1 then "" else "s")
    (fun ppf -> function
      | [] -> ()
      | ids ->
        Format.fprintf ppf "@ lost txids: %a"
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
             Format.pp_print_int)
          ids)
    o.lost_txids
