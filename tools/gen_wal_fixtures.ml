(* Regenerate the v3 half of the golden WAL fixture corpus under
   test/support/fixtures/.

   Usage: dune exec tools/gen_wal_fixtures.exe -- DIR

   Four deterministic v3 images — {clean, torn-tail, interior, fsynclie}
   — all derived from the same small history (three commit groups: a
   checkpoint, one committed transaction, then a session commit group).
   The four v2-*.wal fixtures hold the same shapes in the legacy text
   format, which nothing writes: they are frozen committed bytes, and
   the "fixture corpus" tests check that they migrate to these images.

   - clean:     the full image, three barriers.
   - torn-tail: the final barrier record cut mid-write (last 3 bytes
                missing) — the shape an interrupted append leaves.
   - interior:  one byte flipped inside the second commit group, with
                intact records after it — read corruption, classified
                Corrupt because valid records resynchronize later.
   - fsynclie:  the image ends exactly at the record boundary before the
                last barrier — the third group's records were written
                but the covering barrier never hardened, the shape an
                acknowledged-then-dropped sync leaves. Every byte is
                valid, yet the group must not surface.

   The loader test (test_db.ml, "fixture corpus" suite) pins the decoded
   verdicts of all eight fixtures; `make wal-compat` scrubs and salvages
   them through the CLI. *)

module Wal = Repro_db.Wal
module State = Repro_txn.State

let entries =
  [
    (* group 1: initial checkpoint *)
    Wal.Checkpoint (State.of_list [ ("a", 10); ("b", 20) ]);
    (* group 2: one committed transaction *)
    Wal.Begin 1;
    Wal.Write (1, "a", 10, 11);
    Wal.Commit 1;
    (* group 3: a session commit group — marker and effects together *)
    Wal.Session (7, "applied 2 2");
    Wal.Begin 2;
    Wal.Write (2, "b", 20, 25);
    Wal.Read (2, "a", 11);
    Wal.Commit 2;
  ]

let barriers = [ 1; 4; 9 ]

let fixture kind =
  let full = Wal.image_of ~entries ~barriers in
  match kind with
  | `Clean -> full
  | `Torn_tail -> String.sub full 0 (String.length full - 3)
  | `Fsynclie ->
    (* identical bytes, minus the final barrier record: image_of with
       the last coverage point omitted is exactly that prefix *)
    Wal.image_of ~entries ~barriers:[ 1; 4 ]
  | `Interior ->
    (* flip a byte inside record 2 (the Begin of group 2); records 0-1
       occupy exactly the bytes of the one-record image below *)
    let prefix =
      Wal.image_of
        ~entries:[ Wal.Checkpoint (State.of_list [ ("a", 10); ("b", 20) ]) ]
        ~barriers:[ 1 ]
    in
    let off = String.length prefix + 9 in
    let b = Bytes.of_string full in
    Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x01));
    Bytes.to_string b

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/support/fixtures" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun (kind, kname) ->
      let path = Filename.concat dir (Printf.sprintf "v3-%s.wal" kname) in
      let image = fixture kind in
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc image);
      Printf.printf "wrote %s (%d bytes)\n" path (String.length image))
    [ (`Clean, "clean"); (`Torn_tail, "torn-tail"); (`Interior, "interior");
      (`Fsynclie, "fsynclie") ]
