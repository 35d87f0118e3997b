(** Write-ahead log.

    The engine logs physical before/after images ahead of applying writes,
    which is exactly the information the paper's protocols consume: undo
    needs before-images, the merging protocol "can be built by parsing the
    log for H_m and the log for H_b only once if read operations are
    recorded in the log" (Section 7.1) — so read records are logged too —
    and the cost model counts log {e forces}.

    The log is in-memory; a force marks a durability point and is the
    unit the Section 7.1 cost model charges I/O for. Optionally the log
    {e persists through a device} ({!Block}, {!attach}): every force
    writes the tail as checksummed records closed by a barrier record and
    syncs, and {!reload} is corruption-detecting recovery — it verifies
    every record, truncates at the first invalid one, and classifies the
    damage ({!verdict}).

    Logs are written in format v3. The reader also accepts the legacy
    text format v2, auto-detected by header, so v2 images can still be
    verified, salvaged and migrated to v3; nothing writes v2 (see
    docs/STORAGE.md for the byte-level specification and the migration
    how-to).

    {2 On-disk format v2 (text, read only)}

    A header line ["repro-wal 2"], then one record per line:

    {v <seq> <crc32-hex> <payload> v}

    [<seq>] numbers records from 0 with no gaps; the CRC-32 (IEEE) is
    computed over ["<seq> <payload>"]. A payload is an entry line
    ({!entry_to_line}) or the force-barrier record ["barrier <n>"] where
    [<n>] is the total number of entries the force covers — a
    self-consistency check on top of the checksum.

    {2 On-disk format v3 (binary, the only one written)}

    The header line ["repro-wal 3\n"], then length-prefixed binary
    frames with no separators:

    {v len:u32le | crc:u32le | body v}

    where [body] is a record-type tag byte (1 begin, 2 read, 3 write,
    4 commit, 5 abort, 6 checkpoint, 7 session, 8 barrier), the record
    sequence number, then the payload; the CRC-32 (IEEE) covers the
    body. Integers are zigzag LEB128 varints and strings are
    varint-length-prefixed bytes, so frames are dense and items can hold
    any byte. Forces are buffered: the whole tail plus its barrier is
    one device write followed by one sync.

    {2 Durability rule (both formats)}

    {e Only entries covered by a valid barrier inside the contiguous
    valid prefix are durable}: a force's records and its barrier harden
    together, so a torn tail can never surface half a commit group (in
    particular, a session commit's effects can never survive without
    their journal marker, or vice versa). Group commit ({!with_group})
    leans on the same rule: a coalesced group shares one barrier, so it
    vanishes whole or survives whole. *)

type entry =
  | Begin of int  (** transaction id *)
  | Read of int * Repro_txn.Item.t * int  (** observed value *)
  | Write of int * Repro_txn.Item.t * int * int  (** before and after images *)
  | Commit of int
  | Abort of int
  | Checkpoint of Repro_txn.State.t
  | Session of int * string
      (** merge-session journal record: session id and a note (no
          newlines); the resumable session protocol ({!Repro_fault})
          appends its commit marker inside the batch it covers, so the
          batch's single force makes marker and effects durable together *)

type t

val create : unit -> t

val append : t -> entry -> unit

(** [force t] marks everything appended so far as durable; with a device
    attached it writes the tail records plus a barrier and syncs, as a
    single buffered write. Inside an open group
    ({!begin_group}) the force is deferred instead — see {e Group
    commit} below. *)
val force : t -> unit

(** [crash t] simulates losing the volatile tail: every entry appended
    after the last force is discarded (including anything deferred by an
    open group), and the attached device (if any) crashes too
    ({!Block.crash}). Follow with {!reload} to recover what the device
    actually kept. *)
val crash : t -> unit

(** Entries appended so far, oldest first. *)
val entries : t -> entry list

(** Entries covered by a force (what an honest crash would leave). *)
val durable_entries : t -> entry list

val force_count : t -> int
val length : t -> int

(** Number of entries covered by a force — the length of
    {!durable_entries}, in constant time. Entry [i] (0-based, in append
    order) is durable iff [i < durable_count t]. *)
val durable_count : t -> int

val pp_entry : Format.formatter -> entry -> unit

(** Structural equality ([Checkpoint] states compared by
    {!Repro_txn.State.equal}). *)
val entry_equal : entry -> entry -> bool

(** {2 Group commit}

    [begin_group]/[end_group] bracket a coalescing region: while a group
    is open, {!force} records a pending durability request instead of
    touching the device, and the outermost [end_group] performs {e one}
    combined force — one device write + one sync — covering
    everything the deferred forces covered. Because the combined force
    writes a single barrier, the coalesced group is atomic on disk: a
    crash either surfaces all of it or none of it, which is exactly a
    state some per-session force schedule could have produced (each
    deferred force behaves as if it had not yet happened). Groups nest;
    only the outermost end flushes. Counts the forces it absorbed in
    [db.group_commit.coalesced]. *)

val begin_group : t -> unit

(** @raise Invalid_argument when no group is open. *)
val end_group : t -> unit

(** [with_group t f] runs [f] inside a group. If [f] raises, the group
    is abandoned without forcing — the deferred durability requests are
    discarded along with the exception's transaction context, never
    half-flushed. *)
val with_group : t -> (unit -> 'a) -> 'a

val in_group : t -> bool

(** {2 Device attachment} *)

(** [attach t dev] makes [t] persist through [dev]: the current durable
    image (header, records, barriers) is written and synced, and every
    subsequent {!force} appends through the device. Attach to a fresh
    device only. *)
val attach : t -> Block.t -> unit

val device : t -> Block.t option

(** The outcome of verifying a log image.

    - [Clean]: every record valid, the image ends at a barrier.
    - [Torn_tail n]: the only damage is after the last valid barrier —
      the shape an interrupted write leaves; [n] records were discarded.
    - [Corrupt]: record [seq] is invalid but self-valid records follow
      it — interior damage (e.g. a silent bit flip), not a torn tail.
      Under v3 the reader proves this by resynchronizing on frame
      checksums at later byte offsets. Nothing after the last valid
      barrier {e before} the damage is surfaced. *)
type verdict = Clean | Torn_tail of int | Corrupt of { seq : int; reason : string }

val pp_verdict : Format.formatter -> verdict -> unit

(** What {!reload} found. [lost_durable] counts entries the log believed
    durable (acknowledged forces) that recovery could not surface — the
    signature of fsync lies and interior corruption; [discarded] counts
    records dropped beyond the recovered prefix. *)
type recovery = { verdict : verdict; lost_durable : int; discarded : int }

(** [reload t] — corruption-detecting recovery from the attached device
    (no device: trivially [Clean]). Reads the device (through its read
    faults), verifies record by record, replaces the in-memory log with
    the longest barrier-covered valid prefix, truncates the device to
    those bytes (rewriting the v3 header when none survived, so later
    forces stay readable), and reports the damage. Counts
    [db.corruption_detected], [db.torn_tail_records] and
    [db.durable_records_lost]. *)
val reload : t -> recovery

(** {2 Line codec (v2 payloads)} *)

(** Entry payloads serialize one per line; item names must not contain
    spaces, ['='] or [','] (all generated names satisfy this; v3 frames
    have no such restriction). *)

val entry_to_line : entry -> string

(** Why a payload failed to parse. Every malformed input maps to a typed
    error; no exception escapes {!entry_of_line}. *)
type parse_error =
  | Unknown_record of string
  | Bad_int of { field : string; value : string }
  | Bad_item of string
  | Bad_state of string

val string_of_parse_error : parse_error -> string
val entry_of_line : string -> (entry, parse_error) result

(** {2 Verified decoding} *)

val format_header : string
(** The v2 header line (no newline). *)

val format_header_v3 : string
(** The v3 header line (no newline). *)

(** [record_line ~seq payload] — one encoded v2 record line (no
    newline); exposed so tests can craft v2 images. *)
val record_line : seq:int -> string -> string

(** [frame ~seq kind] — one encoded v3 binary frame; exposed so tests
    and tools can craft images. *)
val frame : seq:int -> [ `Entry of entry | `Barrier of int ] -> string

(** What {!decode} recovered from a log image. *)
type decoded = {
  d_format : int;  (** 2 or 3, per the image header *)
  d_entries : entry list;  (** the barrier-covered valid prefix *)
  d_verdict : verdict;
  d_barriers : int list;  (** covered entry counts, oldest first *)
  d_records : int;  (** records kept (entries + barriers) *)
  d_dropped : int;  (** records recognizable beyond the recovered prefix *)
  d_kept_bytes : int;  (** bytes of header + kept records *)
  d_lost_txids : int list;
      (** transaction ids recognizable in the dropped region *)
  d_lost_entries : int;
      (** entries recognizable beyond the durable prefix (valid but
          uncovered, plus best-effort parses of the damaged region) *)
}

(** [decode raw] verifies a log image, auto-detecting the format by
    header. [Error] only when the header is unrecognizable (not even a
    torn prefix of either format's) — everything else is an [Ok] with a
    verdict. An empty/whitespace image decodes to an empty [Torn_tail 0]
    log. *)
val decode : string -> (decoded, string) result

(** [image_of ~entries ~barriers] renders a v3 log image from an entry
    list and its barrier coverage points — the migration primitive
    behind [repro_cli wal-migrate]. *)
val image_of : entries:entry list -> barriers:int list -> string

(** {2 File persistence (the log's own format)} *)

(** [save t ~path] writes the durable image to [path] (truncating). *)
val save : t -> path:string -> unit

(** [load ~path] reads and verifies a log file (either format): the
    recovered entries plus the damage verdict.
    @return [Error] only on an unrecognizable header. *)
val load : path:string -> (entry list * verdict, string) result
