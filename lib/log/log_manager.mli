(** The circular write-ahead log.

    One log per process (section 3.3): a status block at offset 0 and a
    circular data area after it. Appends go at the tail; the head advances
    only at truncation. The tail is never stored durably — opening a log
    scans forward from the head, accepting records whose checksums verify
    and whose sequence numbers continue the chain, and stops at the first
    mismatch. A torn final append therefore vanishes, never half-applies.

    The manager knows nothing about transactions or segments; it moves
    validated records. Commit semantics, recovery and truncation live in
    [Rvm_core] on top of {!view} / {!append} / {!move_head}. *)

exception Log_full
(** Raised by {!append} when the record does not fit in the free space.
    The caller is expected to truncate and retry. *)

type t

val format : Rvm_disk.Device.t -> unit
(** Initialize a device as an empty log (writes and syncs the status
    block). Raises [Invalid_argument] if the device is too small. *)

val open_log :
  ?obs:Rvm_obs.Registry.t ->
  ?max_spool_bytes:int ->
  Rvm_disk.Device.t ->
  (t, string) result
(** Open a formatted log, scanning to locate the tail.

    The scan, under a [log.open] span, reads forward from the head in
    {!open_chunk} reads and decodes a record only once every byte it
    claims is in, so it stops where a scan of the whole device would,
    at most one chunk past the tail. A non-empty log keeps what it read
    as the image its {!view}s use without I/O, until the first head
    move. The log's own drains keep it: they write the drained bytes
    into the image too, so records appended after the open cost no read
    either.

    Appends encode into an in-memory spool at the log tail, never
    writing the device per record; the spool reaches the device as at
    most two large sequential writes (one per side of the circular
    area's wrap point) when the log is forced, when the head moves, or
    when spooled bytes exceed [max_spool_bytes] (default 256 KiB). A
    force then costs one drain plus one sync no matter how many records
    accumulated — the group-commit absorption the paper's no-flush
    commits exist to exploit. Records are guaranteed on the device only
    after {!force} (or {!move_head}).

    With [obs], appends publish [log.append.records], the
    [log.append.bytes.hist] size histogram and [log.spool.bytes]; drains
    run under a [log.drain] span and publish [log.spool.drain.writes] and
    the [log.drain.bytes.hist] size histogram; {!force} runs under a
    [log.force] span and counts [log.force.absorbed] (records made durable
    beyond the first per sync); {!move_head} bumps [log.truncations].
    Without it a private registry is created. *)

val open_chunk : int
(** Bytes per device read of the open scan (256 KiB). *)

val status : t -> Status.t

val capacity : t -> int
(** Usable bytes in the circular data area. *)

val used_bytes : t -> int
val free_bytes : t -> int
val is_empty : t -> bool
val head : t -> int
val tail : t -> int
val next_seqno : t -> int

val forced_seqno : t -> int
(** Highest sequence number known durable: every record with
    [seqno <= forced_seqno] survives any crash. Advances at {!force} and
    at {!move_head} (whose status write syncs the drained tail). The gap
    [forced_seqno + 1 .. next_seqno - 1] is the spooled-or-drained but
    unforced window — logically committed, not yet durable. *)

val record_count : t -> int
(** Live records (including wrap markers). *)

val append :
  t ->
  tid:int ->
  ?timestamp_us:int ->
  ?flags:int ->
  Record.range list ->
  int * int
(** Append a commit record, returning its [(offset, sequence number)].
    Does not force. Raises {!Log_full}. *)

val append_record : t -> Record.t -> int
(** Lower-level append of a pre-built record; its [seqno] field is replaced
    with the next sequence number, which is returned. {!last_offset} then
    gives its offset. *)

val last_offset : t -> int
(** Device offset of the record most recently appended. *)

val force : t -> unit
(** Drain the spool and synchronously flush everything appended so far
    (the log force of a flush-mode commit). *)

val spooled_bytes : t -> int
(** Bytes sitting in the tail spool, not yet written to the device. *)

val unflushed : t -> bool
(** Whether any appended record might not yet be durable — spooled bytes
    exist or a drain wrote the device since the last sync. Truncation
    uses this to force the log before applying records to segments,
    preserving write-ahead ordering. *)

type view
(** One read of the live window, spooled records included. Valid until
    the next append, drain or head move. *)

val view : t -> view
(** Read the live window: from the open-time image while the log holds
    it, else from the device. Passes over a view cost no further I/O. *)

val iter_backward : view -> f:(off:int -> Record.t -> unit) -> unit
(** Visit live records newest-first, walking the reverse displacements. *)

val iter_live : t -> f:(off:int -> Record.t -> unit) -> unit
(** Visit live records oldest-first through one {!view}. Wrap markers
    are included. *)

val live_records : t -> (int * Record.t) list
(** Oldest-first [(offset, record)] list. *)

val move_head : t -> new_head:int -> new_head_seqno:int -> unit
(** Advance the head past reclaimed records and durably record it in the
    status block (the final, idempotency-delimiting step of truncation). *)

val reset_empty : t -> unit
(** Declare every live record reclaimed (end of recovery: head := tail). *)
