(** The buffered log tail: an in-memory spool of encoded records.

    The paper's commit cost claim — "one sequential write plus one
    synchronous I/O" (§5.1) — needs the log tail to reach the device as a
    few large sequential transfers, not one [Device.write] per record.
    Appends therefore encode straight into this spool (via
    {!Record.encode_into}); the spool drains to the device as at most two
    sequential writes — one per side of the circular data area's wrap
    point — when the log is forced, when the head moves, or when the
    spool crosses its watermark.

    The spool is geometry-aware but record-agnostic: the log manager does
    all offset arithmetic (wrap markers, padding) and tells the spool
    where its byte stream lands ({!begin_at}) and when it jumps back to
    the start of the data area ({!note_wrap}). At most one wrap can be
    pending: the capacity check in the log manager bounds spooled bytes by
    the data area size. *)

type t

val create : data_start:int -> log_size:int -> t

val is_empty : t -> bool

val bytes : t -> int
(** Spooled bytes not yet written to the device. *)

val buf : t -> Rvm_util.Bytebuf.t
(** The append target. The caller must have called {!begin_at} (when the
    spool is empty) so the spool knows where the bytes land, and must
    append exactly the bytes that belong at consecutive device offsets
    (modulo one {!note_wrap} jump). *)

val begin_at : t -> off:int -> unit
(** Declare that the next appended byte lands at device offset [off].
    Required when the spool is empty; a no-op otherwise. *)

val note_wrap : t -> unit
(** Declare that subsequent bytes land at [data_start]. Bytes between the
    current spool end and [log_size] (the implicit-wrap sliver too small
    for any record) are left unwritten: the reader wraps there without a
    marker. Raises if a wrap is already pending. *)

val overlay : t -> Bytes.t -> unit
(** Blit the spooled spans into a device-sized image at their device
    offsets, so live-window scans observe spooled records without any
    device I/O. *)

val drain : t -> Rvm_disk.Device.t -> int
(** Write the spooled spans to the device — at most two writes, one per
    side of the wrap — and empty the spool. Returns the number of writes
    issued (0 when already empty). *)
