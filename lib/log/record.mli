(** Log record wire format (Figure 5 of the paper).

    A record carries the new values of every modified range of one committed
    transaction (RVM's no-undo/redo strategy writes nothing else). Ranges
    are interleaved with forward and reverse displacement fields so the
    record can be traversed in either direction, and the whole record is
    framed by a header and a trailer that repeats the sequence number and
    total length, so the log as a whole can be read both ways: forward to
    find the tail, backward (newest-first) during recovery and truncation.

    Integrity: a CRC-32 over the entire record body lives in the trailer. A
    crash in the middle of an append leaves a record whose checksum fails;
    the scanner treats it as end-of-log, which is what makes commit atomic
    with respect to crashes. *)

type range = {
  seg : int;  (** segment identifier *)
  off : int;  (** byte offset within the segment *)
  data : Bytes.t;  (** the new value *)
}

type kind =
  | Commit  (** new-value records of one committed transaction *)
  | Wrap  (** filler marking a jump back to the start of the data area *)

type t = {
  kind : kind;
  seqno : int;  (** position in the log's total order; never reused *)
  tid : int;
  timestamp_us : int;
  flags : int;  (** informational: commit/restore modes, see {!Flags} *)
  ranges : range list;
  pad : int;
      (** zero-filled filler before the trailer; wrap records use it to
          stretch exactly to the end of the data area so that backward
          scans always find a trailer at the wrap point *)
}

module Flags : sig
  val no_flush : int
  val no_restore : int

  val intent : int
  (** Parallel-commit intent: the new-value ranges of one cross-shard
      transaction's branch on this shard. Applied at recovery only if the
      transaction's status resolves to committed (see {!Pcommit}). *)

  val stage : int
  (** Parallel-commit staged transaction record: names the participant
      shards. The transaction is implicitly committed once this record and
      every participant's intent are durable. *)

  val resolution : int
  (** Parallel-commit status resolution: records the explicit
      commit-or-abort decision for a transaction id, superseding the
      implicit-commit evaluation. *)

  val has : int -> int -> bool
end

val commit :
  seqno:int -> tid:int -> ?timestamp_us:int -> ?flags:int -> range list -> t

val wrap : seqno:int -> pad:int -> t
(** A wrap marker of total size [wrap_size + pad]. *)

val encoded_size : t -> int
(** Exact on-disk size in bytes. *)

val wrap_size : int
(** Size of a zero-pad wrap record — the minimum space the writer needs at
    the end of the data area to leave an explicit marker. *)

val data_bytes : t -> int
(** Sum of range lengths (the payload the optimizations try to shrink). *)

val encode : ?seqno:int -> t -> Bytes.t
(** Freshly allocated wire image (a thin wrapper over {!encode_into}). *)

val encode_into : seqno:int -> Rvm_util.Bytebuf.t -> t -> unit
(** Append the wire image onto the buffer after whatever it already holds —
    the vectored path the buffered log tail spools through, copying each
    range exactly once with no intermediate per-record [Bytes]. [seqno]
    is the sequence number written in place of [t.seqno]: the log stamps
    it at append without copying the record. *)

val with_unverified : (unit -> 'a) -> 'a
(** Test-only fault injection: run the thunk with {!decode} accepting any
    record whose structure parses, skipping the checksum and trailer
    verification that makes torn appends vanish. This deliberately
    reintroduces the classic recovery bug so the crash-point explorer's
    mutation-detection test can prove it would be caught. The flag is
    restored even if the thunk raises, so a failing test cannot leak
    disabled verification into later suites. Never use outside tests. *)

val decode : Bytes.t -> pos:int -> (t * int) option
(** [decode b ~pos] parses the record starting at [pos], returning it with
    its total length, or [None] if the bytes do not form a valid record
    (bad magic, bad checksum, truncated). *)

val extent : Bytes.t -> pos:int -> avail:int -> int
(** [extent b ~pos ~avail], given that the [avail] bytes from [pos] have
    been read: how many bytes from [pos] {!decode} will look at, as far as
    those bytes tell. A result [<= avail] is final — decoding now gives
    the same answer as decoding with every later byte present ([0] when
    the prefix is already malformed). A larger result is the number of
    bytes to read before asking again. The chunked scan that opens a log
    reads no further than this. *)

val decode_backward : Bytes.t -> end_pos:int -> (t * int) option
(** [decode_backward b ~end_pos] parses the record that {e ends} at
    [end_pos] (exclusive), returning it with its start position. *)
