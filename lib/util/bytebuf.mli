(** Growable byte buffers with little-endian binary encoders, and read
    cursors with the matching decoders.

    All multi-byte integers in the RVM on-disk formats are little-endian.
    Writers append to a {!t}; readers walk a {!Cursor.t} over immutable
    bytes, raising {!Underflow} when a decode runs past the end (which the
    log scanner treats as a torn record). *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val clear : t -> unit

val u8 : t -> int -> unit
(** Append one byte; the value must be in [0, 255]. *)

val u16 : t -> int -> unit
val u32 : t -> int -> unit
(** Append a 32-bit unsigned value; must be in [0, 2^32). *)

val i32 : t -> int32 -> unit
val u64 : t -> int64 -> unit

val int : t -> int -> unit
(** Append an OCaml int as 8 bytes, two's complement: the bytes {!u64}
    writes for [Int64.of_int v], with no [int64] boxed on the way. *)

val uint : t -> int -> unit
(** Append a non-negative OCaml int as 8 bytes. *)

val bytes : t -> Bytes.t -> pos:int -> len:int -> unit
val string : t -> string -> unit
(** Append raw bytes (no length prefix). *)

val lstring : t -> string -> unit
(** Append a 32-bit length prefix followed by the string bytes. *)

val contents : t -> Bytes.t
(** Copy of the accumulated bytes. *)

val blit_into : t -> Bytes.t -> pos:int -> unit
(** Copy the accumulated bytes into [dst] at [pos]. *)

val unsafe_buffer : t -> Bytes.t
(** The raw backing store, for zero-copy reads of [0, length t). The
    reference is invalidated by the next append that grows the buffer;
    never write through it. *)

val blit_range : t -> src_pos:int -> Bytes.t -> dst_pos:int -> len:int -> unit
(** Copy [len] accumulated bytes starting at [src_pos] into [dst]. *)

val checksum : t -> pos:int -> len:int -> Checksum.t
(** Checksum over a range of the accumulated bytes. *)

exception Underflow

module Cursor : sig
  type buf := t
  type t

  val of_bytes : ?pos:int -> ?len:int -> Bytes.t -> t
  val of_buf : buf -> t
  val pos : t -> int
  val remaining : t -> int
  val seek : t -> int -> unit

  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val i32 : t -> int32
  val u64 : t -> int64
  val uint : t -> int

  val bytes : t -> int -> Bytes.t
  val lstring : t -> string
  val skip : t -> int -> unit
end
