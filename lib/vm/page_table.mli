(** The per-region page vector of Figure 7.

    "The page vector is loosely analogous to a VM page table: the entry for
    a page contains a dirty bit and an uncommitted reference count"; a
    reserved bit serves as an internal lock during incremental truncation.
    There is no dirty bit: the truncator's page queue records which pages
    still have unapplied log records. Pages are indexed from 0 within the
    region. *)

type t

val create : pages:int -> t
val pages : t -> int

val uncommitted : t -> int -> int
val incr_uncommitted : t -> int -> unit

val decr_uncommitted : t -> int -> unit
(** Raises [Invalid_argument] if the count is already zero — a refcount
    underflow is always an engine bug. *)

val reserved : t -> int -> bool
val reserve : t -> int -> bool
(** Attempt to set the reserved bit; [false] if it was already set. *)

val release : t -> int -> unit

val any_uncommitted : t -> bool
