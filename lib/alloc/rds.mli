(** Recoverable dynamic storage — the heap allocator layered on RVM
    (section 4.1: "A recoverable memory allocator, also layered on RVM,
    supports heap management of storage within a segment").

    A boundary-tag, address-ordered first-fit allocator whose entire state
    (headers, footers, free list links, statistics) lives in recoverable
    memory. Every mutation happens inside a caller-supplied transaction, so
    an abort rolls the heap back and a crash recovers it to the last
    committed state — allocation is exactly as atomic as the data structure
    updates it serves.

    Block layout: an 8-byte header and an 8-byte footer both hold the block
    size with the low bit as the allocated flag; free blocks keep next/prev
    free-list pointers in their first 16 payload bytes. The minimum block
    is 32 bytes; requests are rounded up to 8-byte multiples.

    Every edit declares the words it writes once, and adjacent words as one
    range: a split leaves the tail free in the block's place on the list,
    a free that coalesces grows the free block before it where it sits, or
    takes the place of the free block after it. So {!alloc} makes at most
    6 [set_range] calls and {!free} at most 5, and the intra-transaction
    optimizer logs no byte that nothing wrote. *)

type t

val init : Rvm_core.Rvm.t -> Rvm_core.Rvm.tid -> base:int -> len:int -> t
(** Format the address range [base, base+len) (within one mapped region) as
    an empty heap, inside the given transaction. [len] must be at least 64
    bytes. *)

val attach : Rvm_core.Rvm.t -> base:int -> t
(** Attach to a previously initialized heap (e.g. after a restart).
    Raises {!Rvm_core.Types.Rvm_error} if no heap signature is present. *)

val alloc : t -> Rvm_core.Rvm.tid -> size:int -> int
(** Allocate [size] bytes from the first free block that fits, in address
    order; returns the payload address. The caller needs no set_range for
    the returned payload until it writes into it. Raises
    {!Rvm_core.Types.Rvm_error} ([Out_of_memory]-style message) when no
    block fits. *)

val free : t -> Rvm_core.Rvm.tid -> int -> unit
(** Free a payload address returned by {!alloc}, coalescing with free
    neighbours. Raises on double-free or foreign addresses. *)

val usable_size : t -> int -> int
(** Payload capacity of an allocated block. *)

val base : t -> int
val heap_len : t -> int
val allocated_bytes : t -> int
(** Total payload bytes currently allocated. *)

val free_bytes : t -> int
val block_count : t -> int
(** Number of blocks (free and allocated). *)

val free_list_length : t -> int
(** Number of blocks on the free list — fragmentation signal under
    allocation churn (first-fit scans grow with it). *)

val check : t -> unit
(** Walk the heap verifying every invariant (header/footer agreement,
    coalescing, free-list consistency, accounting); raises on violation.
    Meant for tests. *)
