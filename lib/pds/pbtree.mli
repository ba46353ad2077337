(** Recoverable ordered map — a B+-tree whose nodes, keys, and values all
    live in an {!Rvm_alloc.Rds} heap, so every structural mutation (split,
    merge, borrow) is exactly as atomic as the transaction it runs in: an
    abort rolls the tree back and a crash recovers it to the last committed
    shape.

    Keys and values are arbitrary strings ordered by [String.compare].
    Leaves hold the entries and are threaded into a next-leaf chain for
    ordered scans; internal nodes hold separator copies. A key of up to 15
    bytes sits inline in its node's 16-byte key slot, so a descent reads
    no cell but the value; a longer key spills into an overflow cell that
    its slot alone owns. Each write declares each change once, as exactly
    the bytes it writes: a value rewritten in its cell, a fresh cell, a
    fresh node's header, and a run of key or pointer slots that moves are
    one [set_range] each, never a whole node. A value cell's length word
    always fits its block.

    Aborting a mutation needs the transaction to have begun in
    [Restore] mode, which saves the old bytes at each [set_range]: a value
    rewritten in place gets its old bytes back from there.

    Reads ([get]/[range]/[scan]/[scan_views]/[iter]/[fold]/[check]) need no
    transaction.
    Mutations take the caller's [tid]; callers serialize access per tree
    (the server layer locks at leaf-node granularity). *)

type t

type stats = { mutable splits : int; mutable merges : int; mutable borrows : int }
(** Structural-operation counters for this handle (in-memory, reset at
    [create]/[attach]) — crash-explorer coverage evidence. *)

val create :
  Rvm_core.Rvm.t -> Rvm_alloc.Rds.t -> Rvm_core.Rvm.tid -> degree:int -> t
(** Allocate an empty tree in the heap, inside the given transaction.
    [degree] is the B-tree minimum degree [d >= 2]: nodes hold at most
    [2d-1] keys and non-root nodes at least [d-1]. *)

val attach : Rvm_core.Rvm.t -> Rvm_alloc.Rds.t -> addr:int -> t
(** Attach to a tree created earlier at [addr] (e.g. after a restart).
    Raises {!Rvm_core.Types.Rvm_error} if no tree signature is present. *)

val address : t -> int
(** Stable heap address of the tree header; pass to {!attach} after a
    restart. *)

val degree : t -> int
val length : t -> int

val get : t -> key:string -> string option
val mem : t -> key:string -> bool

val put : t -> Rvm_core.Rvm.tid -> key:string -> value:string -> unit
(** Insert or replace. A replacement splits nothing, so {!leaf_addr}
    stays put. A new value that fits the old one's cell is rewritten there
    under one [set_range], and the value's address stays put too; one that
    outgrows its cell moves to a new cell, allocated before the old one is
    freed. *)

val load : t -> count:int -> (int -> string * string) -> unit
(** [load t ~count entry] fills an empty tree bottom-up with the entries
    [entry 0], ..., [entry (count - 1)], whose keys must strictly ascend.
    Leaves are packed to [2d-1] entries: the first fills the empty root
    leaf, and each later one is allocated just before its value cells. At
    every level the last two nodes share their entries so that both hold
    the minimum.

    The load runs in its own [No_restore] transactions, each committed
    [No_flush] once it has written about 2 000 entries; call
    {!Rvm_core.Rvm.flush} to make it durable. The last commit sets the
    root, so a crash before it recovers the tree as it was; the blocks
    that the interrupted load allocated stay allocated and unreachable.
    If [entry] raises, or a key does not ascend, the load commits what it
    wrote and re-raises, with the same outcome: the tree is unchanged and
    those blocks leak. Raises {!Rvm_core.Types.Rvm_error} if the tree is
    not empty. *)

val remove : t -> Rvm_core.Rvm.tid -> key:string -> bool
(** Delete [key]; returns whether it was present. Rebalances on the way
    down (borrow from a sibling, else merge), collapsing the root when it
    empties. *)

val range :
  t -> ?lo:string -> ?hi:string -> f:(key:string -> value:string -> unit) ->
  unit -> unit
(** Ordered scan over keys in [[lo, hi)] ([lo] inclusive, [hi] exclusive;
    each side unbounded when omitted), walking the leaf chain. *)

val scan : t -> ?lo:string -> n:int -> unit -> (string * string) list
(** First [n] entries with key [>= lo] (from the smallest key when [lo] is
    omitted), in order — the YCSB scan shape. *)

val scan_views :
  t -> ?lo:string -> n:int ->
  f:(key:Bytes.t -> klen:int -> value:Bytes.t -> vlen:int -> bool) -> unit ->
  unit
(** The walk {!scan}, {!range}, {!iter} and {!fold} share, with nothing
    copied: the first [n] entries with key [>= lo] are read in order into
    scratch that the handle owns, and [f] sees each one as its key's first
    [klen] bytes of [key] and its value's first [vlen] bytes of [value],
    until it returns false. The views are valid only until [f] returns:
    the next entry, and any walk of the same handle, reads over them. *)

val iter : t -> f:(key:string -> value:string -> unit) -> unit
val fold : t -> init:'a -> f:('a -> key:string -> value:string -> 'a) -> 'a

val leaf_addr : t -> key:string -> int
(** Heap address of the leaf node that holds (or would hold) [key] — the
    server's lock-granularity unit. Stable across updates of resident keys
    ({!put} on a present key never splits); invalidated by splits/merges,
    which is why workloads that insert lock conservatively. *)

val check : t -> unit
(** Walk the whole tree verifying structural invariants: magic, node kinds,
    occupancy bounds, key-slot encoding (every overflow cell a live heap
    block owned by one slot), value cells (each a live heap block owned by
    one slot, its length word fitting the block), separator bounds ([lo <= key < hi] per
    subtree), strict in-node key order, uniform leaf depth, key count, and
    that the next-leaf chain threads the leaves exactly in key order. Raises
    {!Rvm_core.Types.Rvm_error} on any violation. *)

val stats : t -> stats
