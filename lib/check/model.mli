(** Pure in-memory reference model of the recovery contract.

    The model keeps, per shard, the committed transactions that wrote that
    shard's region, in commit order. A cross-shard transaction contributes
    one entry to each participant, all sharing one decision. The contract
    checked against the recovered regions is the paper's
    permanence/atomicity guarantee restated over commit prefixes
    (section 5.1.1):

    - every commit known durable at the crash point is present;
    - no-flush commits may survive or vanish, but only as a {e prefix} of
      each shard's commit order (bounded persistence);
    - no transaction is ever partially present: a cross-shard transaction
      is applied on every participant or on none.

    Equivalently: there exist per-shard prefix lengths, at least the
    durable ones, and one set of decided-committed cross-shard
    transactions, containing every durably decided one, whose state
    equals every recovered region. On one shard this is the single-log
    contract: the recovered bytes equal the state after the first [k]
    commits, for some [k] between the durable count and the total. *)

type t

val create : shards:int -> region_len:int -> t
(** Fresh model of [shards] regions of [region_len] bytes, initially zeroed
    (the image of a freshly created external data segment). *)

val commit : t -> shard:int -> (int * Bytes.t) list -> unit
(** Record a committed single-shard transaction as its region-relative
    writes, applied in list order. *)

val cross : t -> (int * (int * Bytes.t) list) list -> int
(** Record a committed cross-shard transaction as its writes per
    participant shard; returns its id. Ids count up from 0. *)

val entries : t -> int -> int
(** Commit entries recorded on a shard. *)

val crosses : t -> int
(** Cross-shard transactions recorded. *)

type requirement = {
  counts : int array;  (** per shard: entries that must survive *)
  ids : int list;  (** cross-shard transactions that must be committed *)
}

val matches : t -> requirement -> Bytes.t array -> bool
(** Whether some per-shard prefixes and cross-shard decisions meeting the
    requirement explain the recovered regions, one per shard. A decided
    transaction must fall inside the surviving prefix of every
    participant; an undecided one is applied on none. *)

val describe_mismatch : t -> requirement -> Bytes.t array -> string
(** Human-readable account of why nothing matched: per shard, the first
    offset where the recovered region differs from the all-committed
    state. *)
