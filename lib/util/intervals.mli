(** Mutable sets of disjoint, coalesced half-open integer intervals [lo, hi).

    Adjacent and overlapping intervals merge automatically — this is the
    data structure behind RVM's intra-transaction optimization (duplicate,
    overlapping and adjacent [set_range] calls coalesce to one log record,
    paper section 5.2) and behind newest-first recovery application (bytes
    already written by a newer record are skipped).

    A set is its intervals as sorted runs in one growable array of 64-bit
    words: lookups are binary searches, an insertion shifts the runs after
    it with one memmove, and no operation allocates except when the array
    grows (or, for {!to_list}, to build its result). Every owner makes its
    own set with {!create}; there is no shared empty value, so two owners
    never alias one set. *)

type t

val create : unit -> t
(** A fresh, empty set. *)

val clear : t -> unit
(** Remove every interval, keeping the storage. *)

val is_empty : t -> bool

val add : t -> lo:int -> len:int -> unit
(** Add [lo, lo+len); coalesces with neighbours. [len = 0] is a no-op. *)

val add_uncovered :
  t -> lo:int -> len:int -> f:(lo:int -> len:int -> unit) -> unit
(** [add_uncovered t ~lo ~len ~f] calls [f] on each sub-interval of
    [lo, lo+len) that is {e not} yet covered, in increasing order, then
    adds the whole interval. This is the primitive behind old-value
    capture: only newly covered bytes need their prior contents saved.
    [f] must not modify [t]. It walks the gaps with {!first_uncovered}
    and {!first_covered}. *)

val first_uncovered : t -> lo:int -> hi:int -> int
(** The least integer of [lo, hi) that no interval covers, or [hi] if
    they cover all of it. With {!first_covered}, a walk over the gaps of
    a range that needs no closure: from [g = first_uncovered], the gap
    runs to [first_covered ~lo:g]. *)

val first_covered : t -> lo:int -> hi:int -> int
(** The least integer of [lo, hi) that an interval covers, or [hi] if
    none does. *)

val covers : t -> lo:int -> len:int -> bool
(** Is every integer in [lo, lo+len) covered? (Empty ranges are covered.) *)

val mem : t -> int -> bool

val subsumes : t -> t -> bool
(** [subsumes a b] iff every interval in [b] is covered by [a]. *)

val inter_nonempty : t -> lo:int -> len:int -> bool
(** Does [lo, lo+len) intersect any interval of the set? *)

val interval_count : t -> int

val lo_at : t -> int -> int
(** [lo_at t i] is the start of the [i]-th interval in increasing order,
    [0 <= i < interval_count t]: with {!len_at}, the allocation-free way
    to walk a set. *)

val len_at : t -> int -> int
(** The length of the [i]-th interval. *)

val iter : t -> f:(lo:int -> len:int -> unit) -> unit

val to_list : t -> (int * int) list
(** Coalesced intervals as [(lo, len)] pairs, increasing order. *)

val byte_count : t -> int
(** Total number of covered integers. *)
