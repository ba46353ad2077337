(** O(1) least-recently-used ordering over integer keys (page numbers).
    Touching a present key allocates nothing. *)

type t

val create : unit -> t
val mem : t -> int -> bool
val size : t -> int

val touch : t -> int -> unit
(** Insert the key or move it to most-recently-used position. *)

val remove : t -> int -> unit
(** No-op if absent. *)

val evict_lru : t -> int option
(** Remove and return the least recently used key. *)

val peek_lru : t -> int option
val to_list_mru_first : t -> int list
