(** The commit batcher: ready-to-commit transactions accumulate here so
    one no-flush + flush cycle — one log drain, one device sync through
    the group-commit path — absorbs the whole batch.

    The batch closes after [max] commits, counting the read-only commits
    that took no slot ({!note}): they force nothing, but a saturated
    server never idles, so a batch that counted only writers would keep
    each writer waiting for [max] other writers however much read
    traffic passed in between. The scheduler fires a batch when it
    fills, or as soon as no other request can make progress (partial
    batches never wait on a timer, so an idle server commits a lone
    transaction immediately); a batch holding a writer fires only once
    the force in flight, if any, has completed. With [max = 1] the server degenerates to
    the unbatched configuration: every commit that wrote forces the log
    itself. *)

type 'a t

val create : max:int -> 'a t
val max_size : 'a t -> int

val size : 'a t -> int
(** Entries waiting for the force. *)

val is_empty : 'a t -> bool
(** No commit, slotted or not, since the batch opened. *)

val full : 'a t -> bool
(** [max] commits since the batch opened. *)

val add : 'a t -> 'a -> unit
(** Raises [Invalid_argument] if full — the scheduler must fire first. *)

val note : 'a t -> unit
(** Count a commit that needs no slot toward closing the batch. Raises
    [Invalid_argument] if full. *)

val take : 'a t -> 'a list
(** The batch in ready order (FIFO), leaving the batcher empty and its
    count at zero. *)
