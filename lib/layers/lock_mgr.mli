(** A two-phase-locking lock manager — the serializability layer of
    Figure 2.

    RVM deliberately factors concurrency control out (section 3.1): "If
    serializability is required, a layer above RVM has to enforce it. That
    layer is also responsible for coping with deadlocks, starvation and
    other unpleasant concurrency control problems." This module is such a
    layer: named resources, shared/update/exclusive modes, reentrant
    holds, upgrades, and wait-for-graph deadlock detection for callers
    that queue.

    [Update] is the mode of a reader that will write: it is compatible
    with [Shared] holders and with nothing else. A read-modify-write that
    takes its key in [Update] reads beside any number of readers, and its
    upgrade to [Exclusive] waits for those readers to leave. Two updaters
    of one key queue at the [Update] request, where the second simply
    waits, instead of both holding [Shared] and deadlocking when each
    upgrades.

    Locks are volatile by design — after a crash, RVM recovery restores
    committed state and no transaction survives to hold anything. *)

type t

type mode = Shared | Update | Exclusive

val create : unit -> t

val try_acquire : t -> owner:int -> key:string -> mode -> [ `Granted | `Conflict of int list ]
(** Attempt to lock [key]. Re-acquisition by a holder is granted, in the
    stronger of the held and requested modes; a holder may upgrade once
    the new mode is compatible with every other holder. On conflict, the
    blocking owners are returned. *)

val wait_for :
  t -> owner:int -> key:string -> mode -> [ `Granted | `Wait of int list | `Deadlock ]
(** Like {!try_acquire}, but on conflict records a wait-for edge first:
    [`Deadlock] if that edge closes a cycle (the caller should abort one
    transaction), [`Wait blockers] otherwise (the caller retries after the
    blockers release — no real blocking, the engine is single-threaded). *)

val release_all : t -> owner:int -> unit
(** Drop every lock and wait edge of [owner] — both directions: edges the
    owner recorded and edges other waiters hold toward it — the phase-two
    release at commit or abort. Costs O(keys [owner] holds + owners
    currently waiting), however many keys the table has ever seen. *)

val stamp_held : t -> owner:int -> int * int -> unit
(** [stamp_held t ~owner (lsn, writer)] stamps every key [owner] holds
    with its commit: called when the commit record reaches the spool,
    before the locks drop (then under early release, or at the force).
    Later owners of those keys inherit the stamp ({!stamp}) as an
    acknowledgement dependency — they must not ack before LSN [lsn] is
    durable — and lock-free readers resolve keys through it. Costs
    O(keys [owner] holds). *)

val stamp : t -> key:string -> (int * int) option
(** The [(commit_lsn, writer)] stamp of the last committed holder of
    [key], if any holder was ever stamped with {!stamp_held}. *)

val wait_edges : t -> (int * int list) list
(** The wait-for graph as sorted [(waiter, blockers)] pairs — for
    scheduler introspection and tests. Empty blocker lists never appear. *)

val holders : t -> key:string -> (int * mode) list
val held_keys : t -> owner:int -> string list
val lock_count : t -> int
