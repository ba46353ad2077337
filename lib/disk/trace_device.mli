(** Trace-recording device wrapper for the crash-point explorer.

    Wraps a {!Device.t} and records the ordered sequence of writes and
    syncs issued through it, while passing every operation straight to the
    underlying device so the workload runs unchanged. Several wrapped
    devices can share one {!recorder}, producing a single global event
    order across devices — a crash is a moment in time, and truncation
    interleaves log and segment I/O, so per-device traces are not enough.

    After the workload has run, {!image} reconstructs the durable contents
    a device would hold if the machine had crashed at any prefix of the
    event sequence, optionally with the straddling write torn after a
    chosen number of bytes. The crash model is the in-order prefix model
    also used by {!Crash_device}: writes reach the platter in issue order,
    so a crash preserves some prefix of the event sequence plus at most a
    torn fragment of the next write. *)

type kind =
  | Write of { off : int; data : Bytes.t }
  | Sync

type event = { dev_id : int; kind : kind }

type recorder
(** A shared, append-only event trace. *)

type t
(** One traced device attached to a recorder. *)

val create_recorder : unit -> recorder

val wrap : recorder -> Device.t -> t
(** Start tracing [inner]. The wrapped device's contents at wrap time are
    snapshotted as the initial durable image, so wrap after formatting. *)

val device : t -> Device.t
(** The pass-through device to hand to the code under test. *)

val dev_id : t -> int

val events : recorder -> event array
(** All recorded events, oldest first. *)

val event_count : recorder -> int

val write_count : recorder -> int
val sync_count : recorder -> int

val image : t -> events:event array -> upto:int -> ?torn:int -> unit -> Bytes.t
(** [image t ~events ~upto ()] is the durable contents of [t]'s device
    after the first [upto] events of the global trace have reached disk.
    With [~torn:keep], event [events.(upto)] — if it is a write to this
    device — is additionally applied truncated to its first [keep] bytes
    (the torn straddling write); a torn event belonging to another device
    is ignored here and applied by that device's [image] instead. *)
