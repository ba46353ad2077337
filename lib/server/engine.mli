(** The scheduler's view of a transaction engine, and the one opener of
    a server world's engine.

    The server loop is engine-agnostic: it runs the same step lists over
    the single-log engine ({!Rvm_core.Rvm}) or the sharded multi-log
    engine ({!Rvm_shard.Multi}), whose transaction interfaces coincide —
    a [gtid] is an [int] like a [tid], a cross-shard commit is still one
    [end_txn]. [flush] is the batch-closing force: one log force on the
    single engine, one overlapped round of per-shard forces (plus
    resolution of the cross-shard commits it made durable) on the sharded
    one. [log_occupancy] feeds the monitor's gauge; the sharded engine
    reports the fullest shard. [commit_lsn] / [durable_lsn] expose the
    engine's logical-commit counter and durable horizon — the gap between
    them is the early-lock-release window: locks released, acks pending.

    The truncation quartet is the scheduler's background-task slot:
    [truncation_step] advances the engine's resumable truncation state
    machine by one bounded unit of work (per due shard, on its lane, for
    the sharded engine), [truncation_due] / [truncation_urgent] are its
    pacing and emergency triggers, and [truncate] is the synchronous
    fallback when occupancy reaches [truncation_critical]. *)

type t = {
  begin_txn : mode:Rvm_core.Types.restore_mode -> int;
  set_range : int -> addr:int -> len:int -> unit;
  load : addr:int -> len:int -> Bytes.t;
  store : addr:int -> Bytes.t -> unit;
  crosses : int -> bool;
      (** whether the live transaction has written more than one shard, so
          that its commit is a parallel-commit round; always [false] on
          the single-log engine *)
  end_txn : int -> mode:Rvm_core.Types.commit_mode -> unit;
  abort : int -> unit;
  flush : unit -> unit;
  commit_lsn : unit -> int;
  durable_lsn : unit -> int;
  log_occupancy : unit -> float;
  truncation_step : unit -> [ `Progress | `Blocked | `Idle ];
  truncation_due : unit -> bool;
  truncation_urgent : unit -> bool;
  truncate : unit -> unit;
  shards : int;  (** 1 for the single-log engine *)
}

val of_rvm : Rvm_core.Rvm.t -> t
(** For a world that opens {!Rvm_core.Rvm} itself, as YCSB's does. *)

type backend = Single of Rvm_core.Rvm.t | Sharded of Rvm_shard.Multi.t

val initialize :
  ?options:Rvm_core.Options.t ->
  ?clock:Rvm_util.Clock.t ->
  ?obs:Rvm_obs.Registry.t ->
  logs:Rvm_disk.Device.t array ->
  segs:Rvm_disk.Device.t array ->
  unit ->
  t * backend
(** Open and recover the engine a server world runs on one formatted log
    and one data segment per shard ([logs.(s)] and [segs.(s)] for shard
    [s]): {!Rvm_core.Rvm} on one shard, {!Rvm_shard.Multi} on more.
    Shard [s]'s data is segment [s + 1], routed to shard [s]; this is the
    one place that rule is written. {!Server.open_world} and the engine
    crash explorer open their engine here. Raises [Invalid_argument]
    unless there are as many segments as logs. *)

val map :
  backend -> ?vaddr:int -> shard:int -> seg_off:int -> len:int -> unit ->
  Rvm_core.Region.t
(** Map [len] bytes of shard [shard]'s segment from [seg_off]. *)
