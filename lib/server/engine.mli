(** The scheduler's view of a transaction engine.

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
  name : string;
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
val of_multi : Rvm_shard.Multi.t -> t
