(** RVM — recoverable virtual memory (the Figure 4 primitives).

    One [t] per process: a write-ahead log plus an address space of mapped
    regions. Typical use:

    {[
      let rvm =
        Rvm.initialize ~log:log_device ~resolve:segment_of_id ()
      in
      let region = Rvm.map rvm ~seg:1 ~seg_off:0 ~len:(64 * 4096) () in
      let base = region.Rvm_core.Region.vaddr in
      let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
      Rvm.set_range rvm tid ~addr:base ~len:8;
      Rvm.set_i64 rvm ~addr:base 42L;
      Rvm.end_transaction rvm tid ~mode:Types.Flush
    ]}

    Atomicity and the process-failure aspect of permanence are guaranteed;
    serializability, nesting, distribution and media resilience are layers
    above (see [Rvm_layers]) — section 3.1's factoring. *)

type t
type tid = int

(** {1 Initialization, termination and mapping — Figure 4(a)} *)

val create_log : Rvm_disk.Device.t -> unit
(** Format a device as an empty RVM log (Figure 4(d)'s [create_log]). *)

val initialize :
  ?options:Options.t ->
  ?clock:Rvm_util.Clock.t ->
  ?model:Rvm_util.Cost_model.t ->
  ?obs:Rvm_obs.Registry.t ->
  ?vm:Rvm_vm.Vm_sim.t ->
  ?intent_decision:(string -> [ `Commit | `Abort | `Pending ]) ->
  log:Rvm_disk.Device.t ->
  resolve:(int -> Rvm_disk.Device.t) ->
  unit ->
  t
(** {!attach} followed by {!recover}: open the log and run crash
    recovery. Every committed transaction in the log is applied to its
    external data segment (obtained through [resolve]) before this
    returns, so subsequent [map]s read pure committed images.
    [clock]/[model]/[vm] instrument the instance for the
    simulated performance evaluation; omit them for production use. [obs]
    supplies the metrics registry (a private one is created otherwise; see
    {!obs}): engine counters, causal [txn.*] / [commit.*] / [log.*] /
    [truncation.*] / [recovery] spans, and per-layer [disk.log.*] /
    [disk.seg.*] device accounting all land there. On a simulated clock
    the [log.open] span and the [recovery] span (whose [recovery.plan],
    [recovery.apply] and [recovery.reset] children cover it) account for
    all the time this call takes. The registry's span ring doubles as an
    always-on flight recorder: when the caller left it unsized, the engine
    keeps the last 512 spans, and dumps the tail on transaction abort and
    on failed recovery.

    [intent_decision] is the status oracle for parallel-commit intent
    records with no in-log resolution that a truncation finds in the
    window it reclaims (see {!end_transaction_intent} and
    {!Rvm_log.Pcommit}): the shard layer answers [`Pending] for
    transactions mid-protocol in this process, and the truncator
    re-appends those. Recovery never asks: nothing is mid-protocol while
    a log recovers, so an unresolved intent found then is an orphan and
    aborts. Omitted (the single-log engine), every unresolved intent is
    an orphan. *)

val attach :
  ?options:Options.t ->
  ?clock:Rvm_util.Clock.t ->
  ?model:Rvm_util.Cost_model.t ->
  ?obs:Rvm_obs.Registry.t ->
  ?vm:Rvm_vm.Vm_sim.t ->
  ?intent_decision:(string -> [ `Commit | `Abort | `Pending ]) ->
  log:Rvm_disk.Device.t ->
  resolve:(int -> Rvm_disk.Device.t) ->
  unit ->
  t
(** The first half of {!initialize}: open the log under a [log.open] span
    and build the instance, without recovering. The log keeps what its
    open read, so appends and forces through {!log_manager} before
    {!recover} cost recovery no second read. The shard layer attaches
    every shard, appends its status-resolution records, then recovers.
    Raises {!Types.Rvm_error} on an unopenable log. *)

val recover : t -> unit
(** The second half of {!initialize}: apply every committed transaction
    in the log to its segment and empty the log, under a [recovery]
    span. Call it once, after {!attach} and before the first {!map}:
    mapped data must be the committed image. A no-op on an empty log. *)

val reinitialize :
  ?options:Options.t ->
  ?obs:Rvm_obs.Registry.t ->
  ?intent_decision:(string -> [ `Commit | `Abort | `Pending ]) ->
  log:Rvm_disk.Device.t ->
  resolve:(int -> Rvm_disk.Device.t) ->
  unit ->
  t
(** Deterministic {!initialize} for replayed crash images: runs on a fresh
    simulated clock so no code path consults wall-clock time, making
    recovery of the same durable image bit-for-bit reproducible. The
    B-tree crash explorer ({!Rvm_check.Btree_check}) re-initializes
    every reconstructed image through this hook, passing [obs] to collect
    the recovery trace of a counterexample. *)

val terminate : t -> unit
(** Flush spooled commits, force the log, release the instance. Raises if
    transactions are still active. *)

val map : t -> ?vaddr:int -> seg:int -> seg_off:int -> len:int -> unit -> Region.t
(** Map [len] bytes of segment [seg] starting at [seg_off] into the
    process' recoverable address space ([vaddr] chosen automatically when
    omitted). The data is copied in en masse; the mapped image is the
    committed image. Alignment and no-overlap rules of section 4.1 are
    enforced. *)

val unmap : t -> Region.t -> unit
(** Unmap a quiescent region. Spooled commits are flushed and the log
    truncated first, so the segment holds the full committed image and no
    log record references an unmapped page afterwards. *)

(** {1 Transactions — Figure 4(b)} *)

val begin_transaction : t -> mode:Types.restore_mode -> tid

val set_range : t -> tid -> addr:int -> len:int -> unit
(** Declare that [addr, addr+len) (within one mapped region) is about to be
    modified. In [Restore] mode the current contents are saved for abort.
    Duplicate, overlapping and adjacent declarations coalesce (the
    intra-transaction optimization). *)

val modify : t -> tid -> addr:int -> Bytes.t -> unit
(** [set_range] followed by [store] — the common case in one call. *)

val end_transaction : t -> tid -> mode:Types.commit_mode -> unit
(** Commit. [Flush] forces the log before returning; [No_flush] spools the
    record for reduced latency and bounded persistence (flushed on
    {!flush}, on spool overflow, or at {!terminate}). Atomicity is
    guaranteed in both modes. *)

val abort_transaction : t -> tid -> unit
(** Restore every byte declared via [set_range] to its value at
    declaration time. Raises for no-restore transactions. *)

(** {1 Parallel commit — the per-shard half (DESIGN.md section 10)}

    A cross-shard transaction is committed by the shard layer
    ({!Rvm_shard.Multi}) in one concurrent round: an {e intent} on every
    participant shard plus a {e staged} record on the coordinator, all
    forced together, commit implicit once everything is durable, then
    converted to explicit by appending {e resolution} records. These calls
    are the per-shard building blocks; they never force — the caller owns
    the force schedule. *)

val end_transaction_intent : t -> tid -> gid:string -> shard:int -> unit
(** Commit transaction [tid]'s branch on this shard as an intent record for
    cross-shard transaction [gid], through the same commit path as
    {!end_transaction} in [Flush] mode: spooled no-flush records are
    written first, then one record carrying the control payload and the
    branch's new-value ranges. Unlike a local commit, the intent is not
    forced, is written even if the branch modified nothing, and holds the
    branch's page refs under [gid] until {!append_resolution}, blocking
    incremental truncation from discarding the intent's evidence. *)

val append_stage : t -> gid:string -> participants:int list -> unit
(** Write the staged transaction record naming [gid]'s participant shards
    (to the coordinating shard's log). Not forced. *)

val append_resolution :
  t -> gid:string -> decision:Rvm_log.Pcommit.decision -> unit
(** Write the explicit status-resolution record for [gid] and release the
    pages its intent held on this shard. Not forced: the decision is
    recomputable from the surviving intents and staged record. The
    truncator holds the record ({!Truncator.hold_resolution}) and
    re-appends that same record past every head move, since a truncation
    that applies the intent and reclaims the staged record may leave this
    copy as the only durable evidence of the decision any participant's
    recovery can find — until {!retire_resolution}. *)

val retire_resolution : t -> gid:string -> unit
(** Stop carrying [gid]'s resolution across truncations. Call only once
    every participant's own resolution record is durable (the shard layer
    forces all logs and then retires). Idempotent. *)

(** {1 Log control — Figure 4(c)} *)

val flush : t -> unit
(** Write all spooled no-flush commits to the log and force it. *)

val truncate : t -> unit
(** Blocking truncation: complete any suspended background run, then
    reflect committed log records to their segments and reclaim the log
    space. Uses the configured mode (epoch or incremental; incremental
    falls back to epoch when blocked at [truncation_critical]). *)

val truncation_step : t -> [ `Progress | `Blocked | `Idle ]
(** Advance the background truncation state machine ({!Truncator}) by one
    bounded unit of work — freeze the live window, write one page, sync
    one segment, re-append live 2PC resolutions, or move the log head —
    starting a run if occupancy has crossed the threshold. New commits may
    append freely between steps; WAL ordering is re-established per step.
    A segment sync runs on the truncator's own data-disk lane and leaves
    the caller's clock alone. [`Blocked]: the run ended stalled on an
    uncommitted page with the log still over target (stepping again
    before a transaction resolves will stall again). [`Idle]: nothing to
    do now — no run is due, or its syncs are still in flight. The
    transaction server drives this from a background slot on its
    scheduler's quantum loop, with [auto_truncate] turned off so the
    inline commit-path trigger stays quiet. *)

val truncation_due : t -> bool
(** A truncation run is in flight or log occupancy has reached the
    truncation threshold — a background driver should spend steps. *)

val truncation_urgent : t -> bool
(** Log occupancy has reached [truncation_critical]: background pacing is
    losing the race and the driver should fall back to a synchronous
    {!truncate}. *)

val truncation_active : t -> bool
(** A truncation run is suspended mid-flight. *)

val log_occupancy : t -> float
(** Fill fraction of the log's reclaimable window — the gauge the
    truncation thresholds compare against, exported for monitoring. *)

(** {1 Miscellaneous — Figure 4(d)} *)

type query_result = {
  active_tids : tid list;
  mapped_regions : int;
  log_used_bytes : int;
  log_free_bytes : int;
  spool_bytes : int;
  spool_records : int;
}

val query : t -> query_result

val set_options : t -> (Options.t -> Options.t) -> unit
(** Adjust tuning knobs (truncation threshold, spool size, optimization
    switches) on a live instance. *)

val unflushed : t -> bool
(** True when some committed work is not yet durable: records in the
    no-flush spool, bytes in the log's buffered tail, or device writes
    issued since the last sync. A {!flush} on a clean instance is a no-op
    force — the shard layer uses this to skip clean shards in its
    overlapped force rounds. *)

val commit_lsn : t -> int
(** The logical commit counter: incremented once per committed transaction
    at the moment its commit record is spooled (or appended), i.e. at
    logical-commit time, before any force. LSN [n] is the [n]-th commit in
    serialization order; 0 means no commits yet this run. *)

val durable_lsn : t -> int
(** The durable horizon: every commit with LSN [<= durable_lsn] has its
    record forced to the device and survives any crash. Advances lazily by
    comparing each spooled commit's log sequence number against the log's
    forced horizon. The gap [durable_lsn + 1 .. commit_lsn] is the
    logically-committed-but-unacknowledgeable window early lock release
    exposes: locks are free, acks must wait. *)

(** {1 Recoverable memory access}

    Mapped memory is ordinary memory: reads require no RVM intervention
    (section 4.2). These accessors exist because regions live behind
    virtual addresses; they also drive the paging simulator when one is
    attached. Writing without a prior [set_range] is the classic RVM bug
    (section 6) — the write succeeds but will not survive a crash. *)

val read_into : t -> addr:int -> len:int -> Bytes.t -> pos:int -> unit
(** [read_into t ~addr ~len buf ~pos] copies [addr, addr+len) into [buf]
    at [pos]: the one read path. It makes the same page touches as any
    access and allocates nothing, so a caller that reads words or keys
    through a buffer of its own reads recoverable memory for free. Raises
    {!Types.Rvm_error} if the range is unmapped or straddles two regions,
    and [Invalid_argument] if it does not fit in [buf]. *)

val load : t -> addr:int -> len:int -> Bytes.t
(** A fresh copy of [addr, addr+len): {!read_into} a new buffer. *)

val store : t -> addr:int -> Bytes.t -> unit
val store_string : t -> addr:int -> string -> unit
val get_u8 : t -> addr:int -> int
val set_u8 : t -> addr:int -> int -> unit
val get_i32 : t -> addr:int -> int32
val set_i32 : t -> addr:int -> int32 -> unit
val get_i64 : t -> addr:int -> int64
val set_i64 : t -> addr:int -> int64 -> unit

val region_of_addr : t -> addr:int -> Region.t option

(** {1 Introspection} *)

val stats : t -> Statistics.t
(** A read-only snapshot of the engine counters, taken now (the registry
    is the source of truth). *)

val reset_stats : t -> unit
(** Zero every engine counter (measurement-window bookkeeping). *)

val obs : t -> Rvm_obs.Registry.t
(** The instance's metrics registry: engine counters (see {!Statistics}),
    span-backed scopes ([log.force], [commit.no_flush], [truncation.epoch],
    [truncation.incremental.step], [segment.sync], [recovery]) and the
    [disk.log.*] / [disk.seg.*] device-layer accounting. *)

val options : t -> Options.t
val clock : t -> Rvm_util.Clock.t
val log_manager : t -> Rvm_log.Log_manager.t
val segment : t -> int -> Segment.t
(** Resolve (and cache) a segment handle. *)

val active_transactions : t -> int
val regions : t -> Region.t list
