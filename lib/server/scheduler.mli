(** The cooperative transaction scheduler — the server's core loop.

    The scheduler knows no workload. A request carries its workload's
    spec (['s]), which the scheduler never inspects, and executes as the
    step list its workload compiles for it ({!step}: lock acquisitions
    interleaved with the work they protect); a request whose plan writes
    runs it under an engine [Restore]-mode transaction. A request runs until it commits, parks
    on a lock ({!Rvm_layers.Lock_mgr.wait_for} returning [`Wait]), or
    loses a deadlock ([`Deadlock] → abort, release all locks, retry
    after seeded jittered exponential backoff). Parked requests wake
    whenever any lock is released; wake order is by request id, so a
    seeded run schedules identically every time.

    Commits route through the {!Batcher}: with [batch_max = 1] each
    commit forces the log itself, inside [end_txn]; otherwise ready
    transactions commit [No_flush] immediately and the closing
    {!Engine.t.flush} fires after [batch_max] commits or as soon as no
    other request can make progress. Each engine commit is wrapped in a
    [req.root] span, so the engine's [txn.commit] spans nest under the
    request that caused them.

    {b Pipelined force}: the batch force runs on the log disk's
    {!Rvm_util.Clock.lane}, which the scheduler owns, and the dispatcher
    goes on executing requests and spooling the next batch while the disk
    works. At most one force is in flight. The first quantum at or after
    its end acknowledges its writers, drops the locks that rode to it and
    re-checks the pending read-only requests, against a durable horizon
    that advances only there. Four rules keep the disk to one force and
    keep backpressure: a full batch waits for the force in flight; on
    idle, a partial batch closes only when no force is in flight; so does
    the idle force that releases parked read-only requests; and the
    background slot starts a truncation burst only when no force is in
    flight. Any other log access issued meanwhile — truncation's forces,
    the emergency truncation, a status-block write — waits for the disk
    in {!Rvm_disk.Sim_device}, which serves one request at a time. The
    [server.batch.flush] span opens on the lane, so its interval is the
    force's disk time.

    {b Read-only commits}: a request whose plan held no [Run] step
    reaches its commit point with no engine transaction, and a
    transaction that declared no range leaves the engine's commit LSN
    where it was — no record spooled. Both commit through one read-only
    branch: the first without calling the engine at all (no [end_txn],
    no [req.root] span). Such a commit stamps no key, takes no batch
    slot and causes no force, in every configuration; its locks and its
    admission slot drop at once and it acknowledges through the snapshot
    reads' dependency check below, once the commits it observed at its
    [Lock] steps are durable. It still counts toward the [batch_max]
    commits that close a batch, so a saturated server, which never
    idles, keeps each writer's wait for its force bounded by [batch_max]
    commits however much read traffic runs beside it.

    {b Early lock release} ([elr], on by default): a batched commit drops
    its locks the moment its record reaches the log spool — redo-only
    logging has no cascading undo, so commit order is fixed there — and
    only the {e acknowledgement} waits for the batch force. A commit that
    wrote more than one shard ({!Engine.t.crosses}) is the exception: a
    crash between its shards' forces aborts it, so its locks ride to the
    batch force, its implicit-commit point. Whenever a
    commit record reaches the spool, every key its request holds is
    stamped with (commit LSN, writer) in the lock manager
    ({!Rvm_layers.Lock_mgr.stamp_held}); a successor acquiring a stamped
    key inherits the stamp as an ack dependency, and {!run} enforces
    that no request finishes while its own commit LSN or any inherited
    dependency sits above the engine's durable horizon. With
    [elr = false] a writer's locks ride until the force, which is the
    contended baseline `bench contention` measures against.

    {b Snapshot reads}: a request whose whole plan is one [Read] step is
    read-only. It never begins an engine transaction or enters the
    wait-for graph: in one quantum it resolves each key through the lock
    manager's commit stamps, takes the max observed LSN as its ack
    dependency, and completes immediately if the durable horizon covers
    it — otherwise it parks in the pending list that drains whenever a
    force completes. Read-only commits wait in the same list; the two differ only
    in the tally they land in.

    Everything advances the simulated clock: every step charges 25 µs of
    CPU, device time comes from the engine's cost model, and idle gaps
    skip to the next arrival or retry deadline via
    {!Rvm_util.Clock.advance_to}.

    The loop also owns a background-task slot: when the engine reports
    truncation due, resumable truncator steps run between scheduling
    decisions until one of them has charged device time or 16 have run
    (CPU rides the clock's background lane), with at least 200 ms of
    simulated time between bursts that charged it and never while a batch
    force is in flight; when the engine reports it urgent the slot falls
    back to one synchronous truncation. Segment
    syncs run on the truncator's own disk lane and charge no pause.
    Pauses land in the [truncation.pause.us] and
    [truncation.steps.per.quantum] histograms.

    Retry backoff (1 ms base, at most 6 doublings, jittered), the step
    charge, the slot's pacing and the 20,000,000-iteration hang guard are
    constants of the implementation; {!config} holds what callers set. *)

exception Stuck of string
(** The loop proved it can make no progress (or exceeded its iteration
    budget): the message carries a full state dump including the wait-for
    graph. Raised rather than hung — the no-hang property test depends on
    it. *)

type config = {
  batch_max : int;  (** commit batch bound; 1 = unbatched *)
  background_truncation : bool;
      (** false disables the background slot entirely (the engine's
          inline commit-path trigger is then expected to reclaim) *)
  elr : bool;
      (** release a single-shard commit's locks at commit-spool time
          (stamped, ack-deferred) instead of at the batch force; no effect
          when [batch_max = 1] *)
}

val default_config : config

type tally = {
  committed : int;
      (** requests committed, read-only ones included (YCSB's reads and
          scans, which begin no engine transaction, count here);
          [Read]-plan requests are not *)
  reads : int;  (** [Read]-plan requests answered *)
  shed : int;
  aborts : int;  (** deadlock aborts (every one is retried) *)
  batches : int;
      (** log forces that made commits durable: one per closed batch
          holding a writer, one per writer when unbatched. Read-only
          commits force nothing and count in none; each force's writer
          count is a [server.batch.size] sample *)
  latencies_us : float array;  (** per committed request, commit order *)
  read_latencies_us : float array;  (** per answered read, ack order *)
  end_us : float;  (** simulated completion time *)
  iterations : int;
}

(** {1 Workload steps}

    The executable form of a request, consumed one step per scheduler
    quantum. Each workload supplies a step function to {!create}: [Lock]
    steps at whatever key granularity the workload chooses (TPC-A locks
    balance records, the YCSB layer B-tree leaf nodes), then the work
    those locks protect, run against the workload's own recoverable state
    with all previously acquired locks held — a [Run] closure for work
    that writes, inside the request's engine transaction, and a [Query]
    closure for work that only reads, outside any transaction. As in RVM,
    only a modification needs a transaction.

    The engine transaction begins at the first step of a plan that holds
    a [Run] step, before the plan's first lock, so transactions begin in
    the order their requests start. A plan with no [Run] step never
    begins one, and at its commit point it takes the read-only branch
    without calling the engine (see {e Read-only commits} above). A
    [`Deadlock] on any [Lock] step aborts the transaction, if one began,
    and re-enters the full step list after backoff, so every workload
    inherits the abort-retry path unchanged. *)

type step =
  | Lock of Rvm_layers.Lock_mgr.mode * string
  | Run of (int -> unit)
      (** [Run f] calls [f engine_tid] in one quantum *)
  | Query of (unit -> unit)
      (** [Query f] calls [f ()] in one quantum, with no engine
          transaction: it may read recoverable memory, and has no tid to
          declare a range with. It costs a step's CPU like any other. *)
  | Read of string list
      (** fold each key's commit stamp into the request's ack
          dependency, taking no lock; a plan that is exactly one [Read]
          is a read-only request *)

(** {1 Requests} *)

type 's gen = id:int -> 's
(** A workload's deterministic request source: applied to the ids
    0, 1, 2, ... in arrival order, it draws each request's spec. *)

type 's request = {
  id : int;  (** arrival order; doubles as the lock-manager owner *)
  spec : 's;  (** the workload's request, opaque to the scheduler *)
  mutable plan : step list;
      (** the steps still to run: compiled when the request starts and
          again after every deadlock abort *)
  mutable tid : int option;
      (** the live engine transaction: begun at the first step of a plan
          that holds a [Run] step, gone at its commit or abort. A plan
          with no [Run] step runs and commits with [None] throughout. *)
  mutable attempts : int;  (** deadlock aborts suffered so far *)
  arrival_us : float;
  mutable commit_lsn : int;
      (** logical commit LSN assigned when this request's commit record
          spooled; 0 until then *)
  mutable dep_lsn : int;
      (** ack dependency: the highest commit LSN this request observed
          through a key's commit stamp (a lock it acquired or a key it
          read) — the ack must wait until the engine's durable horizon
          covers it *)
  mutable dep_writers : int list;
      (** request ids behind [dep_lsn] — the writers whose durability this
          request's ack vouches for (what the crash explorer checks) *)
}

type 's t

val create :
  cfg:config ->
  steps:('s -> step list) ->
  label:('s -> string) ->
  engine:Engine.t ->
  clock:Rvm_util.Clock.t ->
  obs:Rvm_obs.Registry.t ->
  lock_mgr:Rvm_layers.Lock_mgr.t ->
  admission:'s request Admission.t ->
  arrivals:Arrivals.t ->
  gen:'s gen ->
  rng:Rvm_util.Rng.t ->
  's t
(** [steps] compiles a request's spec into its plan; it is called when
    the request starts and again after every deadlock abort, so anything
    a plan must draw only once (TPC-A's audit slot) is drawn inside a
    [Run] closure, and anything one attempt's steps share (a read a
    later write uses) lives in state made with the plan. [label] names a
    spec's kind: the [kind] attribute of its [req.root] span. [rng] is
    the backoff-jitter stream; keep it distinct from the
    request-generator and arrival streams so the three draws never
    interleave nondeterministically. *)

val set_hooks :
  's t ->
  on_spool:('s request -> unit) ->
  on_ack:('s request -> unit) ->
  unit
(** Instrumentation taps for the crash explorer. [on_spool] fires at a
    transaction's commit point: when its commit record reaches the spool
    (logical commit; under ELR a single-shard commit's locks release
    right after), or, for a read-only commit, when its plan runs out with
    no transaction or [end_txn] returns without a record. [on_ack] fires when a request's outcome is released to
    the client — after durability for writes, after the dependency check
    for read-only commits and [Read]-plan requests. Only writers are
    stamped, so a request's [dep_writers] name writers alone. Defaults
    are no-ops. *)

val set_on_quantum : _ t -> (unit -> unit) -> unit
(** Hook fired once at the top of every scheduler quantum — the
    monitoring tick ({!Rvm_obs.Monitor.tick}), so windowed telemetry
    samples server, shards and truncator on the scheduler's own
    timeline. The hook must read the clock, never charge it: observation
    may not perturb the run it observes. Default is a no-op. *)

val run : _ t -> tally
(** Drive the loop until the arrival process is exhausted and every
    request has committed or been shed. Raises {!Stuck} if the loop
    wedges. *)
