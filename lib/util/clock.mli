(** Simulated time base for the performance evaluation.

    The paper's measurements were taken on a DECstation 5000/200 with 1993
    disks; we reproduce the evaluation's {e shape} on a simulated clock whose
    time advances are charged from instrumented points in the real engine
    code (see {!Cost_model}). Production use of the library passes {!null},
    which makes every charge a no-op.

    A clock distinguishes three kinds of charge:
    - {e foreground CPU} blocks the caller (wall time and CPU both advance);
    - {e background CPU} is work logically done by other tasks or deferred
      daemons (Camelot's managers, truncation): it accrues in a backlog that
      drains for free while the foreground waits on I/O, and is paid as wall
      time only when the backlog is explicitly drained;
    - {e I/O waits} advance wall time and drain backlog concurrently.

    This is what lets a library structure and an IPC-heavy multi-task
    structure show the same disk-bound throughput while differing ~2x in CPU
    consumed per transaction, exactly the effect in Figures 8 and 9. *)

type t

val null : t
(** Disabled clock: all charges are no-ops, [now_us] is 0. *)

val simulated : unit -> t
(** Fresh simulated clock at time 0. *)

val is_null : t -> bool
val now_us : t -> float

val suspend : t -> (unit -> 'a) -> 'a
(** Run [f] with all charges disabled — for work that is functionally
    necessary in the simulation but whose cost is accounted elsewhere
    (e.g. a demand-paged mapping fills its buffer immediately for
    correctness while the time is charged per page at fault time). *)

val charge_cpu : t -> float -> unit
val charge_background : t -> float -> unit
val charge_io : t -> float -> unit

val background : t -> (unit -> 'a) -> 'a
(** Run [f] as a background task: every {!charge_cpu} inside is rerouted to
    {!charge_background} (accrues in the backlog instead of blocking wall
    time), while I/O waits still advance the wall clock — a daemon doing a
    disk write really does occupy the device. The scheduler wraps each
    background truncation step in this, so truncation CPU is paid from
    otherwise-idle time and only its log-disk traffic shows up as pause
    (its segment syncs run on a {!lane}). *)

val advance_to : t -> float -> unit
(** Idle wait: move wall time forward to an absolute microsecond timestamp
    without charging CPU or I/O. Background backlog drains for free while
    idling, as during an I/O wait. A no-op when the target is in the past
    — the discrete-event loops of the transaction server sleep to the next
    arrival or retry deadline with this. *)

val drain_backlog : t -> unit
(** Pay any remaining background backlog as wall time (end of a run). *)

type lane = float ref
(** A worker lane: the busy-until wall time of one simulated worker core
    or disk. The sharded transaction server models one worker per shard —
    engine work dispatched to a shard runs on its lane, so the lanes
    advance independently and only synchronization points (a cross-shard
    commit round, a global force) make one lane wait for another. *)

val lane : unit -> lane
(** A fresh idle lane (busy-until 0, i.e. free immediately). *)

val on_lane : t -> lane -> (unit -> 'a) -> 'a
(** Run [f] on the lane's worker: it starts at [max now lane] (when the
    worker is free and the dispatch has happened), every charge inside
    advances the lane, and the dispatcher's own wall time is left where it
    was — dispatch is asynchronous. Only wall time overlaps: the CPU and
    I/O totals sum over lanes. On a null clock just runs [f]. *)

val join_lanes : t -> lane list -> unit
(** Block the dispatcher until every lane has drained: wall time moves to
    the latest busy-until, and the lanes are synchronized there. The
    sharded engine's global force and each round of its recovery are one
    dispatch per shard lane followed by a join of all lanes. *)

val cpu_us : t -> float
(** Total CPU charged, foreground + background (the Figure 9 metric). *)

val io_us : t -> float
(** Total I/O wait time charged. *)

val backlog_us : t -> float
val reset_counters : t -> unit
(** Zero the cpu/io accumulators (not the wall time) — used between the
    warm-up and measured phases of an experiment. *)
