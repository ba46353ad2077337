(** Log reclamation as a resumable state machine (sections 5.1.2, Figures
    6 and 7).

    One instance owns the incremental-truncation page queue and the one
    epoch/incremental mode dispatch for a single-log engine. A {e run} —
    one epoch truncation or one incremental sweep — is an explicit state
    machine advanced by {!step}: each step performs one bounded unit of
    work (freeze the live window, write one page-sized chunk, sync one
    segment, re-append the live parallel-commit evidence, move the log
    head) and the machine can be suspended between any two steps while new
    commits keep appending to the log tail. Both algorithms are one run
    shape: an epoch writes its frozen plan, an incremental sweep writes
    pages off the queue head, and both then sync, re-append evidence and
    move the head. WAL ordering is re-established per step: a page
    write-out spends its step forcing the tail instead whenever suspended
    commits left unflushed records, an epoch freezes by planning against
    data copied out of the frozen records, and the evidence re-append +
    force precedes every head move. An epoch's freeze restarts the page
    queue; nothing reads the log after the freeze.

    Segment syncs run on the machine's own data-disk
    {!Rvm_util.Clock.lane}, and the head moves only once the clock has
    passed the last one's completion. The engine drives it two ways: the
    pre-refactor synchronous entries ({!maybe_truncate} on the commit
    path, {!truncate_now}, {!sync_epoch}) join that lane and run a whole
    machine to completion in place, and the transaction server's
    scheduler calls {!step} from a background slot on its quantum loop,
    checking {!due} / {!urgent} to pace it. *)

type t

type env = {
  log : Rvm_log.Log_manager.t;
  obs : Rvm_obs.Registry.t;
  clock : Rvm_util.Clock.t;
  model : Rvm_util.Cost_model.t;
  vm : Rvm_vm.Vm_sim.t option;
  live : Statistics.Live.live;
  options : unit -> Options.t;  (** current engine options (mutable). *)
  regions : unit -> Region.t list;  (** currently mapped regions. *)
  segment : int -> Segment.t;
  intent_decision : (string -> [ `Commit | `Abort | `Pending ]) option;
}

val create : env -> t

val hold_resolution : t -> gid:string -> Rvm_log.Record.t -> unit
(** Carry a parallel-commit resolution record the engine has just
    appended: until {!retire_resolution}, every head move first
    re-appends this very record (so each copy keeps the decision's
    timestamp) and forces it together with any pending intents. Once a
    run has applied the gid's intent and reclaimed the staged evidence,
    a live copy of the decision may be the only one another
    participant's recovery can find. Replaces any record held for
    [gid]. *)

val retire_resolution : t -> gid:string -> unit
(** Stop carrying [gid]'s resolution: every participant's own copy is
    durable. *)

val note_logged_ranges :
  t -> log_off:int -> seqno:int -> Rvm_log.Record.range list -> unit
(** The engine calls this for every freshly logged record's data ranges:
    enqueues each covered page for incremental truncation at the earliest
    record referencing it (Figure 7's no-duplicate rule). The truncator
    does the same for the pending intents it re-appends. *)

val active : t -> bool
(** A run is in flight (suspended between steps or executing). The commit
    path's re-entrancy guard: {!maybe_truncate} is a no-op while active —
    the [in_truncation] semantics of the inline implementation. *)

val occupancy : t -> float
(** Log used bytes over capacity. *)

val due : t -> bool
(** A run is in flight, or occupancy has reached the truncation threshold
    — the background driver should spend steps. Ignores
    [auto_truncate]: that flag gates only the inline commit path. *)

val urgent : t -> bool
(** Occupancy at or past [truncation_critical] — background pacing is
    losing; the driver should fall back to a synchronous truncation. *)

val step : t -> [ `Progress | `Blocked | `Idle ]
(** Advance one step: continue the in-flight run, or when idle and over
    the threshold, start one (epoch or incremental per the engine
    options; incremental runs target [threshold / 2], and a blocked run
    chains into an epoch at [truncation_critical] exactly like the
    synchronous fallback). [`Blocked] means the run ended stalled on its
    queue head with the log still over target — stepping again before a
    transaction resolves will just stall again. [`Idle] means there is
    nothing to do now: no run is due, or the run is waiting for its syncs
    to complete (it stays {!due}). *)

val maybe_truncate : t -> unit
(** The inline commit-path trigger: when [auto_truncate] is on, no run is
    active and occupancy is at or past the threshold, run a whole machine
    to completion synchronously (incremental target [threshold / 2], with
    the epoch fallback at [truncation_critical]). *)

val truncate_now : t -> unit
(** Explicit truncation: complete any suspended run, then run a full
    truncation in the configured mode (incremental target 0, same epoch
    fallback) to completion. *)

val sync_epoch : t -> unit
(** Complete any suspended run, then run a full epoch truncation to
    completion regardless of mode — the log-full retry and unmap path. *)
