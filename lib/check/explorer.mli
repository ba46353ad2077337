(** Deterministic crash-point explorer for the single-log engine.

    Runs a scripted workload against one log and one segment device on
    the {!Crash} core, which re-crashes it at every recorded write/sync
    boundary and torn variant (DESIGN.md §6). Each recovered region is
    checked against the pure {!Model}: the bytes must equal the state
    after some prefix of the commits at least as long as the last durable
    point before the crash. One run of the workload yields hundreds of
    checked crash scenarios, turning the randomized property of
    [test/test_props.ml] into an exhaustive sweep. *)

type config = {
  region_len : int;  (** bytes of segment 1 mapped by the workload *)
  log_size : int;
  core : Crash.config;  (** sector, torn-variant sampling *)
  truncation_mode : Rvm_core.Types.truncation_mode;
  group_commit : bool;
      (** run the workload with the buffered log tail (the default engine
          configuration) or with per-record write-through *)
  mid_truncation : bool;
      (** disable the inline commit-path truncation trigger so [Step] ops
          leave the background truncator suspended between bounded steps;
          the enumeration then crashes at every truncator step boundary
          (and torn variants of each step's writes) with later commits
          interleaved into the same log *)
}

val default_config : config
(** 512-byte sectors, at most 12 torn variants per write, epoch
    truncation, group commit on. *)

val options :
  truncation_mode:Rvm_core.Types.truncation_mode ->
  group_commit:bool ->
  mid_truncation:bool ->
  Rvm_core.Options.t
(** Engine options an explored run and its recoveries use; shared with
    {!Shard_check}. *)

val run : ?config:config -> Workload.op list -> Crash.outcome
(** Execute the workload, enumerate every crash point, and check each
    recovered image. Counters: ["known durable"] commits. *)

val violates : ?config:config -> Workload.op list -> bool
(** [run] and test for any violation — the predicate the shrinker reruns. *)

val edits : (Workload.op -> Workload.op list list) list
(** {!Shrink} edits for this workload: drop one range of a commit or
    abort, then shrink a range's length (halving, then to 1). *)
