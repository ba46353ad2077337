(** Deterministic crash-point explorer for the engine, on one shard or
    many.

    Runs a scripted {!Workload} on the {!Crash} core (DESIGN.md §6)
    against the engine the server builds: {!Rvm_core.Rvm} on one shard,
    {!Rvm_shard.Multi} on more, driven through {!Rvm_server.Engine}. Every
    shard has its own log device and segment device, and one recorder
    orders every write and sync across all of them, so crash points are
    boundaries in the {e global} write order: on more than one shard that
    includes the inter-shard boundaries inside a parallel-commit round,
    where only some participants' intents (or the staged record) are
    durable.

    Each crash image set is recovered the way the engine recovers —
    {!Rvm_shard.Multi.reinitialize} runs the cross-shard
    status-resolution pass before any shard replays — and the recovered
    regions are checked against the pure {!Model}: there must exist
    per-shard prefixes, at least as long as the last durable point before
    the crash, and one set of decided cross-shard transactions explaining
    every shard's bytes. One run of a workload yields hundreds of checked
    crash scenarios, turning the randomized property of
    [test/test_props.ml] into an exhaustive sweep. *)

type config = {
  shards : int;
  log_size : int;  (** per shard *)
  core : Crash.config;  (** sector, torn-variant sampling *)
  truncation_mode : Rvm_core.Types.truncation_mode;
  mid_truncation : bool;
      (** disable the inline commit-path truncation trigger so [Step] ops
          leave the background truncators suspended between bounded steps;
          the enumeration then crashes at every truncator step boundary
          (and torn variants of each step's writes) with later commits
          interleaved into the same logs *)
}

val for_shards : int -> config
(** The configuration [rvmutl check --shards N] starts from: a 64 KiB log
    per shard, 512-byte sectors, epoch truncation, and at most 12 torn
    variants per write on one shard, 8 on more (a sharded trace is
    several logs long). *)

val default_config : config
(** [for_shards 1]. *)

val run : ?config:config -> Workload.op list -> Crash.outcome
(** Execute the workload, enumerate every crash point, and check each
    recovered image set. Counters: ["known durable"] commit entries and
    ["cross-shard"] transactions issued; [commits] sums commit entries
    across shards (a cross-shard transaction counts once per
    participant). Raises [Invalid_argument] if [shards < 1]. *)

val violates : ?config:config -> Workload.op list -> bool
(** [run] and test for any violation — the predicate the shrinker reruns. *)

val edits : (Workload.op -> Workload.op list list) list
(** {!Shrink} edits for this workload: drop one range of a single-shard
    commit or abort, then shrink a range's length (halving, then to 1).
    Cross-shard ops are left whole: which shards an op touches is usually
    the essence of a sharded counterexample. *)

(** {2 Sharded crash worlds}

    Shared with {!Elr_check}, whose server world uses the same device
    layout. *)

val seg_of_shard : int -> int
(** Segment id mapped on shard [s]: [s + 1]. *)

val make_routing : int -> Rvm_shard.Routing.t
(** Routing for [shards] shards with segment [seg_of_shard s] on shard [s]. *)

val trace_shards :
  Crash.rig ->
  shards:int ->
  log_size:int ->
  seg_size:(int -> int) ->
  Rvm_disk.Device.t array * (int -> Rvm_disk.Device.t)
(** Make and format a log per shard and a segment per shard
    ([seg_size s] bytes), and trace them, logs first, named as the server
    names them (["log"], ["seg"] on one shard; ["log0"], ["seg1"], ... on
    more): the traced logs and the segment resolver under
    [make_routing shards]. *)

val split :
  int -> Rvm_disk.Device.t array ->
  Rvm_disk.Device.t array * (int -> Rvm_disk.Device.t)
(** [split shards images] is the same logs-and-resolver view of crash
    images, which arrive in the order {!trace_shards} traced them. *)
