(** Crash-point explorer for the sharded multi-log engine.

    The single-log {!Explorer} proves that every crash recovers to a
    committed prefix of one log. The sharded engine adds a second failure
    axis: a crash can land {e between} one shard's force and another's in
    the middle of a parallel-commit round, leaving the cross-shard
    transaction's evidence — per-shard intent records plus the staged
    record on the coordinator — partially durable. This explorer runs N
    log and N segment devices on the {!Crash} core (DESIGN.md §6), whose
    single recorder makes crash points boundaries in the {e global}
    write/sync order, so the inter-shard boundaries of the commit round
    are enumerated exhaustively.

    Each reconstructed image set is recovered with
    {!Rvm_shard.Multi.reinitialize} — which runs the cross-shard
    status-resolution pass before any shard replays — and the recovered
    region bytes are checked against a pure per-shard model: there must
    exist per-shard prefix lengths and one global set of decided-committed
    cross transactions explaining every shard's bytes. All-or-none
    application is structural in the check: a decided transaction must
    appear in every participant's surviving prefix, an undecided one in
    none. *)

type range = int * int * char

type op =
  | Local of {
      shard : int;
      ranges : range list;
      mode : Rvm_core.Types.commit_mode;
    }
  | Cross of {
      parts : (int * range list) list;
          (** participant shard -> ranges in that shard's region; at
              least two distinct shards, ascending *)
      mode : Rvm_core.Types.commit_mode;
    }
  | Flush  (** global [Multi.flush]: all shards forced, pendings resolved *)
  | Truncate
  | Step of int
      (** [n] rounds of {!Rvm_shard.Multi.truncation_step} — one bounded
          background step on every due shard's truncator per round *)

type config = {
  shards : int;
  region_len : int;  (** bytes of each shard's mapped region *)
  log_size : int;  (** per shard *)
  core : Crash.config;
  truncation_mode : Rvm_core.Types.truncation_mode;
  group_commit : bool;
  mid_truncation : bool;
      (** disable the inline commit-path trigger so [Step] ops leave
          per-shard truncation runs suspended between bounded steps; the
          global crash enumeration then covers every step boundary of
          every shard's truncator, interleaved with parallel-commit rounds *)
}

val default_config : config
(** Two shards, 512-byte sectors, at most 8 torn variants per write,
    epoch truncation, group commit on. *)

val generate :
  ?mid_truncation:bool ->
  rng:Rvm_util.Rng.t ->
  ops:int ->
  shards:int ->
  region_len:int ->
  unit ->
  op list
(** Random workload biased toward cross-shard commits (capped at 6 per
    workload to keep decision-set enumeration cheap). [mid_truncation]
    trades most [Truncate] ops for short [Step] bursts. *)

val to_string : op list -> string
val op_to_string : op -> string

val seg_of_shard : int -> int
(** Segment id mapped on shard [s] by the explorers: [s + 1]. *)

val make_routing : int -> Rvm_shard.Routing.t
(** Routing for [shards] shards with segment [seg_of_shard s] on shard [s]. *)

val trace_shards :
  Crash.rig ->
  shards:int ->
  log_size:int ->
  seg_size:(int -> int) ->
  Rvm_disk.Device.t array * (int -> Rvm_disk.Device.t)
(** Make and format a log per shard and a segment per shard
    ([seg_size s] bytes), and trace them, logs first: the traced logs and
    the segment resolver to hand {!Rvm_shard.Multi} under
    [make_routing shards]. *)

val split :
  int -> Rvm_disk.Device.t array ->
  Rvm_disk.Device.t array * (int -> Rvm_disk.Device.t)
(** [split shards images] is the same logs-and-resolver view of crash
    images, which arrive in the order {!trace_shards} traced them. *)

val run : ?config:config -> op list -> Crash.outcome
(** Explore every crash point of the workload. Counters: ["cross-shard"]
    transactions issued; [commits] sums commit entries across shards. *)

val violates : ?config:config -> op list -> bool
(** [run] and test for any violation. Shrink with {!Shrink.minimize} and
    no edits: which shards an op touches is usually the essence of a
    sharded counterexample, so range surgery rarely helps and often
    un-reproduces. *)
