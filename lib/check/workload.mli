(** Scripted transactional workloads for the crash-point explorer.

    An op list drives one engine — one log, or one log per shard — over
    one mapped region per shard. The representation is deliberately
    first-order — shard numbers, plain offsets, lengths and fill
    characters — so workloads print compactly in counterexamples and
    shrink structurally. *)

type range = int * int * char
(** [(region_off, len, fill)] — write [len] copies of [fill] at
    [region_off] of a shard's region. *)

type op =
  | Commit of {
      shard : int;
      ranges : range list;
      mode : Rvm_core.Types.commit_mode;
    }  (** a transaction that writes one shard's region *)
  | Cross of {
      parts : (int * range list) list;
          (** participant shard -> ranges in that shard's region; at
              least two distinct shards, ascending *)
      mode : Rvm_core.Types.commit_mode;
    }  (** a cross-shard transaction: one parallel-commit round *)
  | Abort of (int * range list) list
      (** a transaction that writes these shards' regions, then aborts *)
  | Flush  (** force every shard's log *)
  | Truncate
  | Step of int
      (** [n] rounds of one bounded background truncator step (on every
          due shard) *)

val region_len : int
(** Bytes of each shard's mapped region: two 4 KiB pages. *)

val generate :
  ?mid_truncation:bool ->
  rng:Rvm_util.Rng.t ->
  ops:int ->
  shards:int ->
  unit ->
  op list
(** Deterministic workload of [ops] operations.

    On one shard: mostly commits (both modes), some aborts, explicit
    flushes and truncations, with ranges up to several hundred bytes so
    that commit records regularly span several disk sectors and exercise
    torn-write enumeration. On more shards: single-shard commits, flushes,
    truncations and a bias toward cross-shard commits (capped at 6 per
    workload to keep decision-set enumeration cheap), with shorter ranges.

    [mid_truncation] trades most [Truncate] ops for short [Step] bursts,
    so truncation runs are left suspended between steps while later
    commits append — the crash explorer then enumerates crash points at
    every truncator step boundary. *)

val op_to_string : op -> string
(** [Commit@s[...]], [Cross{s:[...]|...}] and [Abort{s:[...]|...}], with a
    trailing [!] for flush mode and [~] for no-flush. *)

val to_string : op list -> string
