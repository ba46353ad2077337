(** Scripted transactional workloads for the crash-point explorer.

    An op list drives one RVM instance over a single mapped region. The
    representation is deliberately first-order — plain offsets, lengths and
    fill characters — so workloads print compactly in counterexamples and
    shrink structurally. *)

type range = int * int * char
(** [(region_off, len, fill)] — write [len] copies of [fill] at
    [region_off]. *)

type op =
  | Commit of { ranges : range list; mode : Rvm_core.Types.commit_mode }
  | Abort of range list
  | Flush
  | Truncate
  | Step of int  (** drive [n] background truncator steps *)

val generate :
  ?mid_truncation:bool ->
  rng:Rvm_util.Rng.t ->
  ops:int ->
  region_len:int ->
  unit ->
  op list
(** Deterministic workload of [ops] operations: mostly commits (both
    modes), some aborts, explicit flushes and truncations. Range lengths
    go up to several hundred bytes so that commit records regularly span
    multiple disk sectors and exercise torn-write enumeration.
    [mid_truncation] trades most [Truncate] ops for short [Step] bursts,
    so truncation runs are left suspended between steps while later
    commits append — the crash explorer then enumerates crash points at
    every truncator step boundary. *)

val op_to_string : op -> string
val to_string : op list -> string
