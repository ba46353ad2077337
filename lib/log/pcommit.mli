(** Parallel-commit control payloads (after CockroachDB's parallel commits,
    SNIPPETS.md snippet 3 / [ParallelCommits.tla]).

    A cross-shard transaction writes, in one concurrent round, an {e intent}
    record to every participant shard's log (carrying that shard's new-value
    ranges) plus a {e staged} transaction record to the coordinating shard's
    log naming the participants. The transaction is {e implicitly committed}
    the instant all of those records are durable — no second round before
    acknowledging the client. A recovery-time status-resolution pass
    converts implicit commits to explicit {e resolution} records, or aborts
    orphans whose evidence is incomplete.

    On the wire these are ordinary {!Record.t}s flagged with
    {!Record.Flags.intent} / [stage] / [resolution], carrying one control
    range on a reserved negative segment id that no real segment can
    have. Intent records additionally carry the branch's real data ranges;
    recovery applies those only when the transaction's status resolves to
    committed. This module is the only one that knows the format: every
    control record is built by {!record} and read by {!classify}. *)

type decision = Committed | Aborted

type control =
  | Intent of { gid : string; shard : int }
  | Stage of { gid : string; participants : int list }
  | Resolution of { gid : string; decision : decision }

val record :
  ?tid:int ->
  ?timestamp_us:int ->
  ?flags:int ->
  ?ranges:Record.range list ->
  control ->
  Record.t
(** The commit record for [control]: the control range first, then
    [ranges] (an intent's data, default none), with the control's own
    flag ORed into [flags] (default 0). [tid] defaults to 0 and
    [timestamp_us] to {!Record.commit}'s default. *)

val is_control : Record.range -> bool
(** The range is a control payload, not data. *)

val classify :
  Record.t -> [ `Plain | `Control of control | `Malformed ]
(** [`Plain] for ordinary commit records; [`Control] when a parallel-commit
    flag is set and the control payload parses and its tag's flag is among
    the record's flags; [`Malformed] when a flag is set but the payload is
    missing, undecodable, or names a control the flags do not (treated by
    recovery as missing evidence, i.e. toward abort). *)

val decision_to_string : decision -> string
