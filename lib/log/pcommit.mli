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
    range whose segment id is the reserved {!control_seg}. Intent records
    additionally carry the branch's real data ranges; recovery applies those
    only when the transaction's status resolves to committed. *)

val control_seg : int
(** Reserved segment id ([-1]) marking a control range. Never a real
    segment: segment registration rejects negative ids. *)

type decision = Committed | Aborted

type control =
  | Intent of { gid : string; shard : int }
  | Stage of { gid : string; participants : int list }
  | Resolution of { gid : string; decision : decision }

val encode_control : control -> Bytes.t
val decode_control : Bytes.t -> control option

val control_range : control -> Record.range
(** The control payload packaged as a range on {!control_seg}. *)

val is_control : Record.range -> bool

val classify :
  Record.t -> [ `Plain | `Control of control | `Malformed ]
(** [`Plain] for ordinary commit records; [`Control] when a parallel-commit
    flag is set and the control payload parses and agrees with the flag;
    [`Malformed] when a flag is set but the payload is missing, undecodable,
    or contradicts the flag (treated by recovery as missing evidence, i.e.
    toward abort). *)

val decision_to_string : decision -> string
