(** Crash-point exploration for the recoverable B-tree
    ({!Rvm_pds.Pbtree}).

    Runs on the {!Crash} core (DESIGN.md §6), but judges each recovered
    image structurally instead of byte-wise: the Rds heap and the tree
    are reattached, both full invariant checkers run
    ({!Rvm_alloc.Rds.check}, {!Rvm_pds.Pbtree.check}), and the tree's
    enumerated contents must
    equal some committed snapshot at least as new as the last durable
    point before the crash. The default scripted workload forces splits,
    sibling borrows and merges (minimum degree 2), an aborted structural
    transaction, value replaces, and mid-history truncations, so crash
    points land inside every rebalancing shape the tree has. *)

type config = { core : Crash.config }

val default_config : config
(** 512-byte sectors, at most 12 torn variants per write. *)

val degree : int
(** Minimum degree of the scripted tree: 2, so a few dozen keys reach
    splits, borrows and merges. The tree lives in a 64 KiB heap over a
    256 KiB log with group commit and incremental truncation. *)

type action = Put of string * string | Remove of string

type op =
  | Commit of action list * Rvm_core.Types.commit_mode
  | Abort of action list
  | Flush
  | Truncate

val default_ops : op list

val run : ?config:config -> ?ops:op list -> unit -> Crash.outcome
(** Execute the workload, enumerate every crash point, and check each
    recovered image. An exception escaping recovery or reattachment is
    itself a violation. Counters: ["known durable"] commits, then the
    structural coverage of the recorded run — ["splits"], ["merges"] and
    ["borrows"]. A run where any of the three is zero did not cover the
    structural paths and should be treated as a test configuration error
    by callers. *)

val violates : ?config:config -> op list -> bool
(** [run] and test for any violation — the predicate the shrinker reruns. *)
