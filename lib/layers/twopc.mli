(** Distributed transactions layered on RVM (section 8).

    "Support for distributed transactions could also be provided by a
    library built on RVM. Such a library would provide coordinator and
    subordinate routines for each phase of a two-phase commit ... On a
    global abort, the library at each subordinate could use the saved
    records to construct a compensating RVM transaction."

    Each site is an RVM instance. A subordinate runs the distributed
    transaction's local work as an ordinary RVM transaction; at {e prepare}
    it captures the old values of every declared range (the extension the
    paper proposes for [end_transaction]) and commits locally with a flush.
    The coordinator durably records its commit/abort decision in its own
    recoverable memory before announcing it, so a restarted coordinator can
    answer in-doubt subordinates. A global abort triggers a compensating
    RVM transaction at each prepared subordinate.

    The transport is a pair of upcalls supplied by the application, as the
    paper suggests ("the communication mechanism could be left unspecified
    until runtime by using upcalls"), so the same library runs over any
    messaging layer; tests inject vote and delivery failures. *)

type gid = string
(** Global transaction identifier. *)

(** {1 Subordinate} *)

type sub

val sub_create : name:string -> Rvm_core.Rvm.t -> sub
val sub_name : sub -> string

val sub_reset : ?rvm:Rvm_core.Rvm.t -> sub -> unit
(** Recovery hygiene: rebind the subordinate to a freshly recovered engine
    (when [rvm] is given) and drop every volatile branch — tids and
    compensation data of the previous incarnation are dead after recovery.
    Required before reusing a subordinate across a second recovery in one
    process; skipping it leaks ghost branches ("branch already active",
    phantom {!sub_in_doubt} entries). *)

val sub_begin : sub -> gid -> unit
(** Start the local branch of [gid]. One active branch per gid per site. *)

val sub_modify : sub -> gid -> addr:int -> Bytes.t -> unit
(** Declare-and-write within the branch. *)

val sub_prepare : sub -> gid -> [ `Prepared | `Refused ]
(** First phase: capture compensation data and commit the local branch with
    full permanence. After [`Prepared] the site can still undo the branch
    via {!sub_abort}. [`Refused] aborts the branch locally. *)

val sub_commit : sub -> gid -> unit
(** Second phase, global commit: discard compensation data. *)

val sub_abort : sub -> gid -> unit
(** Second phase, global abort: run the compensating transaction restoring
    every byte the branch modified, then discard. Valid both before and
    after prepare. *)

val sub_in_doubt : sub -> gid list
(** Prepared branches awaiting a decision. *)

(** {1 Coordinator} *)

type coordinator

type decision = Committed | Aborted

val coordinator_create :
  Rvm_core.Rvm.t -> decision_region:Rvm_core.Region.t -> coordinator
(** The coordinator persists decisions in [decision_region] (a small
    mapped region it owns exclusively). *)

val coordinator_reset :
  coordinator -> Rvm_core.Rvm.t -> decision_region:Rvm_core.Region.t -> unit
(** Rebind a coordinator to the recovered engine and its re-mapped decision
    region. The durable decisions survive recovery (they live in
    recoverable memory); only the in-process handles are refreshed. *)

val run :
  coordinator ->
  gid ->
  participants:sub list ->
  work:(sub -> unit) ->
  ?fail_vote:(string -> bool) ->
  unit ->
  decision
(** Execute one distributed transaction: begin a branch at every
    participant, run [work] on each, collect votes ([fail_vote] forces a
    site to refuse — failure injection for tests), persist the decision,
    then commit or abort every branch. *)

val lookup_decision : coordinator -> gid -> decision option
(** Durable decision lookup — what an in-doubt subordinate asks after a
    coordinator restart. *)

(** {1 Parallel commit}

    The one-round variant used by the sharded engine (after CockroachDB's
    parallel commits, [ParallelCommits.tla]): all participants' intent
    records plus a staged transaction record are written concurrently;
    the transaction is {e implicitly committed} the moment everything is
    durable, and a status-resolution pass later converts that to explicit
    resolution records — or aborts an orphan whose evidence is incomplete.
    This module is the pure protocol core: the durable-evidence judgment
    ({!Parallel.resolve}) and the legal-transition state machine
    ({!Parallel.step}); {!Rvm_shard.Multi} drives the I/O around it. *)

module Parallel : sig
  (** What a status-resolution pass found in the logs for one gid. *)
  type evidence = {
    staged : int list option;
        (** participant shard ids from the staged record, if it survived *)
    intents : int list;  (** shards whose intent records survived *)
    resolutions : Rvm_log.Pcommit.decision list;
        (** explicit resolutions found in any participant's log *)
  }

  val no_evidence : evidence

  val resolve : evidence -> Rvm_log.Pcommit.decision
  (** Explicit resolutions win (contradiction is an error — they are only
      written after the decision is fixed); otherwise committed iff the
      staged record survived and names only shards whose intents survived;
      otherwise orphan-abort. Maps to [ParallelCommits.tla]'s recovery
      action: a corrupt or missing intent makes the implicit commit
      unprovable, so recovery must refuse it. *)

  type state =
    | Pending  (** client work done, nothing written *)
    | Staged_in_flight  (** the one concurrent write round issued *)
    | Implicit  (** every write durable: committed, client may be acked *)
    | Explicit of Rvm_log.Pcommit.decision

  type event =
    | Write_round
    | All_durable
    | Resolve of Rvm_log.Pcommit.decision

  val step : state -> event -> (state, string) result
  (** Legal transitions only; notably [Resolve Committed] before
      [All_durable] and [Resolve Aborted] after it are both illegal. *)

  val state_name : state -> string
end
