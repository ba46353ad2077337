(** Crash recovery and the one live-log planner (section 5.1.2).

    "Crash recovery consists of RVM first reading the log from tail to
    head, then constructing an in-memory tree of the latest committed
    changes for each data segment encountered in the log. The trees are
    then traversed, applying modifications ... Finally, the head and tail
    location information in the log status block is updated to reflect an
    empty log. The idempotency of recovery is achieved by delaying this
    step until all other recovery actions are complete."

    {!plan_live} is the only code that decides what live log records
    mean. It scans newest-first, keeping per segment an interval set of
    bytes already planned; older records only contribute their
    not-yet-covered gaps, so each byte is written once with its latest
    committed value — the same effect as the paper's trees. {!recover}
    executes a plan of the whole log; epoch truncation (Figure 6) executes
    one over a frozen prefix, step by step; an incremental head move takes
    only its pending intents.

    Parallel commit (DESIGN.md section 10) adds a status-resolution wrinkle:
    {e intent} records carry a cross-shard transaction's ranges but apply
    only if the transaction's status is commit. Status comes from, in
    precedence order, an in-log resolution record, the caller's
    [intent_decision] callback, or the orphan default ([`Abort]). A
    [`Pending] answer (the transaction is mid-protocol in this process)
    neither applies nor discards: the record is returned in the plan's
    preserved list for the caller to re-append past the truncation
    point. *)

type plan = {
  plan_writes : (int * int * Bytes.t) list;
      (** [(seg id, seg offset, final bytes)], disjoint per segment, newest
          record first — the newest committed value of every live byte in
          the planned window. *)
  plan_preserved : Rvm_log.Record.t list;
      (** Intent records still pending at scan time, oldest first — the
          caller must re-append them (fresh seqnos) before moving the head
          past them, or their evidence is lost. Always empty without a
          callback that answers [`Pending]. *)
  plan_records_seen : int;
}

val controls : Rvm_log.Log_manager.view -> Rvm_log.Pcommit.control list
(** Every live control record the view holds (intents, staged records
    and resolutions), oldest first; malformed ones are left out. This is
    the one classification of control records: {!plan_live} takes its
    resolutions from it, and the shard layer's status-resolution pass
    judges each cross-shard transaction from every shard log's list. *)

val plan_live :
  ?before_seqno:int ->
  ?intent_decision:(string -> [ `Commit | `Abort | `Pending ]) ->
  Rvm_log.Log_manager.t ->
  plan
(** One read of the live window ({!Rvm_log.Log_manager.view}), two
    passes: resolutions are collected from the whole log ({!controls}),
    then records with a sequence number below [before_seqno] (all by
    default) are planned newest-first. Nothing is written.
    [intent_decision] answers for intents with no in-log resolution;
    default [`Abort] (orphans). The plan's data is copied out of the
    records, so it stays valid while new commits append past
    [before_seqno]. *)

type outcome = {
  records_seen : int;
  bytes_applied : int;
  segments_touched : Segment.t list;
}

val recover :
  ?obs:Rvm_obs.Registry.t ->
  resolve:(int -> Segment.t) ->
  clock:Rvm_util.Clock.t ->
  model:Rvm_util.Cost_model.t ->
  Rvm_log.Log_manager.t ->
  outcome
(** Full crash recovery: plan the whole log, write the plan's gaps in
    order (charging [cpu_per_byte_copy_us] per byte), sync the touched
    segments, then declare the log empty — the last, idempotency-preserving
    step. With [obs] these run under [recovery.plan], [recovery.apply]
    (with [segment.sync] spans) and [recovery.reset] spans.

    There is no [intent_decision] here: nothing is mid-protocol when a log
    recovers. The shard layer recovers its shards before anything enters
    its in-flight table, and its status-resolution pass has already
    appended and forced a resolution for every gid to every log holding
    evidence for it. An intent with no in-log resolution is an orphan and
    aborts. *)
