(** Crash explorer for the early-lock-release commit pipeline.

    The recorded run is a {e real server world} — the sharded engine
    behind {!Rvm_server.Engine} and the server harness's TPC-A scheduler
    ({!Rvm_server.Server.scheduler_of}: lock manager, admission control,
    ELR) — driving a seeded TPC-A mix (payments, transfers, lookups)
    over recorder-wrapped memory devices. Scheduler hooks log two orders
    the checks need:

    - {e commit-spool order}: each write request the moment its commit
      record reaches the log spool (the instant ELR drops the locks of a
      single-shard commit);
    - {e ack order}: each outcome released to a client, tagged with the
      exact device-event index at which it left the server — for lookups,
      together with the writer ids whose early-released state they
      observed.

    Then every crash point the {!Crash} core enumerates (DESIGN.md §6) is
    replayed through recovery and checked:

    + {b No ack precedes durability} — a write acked before the crash
      must be recovered; a lookup acked before the crash must only have
      exposed writers that were recovered. This is exactly the
      commit-LSN ack-dependency rule ELR introduces; a scheduler that
      acked at spool time fails here at the first crash inside an open
      batch.
    + {b Prefix closure} — per shard, the surviving commits are a prefix
      of spool order; the only legal holes are cross-shard transactions
      whose intents recovery resolved to aborted.
    + {b Serial equivalence} — recovered balances equal the commutative
      serial reference applied to exactly the survivor set. Atomicity of
      cross-shard transfers is implied: a half-applied transfer moves one
      account away from the reference, and so does a successor that
      survived with state read from a transfer that did not.

    Membership is read back from the recovered audit trails: every write
    request's last step writes [id + 1] into a fresh slot of its anchor
    account's shard trail, in the same transaction as its balances, so an
    id is in a trail iff its commit survived (and a zeroed slot is never
    mistaken for request 0). Audit draws happen at most once per request
    (aborts can only happen at lock steps, all of which precede the
    draw), and no trail may wrap: [run] counts each shard's draws after
    the recorded run and refuses a run whose trail wrapped. *)

type config = {
  shards : int;
  accounts : int;
  requests : int;
  seed : int64;
  batch_max : int;
      (** > 1 for ELR to engage; 1 explores the unbatched commit path *)
  core : Crash.config;
}

val default_config : config
(** 1 shard, 32 accounts, 24 requests, batch 4, 512-byte sectors, at most
    4 torn variants per write — small enough to explore in well under a
    second, contended enough to exercise stamps, dependencies and parked
    reads. *)

val read_pct : int
(** Percentage of requests drawn as lookups: 25. The rest of the mix is
    fixed too — zipf 0.99 account skew, 30% transfers, 400 tps offered
    open loop, a 256 KiB log per shard. *)

val run : ?config:config -> unit -> Crash.outcome
(** Record the server run and explore every crash point. Counters:
    ["cross-shard"] parallel commits among the [commits] write requests,
    ["early releases"] the run performed, ["snapshot reads"] acked.
    Raises [Invalid_argument] if [shards < 1], or naming the shard whose
    audit trail the recorded run wrapped. *)
