(** Crash explorer for the early-lock-release commit pipeline.

    The recorded run is a {e real server world} — the sharded engine
    behind {!Rvm_server.Engine} and the server harness's TPC-A scheduler
    ({!Rvm_server.Server.scheduler_of}: lock manager, admission control,
    ELR) — driving a seeded TPC-A mix (payments, transfers, lookups)
    over recorder-wrapped memory devices. Scheduler hooks log two orders
    the checks need:

    - {e commit-spool order}: each write request the moment its commit
      record reaches the log spool (the instant ELR drops its locks),
      with the address of the audit slot it wrote;
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
      serial reference applied to exactly the survivor set (membership
      read back from the per-commit audit slots). Atomicity of
      cross-shard transfers is implied: a half-applied transfer moves one
      account away from the reference.

    Membership detection relies on two workload invariants the scheduler
    guarantees: every write request's last step writes [id + 1] into a
    fresh audit slot (so the slot word survives iff the commit did, and a
    zeroed slot is never mistaken for request 0), and audit draws happen
    at most once per request (aborts can only happen at lock steps, all
    of which precede the draw). [run] rejects configurations whose
    request count could wrap a shard's audit trail. *)

type config = {
  shards : int;
  accounts : int;
  requests : int;  (** must be [<= accounts] (audit-wrap guard) *)
  seed : int64;
  batch_max : int;
      (** > 1 for ELR to engage; 1 explores the unbatched commit path *)
  zipf_s : float;
  read_pct : int;
  transfer_pct : int;
  rate_tps : float;
  log_size : int;
  core : Crash.config;
}

val default_config : config
(** 1 shard, 32 accounts, 24 requests, batch 4, zipf 0.99, 25% lookups,
    30% transfers, 512-byte sectors, at most 4 torn variants per write —
    small enough to explore in well under a second,
    contended enough to exercise stamps, dependencies and parked reads. *)

val run : ?config:config -> unit -> Crash.outcome
(** Record the server run and explore every crash point. Counters:
    ["cross-shard"] parallel commits among the [commits] write requests,
    ["early releases"] the run performed, ["snapshot reads"] acked. *)
