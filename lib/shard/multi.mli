(** The sharded multi-log RVM engine.

    N single-log {!Rvm_core.Rvm} instances ("shards"), each owning its own
    log device, buffered tail (independent group commit) and truncation
    schedule, behind one address space and one transaction interface.
    Segments route to shards statically ({!Routing}); a transaction that
    touched one shard commits exactly as the single-log engine does, and a
    cross-shard transaction commits by {e parallel commit}
    ({!Rvm_layers.Twopc.Parallel}): one concurrent round writes every
    participant's intent record plus a staged record on the coordinating
    shard, the per-shard appends and log forces run on per-shard worker
    lanes ({!Rvm_util.Clock.on_lane} — one simulated worker core per
    shard, so rounds overlap on the simulated clock), the transaction is
    implicitly committed when the slowest force returns, and explicit
    resolution records are appended (unforced) before control returns. Recovery runs a
    status-resolution pass over all logs — converting surviving implicit
    commits to explicit ones and orphan-aborting incomplete evidence —
    strictly before any shard applies and empties its log. DESIGN.md
    section 10 has the full protocol and its TLA+ mapping. *)

type t
type gtid = int

val create_logs : Rvm_disk.Device.t array -> unit
(** Format each device as an empty shard log. *)

val initialize :
  ?options:Rvm_core.Options.t ->
  ?clock:Rvm_util.Clock.t ->
  ?model:Rvm_util.Cost_model.t ->
  ?obs:Rvm_obs.Registry.t ->
  routing:Routing.t ->
  logs:Rvm_disk.Device.t array ->
  resolve:(int -> Rvm_disk.Device.t) ->
  unit ->
  t
(** One log device per shard ([Array.length logs = Routing.shards routing]).
    Recovers in three rounds, each shard on its own clock lane and every
    round joined before the next: every shard opens its log once
    ({!Rvm_core.Rvm.attach}); the status-resolution pass judges each
    cross-shard transaction from every log's control records
    ({!Rvm_core.Recovery.controls}, no I/O) and each shard whose log
    holds evidence but no resolution appends and forces the verdict;
    then every shard recovers ({!Rvm_core.Rvm.recover}). So every
    holder's resolution is durable before any shard empties its log, each
    log is read once, and the clock advances by the slowest shard of each
    round, not the sum. An unopenable log raises
    {!Rvm_core.Types.Rvm_error} naming its shard. All shards share [obs]
    (counters merge into engine totals) and the clock. *)

val terminate : t -> unit
val shard_count : t -> int

val shard : t -> int -> Rvm_core.Rvm.t
(** The underlying per-shard engine (tests and benchmarks only). *)

val routing : t -> Routing.t
val shard_of_addr : t -> addr:int -> int

val map :
  t -> ?vaddr:int -> seg:int -> seg_off:int -> len:int -> unit -> Rvm_core.Region.t
(** Map through the segment's shard. Every shard's regions live in one
    address space ({!Rvm_core.Addr_space}): a range overlapping any
    shard's mapping raises {!Rvm_core.Types.Rvm_error} before a shard maps
    it, and an omitted [vaddr] is a free address in that space. Loads,
    stores and [set_range] find the region there and route to its
    segment's shard. *)

val unmap : t -> Rvm_core.Region.t -> unit

val begin_transaction : t -> mode:Rvm_core.Types.restore_mode -> gtid
val set_range : t -> gtid -> addr:int -> len:int -> unit
val modify : t -> gtid -> addr:int -> Bytes.t -> unit

val end_transaction : t -> gtid -> mode:Rvm_core.Types.commit_mode -> unit
(** Single-shard: the ordinary commit path on that shard. Cross-shard:
    parallel commit — with [Flush] the client regains control after one
    overlapped round of per-shard forces (implicit commit made explicit
    before returning); with [No_flush] the round sits in the per-shard
    tails until the next {!flush}. *)

val abort_transaction : t -> gtid -> unit

val touched_shards : t -> gtid -> int list
(** Shards the (still-active) transaction has written, ascending. *)

val flush : t -> unit
(** Drain and force every shard that holds undurable state in one
    overlapped round (clean shards cost nothing), then resolve any
    no-flush cross-shard commits the round just made durable. Resolution
    records ride unforced in the per-shard tails; once a later round has
    forced every participant past its append, the resolutions are retired
    (dropped from truncation carry-over) without ever paying a force of
    their own. *)

val truncate : t -> unit

val truncation_step : t -> [ `Progress | `Blocked | `Idle ]
(** One background truncation step on every shard whose truncator is due
    ({!Rvm_core.Rvm.truncation_step}), each on its own worker lane so
    concurrent steps overlap on the simulated clock. [`Progress] if any
    shard advanced; [`Blocked] if at least one shard's run ended stalled
    and none advanced; [`Idle] when no shard had work. *)

val truncation_due : t -> bool
(** Some shard's truncator is due. *)

val truncation_urgent : t -> bool
(** Some shard's log is at [truncation_critical]. *)

val load : t -> addr:int -> len:int -> Bytes.t
val store : t -> addr:int -> Bytes.t -> unit
val get_i64 : t -> addr:int -> int64
val set_i64 : t -> addr:int -> int64 -> unit

val log_occupancy : t -> float
(** Max log fill fraction over shards — the monitoring gauge. *)

val stats : t -> Rvm_core.Statistics.t
(** Merged engine totals (all shards share one registry). *)

val obs : t -> Rvm_obs.Registry.t
val clock : t -> Rvm_util.Clock.t
val active_transactions : t -> int

val cross_committed : t -> int
(** Cross-shard transactions committed by parallel commit. *)

val cross_aborted : t -> int
(** Cross-shard transactions aborted before their write round (there is no
    abort after it). *)

val commit_lsn : t -> int
(** Global logical commit counter, incremented once per committed
    transaction (single- or cross-shard) at dispatch time — i.e. at
    logical-commit, before any force. *)

val durable_lsn : t -> int
(** Durable horizon for global LSNs: every commit with LSN
    [<= durable_lsn] has its records (intents included, for cross-shard
    commits) forced on every participant shard. Computed lazily from the
    per-shard engines' durable horizons. *)
