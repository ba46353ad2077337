(** The transaction server harness: one call builds a complete simulated
    world — dec5000 cost model, latency-wrapped log and segment devices,
    an engine instance, a TPC-A layout, the lock manager, admission
    control and the scheduler — runs a seeded load against it, and
    reduces the outcome to a {!result} row. Two results from equal
    configs are byte-identical: every stochastic choice (request mix,
    Zipf keys, arrival times, backoff jitter) flows from [seed] through
    split {!Rvm_util.Rng} streams, and all timing is simulated. TPC-A,
    {!Ycsb_run} and the ELR crash explorer share its serving half, and
    TPC-A and the ELR crash explorer its {!open_world}. *)

type load =
  | Open_loop of float  (** Poisson arrivals at this offered tps *)
  | Closed_loop of { sessions : int; think_us : float }

val load_name : load -> string

val percentile : float array -> float -> float
(** Nearest-rank percentile over a sorted sample array (shared with the
    YCSB harness so both workloads reduce latencies identically). *)

type config = {
  accounts : int;
  shards : int;
      (** 1 = the single-log engine (byte-identical to the pre-shard
          server); N > 1 = the sharded multi-log engine with account [i]
          on shard [i mod N], tellers/branches/audit co-located with their
          account (Payments single-shard, Transfers cross-shard when their
          accounts land on different shards) *)
  zipf_s : float;  (** account-key skew exponent *)
  transfer_pct : int;  (** % of requests that are two-account transfers *)
  requests : int;
  seed : int64;
  load : load;
  batch_max : int;  (** 1 = unbatched: every commit forces the log *)
  max_inflight : int;
  max_queue : int;
  log_size : int;
  background_truncation : bool;
      (** true (default): the engine's inline commit-path truncation
          trigger is disabled and the scheduler reclaims the log from its
          background slot, a few resumable steps per quantum; false:
          classic inline behavior — the commit that crosses the threshold
          pays the whole truncation synchronously *)
  elr : bool;
      (** true (default): early lock release — batched commits drop their
          locks at commit-spool time, acks still wait for the force;
          false: locks ride until the batch force (the contended
          baseline) *)
  read_pct : int;
      (** % of requests that are read-only balance lookups, served
          lock-free from the commit stamps (default 0) *)
}

val default_config : config
(** 1000 accounts, Zipf s=0.8, 25% transfers, 400 requests, open loop at
    40 tps, batch 8, admission 8 in flight and 16 queued. *)

type result = {
  cfg : config;
  committed : int;
      (** transactions committed, read-only ones included (lookups
          counted apart) *)
  reads : int;  (** lookups answered from the snapshot fast path *)
  shed : int;
  aborts : int;
  abort_rate : float;  (** aborts / (aborts + committed), 0 if none *)
  batches : int;  (** commit forces ({!Scheduler.tally}) *)
  duration_us : float;
  throughput_tps : float;  (** committed transactions per second *)
  mean_latency_us : float;
  p50_latency_us : float;  (** exact (nearest-rank over raw samples) *)
  p95_latency_us : float;
  p99_latency_us : float;
  read_p99_latency_us : float;  (** lookup ack latency, 0 when no reads *)
  snapshot_read_fraction : float;  (** reads / (reads + committed) *)
  log_writes : int;  (** summed over the physical log devices *)
  log_syncs : int;
  syncs_per_commit : float;  (** the group-commit payoff metric *)
  writes_per_commit : float;
  cross_committed : int;  (** parallel-commit transactions (0 unsharded) *)
  cross_aborted : int;  (** cross-shard deadlock/early aborts *)
  cross_abort_rate : float;  (** aborted / (committed + aborted), 0 if none *)
}

val run : config -> result

(** {1 Monitored runs}

    Same world, same scheduler, plus windowed telemetry and SLO
    monitoring: a {!Rvm_obs.Timeseries} over the world's registry
    (window default 500ms simulated), gauges for log occupancy, the
    commit/durable LSN horizons and truncation-due, and an
    {!Rvm_obs.Monitor} ticked from the scheduler's quantum hook. The
    monitoring path only reads the clock, so a monitored run's {!result}
    is byte-identical to a bare {!run} of the same config. *)

val run_monitored :
  ?window_us:float ->
  ?on_window:(Rvm_obs.Monitor.t -> Rvm_obs.Timeseries.window -> unit) ->
  config ->
  result * Rvm_obs.Monitor.t
(** The monitor runs {!Rvm_obs.Monitor.default_rules} (with the
    shard-imbalance rule when [cfg.shards > 1]); [on_window] streams
    every closed window as the run progresses (the [serve --monitor]
    health line). *)

(** {1 Open-world entry points}

    Tests need the pieces: the registry (to check [req.root] parents
    [txn.commit]), the engine and placement (to check final balances
    against the serial reference), the raw tally. *)

type backend = Engine.backend =
  | Single of Rvm_core.Rvm.t
  | Sharded of Rvm_shard.Multi.t

type world = {
  engine : Engine.t;
  backend : backend;
  clock : Rvm_util.Clock.t;
  obs : Rvm_obs.Registry.t;
  placement : Placement.t;
  log_devs : Rvm_disk.Device.t array;
      (** outermost log devices — their [stats] count physical
          writes/syncs; one element per shard *)
}

val open_world :
  config ->
  clock:Rvm_util.Clock.t ->
  obs:Rvm_obs.Registry.t ->
  logs:Rvm_disk.Device.t array ->
  segs:Rvm_disk.Device.t array ->
  world
(** {!Engine.initialize} on [logs] and [segs], one formatted log and one
    data segment per shard, with the server's options, then map shard
    [s]'s {!shard_layouts} entry on shard [s]. {!build_world} and the ELR
    crash explorer (its recorded run and every recovery) open here.
    Raises [Invalid_argument] unless there are [cfg.shards] logs. *)

val build_world : config -> world
(** {!open_world} on fresh dec5000 {!devices}, the clock suspended. *)

val scheduler_of :
  config -> world -> Rvm_workload.Tpca.spec Scheduler.t
(** The TPC-A scheduler over [w]: {!scheduler} with TPC-A's request
    generator ({!Rvm_workload.Tpca.make_gen}), its step function, which
    compiles payments and transfers into lock and balance-update steps
    and lookups into one lock-free [Read] of the account and branch
    keys, and {!Rvm_workload.Tpca.kind_name} as the label. The steps
    update balances through [w.engine] at the addresses [w.placement]
    gives. *)

val run_with_world : config -> world * Scheduler.tally
(** {!run} without the reduction: build, run, hand everything back. *)

val shard_layouts : config -> Rvm_workload.Tpca.layout array
(** Shard [s] holds the accounts [≡ s (mod shards)] and its own tellers,
    branches and audit trail, at disjoint vaddrs. *)

val devices :
  clock:Rvm_util.Clock.t ->
  suffix:string ->
  log_size:int ->
  seg_size:int ->
  Rvm_disk.Device.t * Rvm_disk.Device.t
(** Memory stores [log<suffix>] and [seg<suffix>] under the dec5000
    log-disk and data-disk latency layers. *)

(** {1 The serving half}

    Every workload runs through these. It brings a world, its own spec
    type ['s], a request generator, a step function that compiles each
    spec into scheduler steps and a label naming a spec's kind; only the
    serving fields of the {!config} are read (seed, load, requests and
    the admission, scheduler and ELR knobs). *)

val scheduler :
  config ->
  world ->
  gen:(Rvm_util.Rng.t -> 's Scheduler.gen) ->
  steps:('s -> Scheduler.step list) ->
  label:('s -> string) ->
  's Scheduler.t
(** Splits [seed] into the request, arrival and backoff streams, then
    builds arrivals, admission and the scheduler over the world. *)

val monitor_of : ?window_us:float -> world -> Rvm_obs.Monitor.t
(** The world's monitor: {!Rvm_obs.Monitor.default_rules} over a
    timeseries of the world's registry with the engine's gauges. *)

val serve :
  ?monitor:Rvm_obs.Monitor.t * (Rvm_obs.Timeseries.window -> unit) ->
  world ->
  _ Scheduler.t ->
  Scheduler.tally * int * int
(** Run to completion: the tally and the log devices' write and sync
    deltas. [monitor] ticks from the quantum hook and every window it
    closes goes to the callback. *)

val reduce : config -> world -> Scheduler.tally * int * int -> result

val result_to_json : result -> Rvm_obs.Json.t
val pp_table : Format.formatter -> result list -> unit
