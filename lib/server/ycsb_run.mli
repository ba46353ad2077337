(** The YCSB harness: the server's second workload, running the standard
    key-value mixes A–F ({!Rvm_workload.Ycsb}) against a recoverable
    B-tree ({!Rvm_pds.Pbtree}) in an {!Rvm_alloc.Rds} heap, through the
    serving half of {!Server}.

    One call builds the world (latency-wrapped log and segment devices
    over the dec5000 model, optional {!Rvm_vm.Vm_sim} paging pressure),
    bulk-loads [records] keys off the clock, serves the seeded mix
    through the scheduler with its own step function, and reduces to a
    {!result} row that includes a serial-reference verdict: the committed
    operations replayed in commit order against a plain hash table must
    reproduce the tree's final contents byte-for-byte. A request's spec
    is its {!Rvm_workload.Ycsb.op}, and its [req.root] span is labelled
    [ycsb-<op>] ([ycsb-update], [ycsb-rmw], ...).

    Locking is node-granular where the tree's shape is stable (mixes
    A/B/C/F lock the key's leaf) and tree-granular where inserts can
    split nodes (D/E); read-modify-write takes its leaf in Update mode and
    upgrades to Exclusive, so a second read-modify-write on the leaf
    queues instead of deadlocking. Reads and scans write nothing, so they
    begin no engine transaction and commit read-only: no engine call, no
    log force, no batch slot, and an ack as soon as the writers they
    observed are durable. *)

type config = {
  mix : Rvm_workload.Ycsb.mix;
  records : int;  (** initial key population, loaded before the run *)
  value_len : int;
  scan_max : int;
  degree : int;  (** B-tree minimum degree *)
  requests : int;
  seed : int64;
  load : Server.load;
  batch_max : int;
  max_inflight : int;
  max_queue : int;
  log_size : int;
  mem_fraction : float;
      (** physical frames as a fraction of the heap's pages; outside
          (0, 1) disables the paging simulation *)
  elr : bool;
}

val default_config : config

type result = {
  cfg : config;
  committed : int;
  shed : int;
  aborts : int;
  abort_rate : float;
  batches : int;
  duration_us : float;
  throughput_tps : float;
  mean_latency_us : float;
  p50_latency_us : float;
  p95_latency_us : float;
  p99_latency_us : float;
  log_writes : int;
  log_syncs : int;
  syncs_per_commit : float;
  set_ranges_per_commit : float;
      (** the engine's [txn.set_range] calls over the serving phase, per
          committed request *)
  log_bytes_per_commit : float;
      (** the engine's [log.bytes_logged] over the serving phase, per
          committed request *)
  engine_txns_per_commit : float;
      (** the engine's [txn.committed] over the serving phase, per
          committed request: 0 for a mix that only reads, since reads and
          scans begin no engine transaction *)
  vm_faults : int;
  vm_evictions : int;
  vm_pageouts : int;
  heap_allocated_bytes : int;
  heap_free_bytes : int;
  heap_free_list : int;
  tree_length : int;
  splits : int;
  merges : int;
  serial_equal : bool;
      (** tree contents equal the serial replay of committed ops *)
}

type world = {
  rvm : Rvm_core.Rvm.t;
  engine : Engine.t;
  clock : Rvm_util.Clock.t;
  obs : Rvm_obs.Registry.t;
  heap : Rvm_alloc.Rds.t;
  tree : Rvm_pds.Pbtree.t;
  vm : Rvm_vm.Vm_sim.t option;
  log_dev : Rvm_disk.Device.t;
  seg_dev : Rvm_disk.Device.t;
}

val build_world : config -> world
(** Devices, engine, heap, tree and bulk load, all under a suspended
    clock; paging counters are reset so the run starts cold-measured but
    warm-resident. *)

val serve : config -> world -> result
(** Serve the mix over a built world through the scheduler and reduce it
    to a row, serial-reference verdict included. {!run} is {!build_world}
    then [serve]; a caller that needs the world first (to resize its span
    ring for a trace, say) builds it itself. *)

val run : config -> result

val run_with_world : config -> result * world
(** [run], but also hands back the world for inspection (heap occupancy,
    registry counters, the tree itself). *)

val run_monitored :
  ?window_us:float ->
  ?on_window:(Rvm_obs.Monitor.t -> Rvm_obs.Timeseries.window -> unit) ->
  config ->
  result * Rvm_obs.Monitor.t
(** {!run} under {!Server.run_monitored}'s monitor with the default
    rules; same result. *)

val result_to_json : result -> Rvm_obs.Json.t
val pp_table : Format.formatter -> result list -> unit
