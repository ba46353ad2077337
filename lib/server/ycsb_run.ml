module Clock = Rvm_util.Clock
module Cost_model = Rvm_util.Cost_model
module Device = Rvm_disk.Device
module Rvm = Rvm_core.Rvm
module Options = Rvm_core.Options
module Types = Rvm_core.Types
module Vm_sim = Rvm_vm.Vm_sim
module Rds = Rvm_alloc.Rds
module Pbtree = Rvm_pds.Pbtree
module Ycsb = Rvm_workload.Ycsb
module Lock_mgr = Rvm_layers.Lock_mgr
module Registry = Rvm_obs.Registry
module Counter = Rvm_obs.Counter
module Json = Rvm_obs.Json
module Statistics = Rvm_core.Statistics

type config = {
  mix : Ycsb.mix;
  records : int;
  value_len : int;
  scan_max : int;
  degree : int;
  requests : int;
  seed : int64;
  load : Server.load;
  batch_max : int;
  max_inflight : int;
  max_queue : int;
  log_size : int;
  mem_fraction : float;
  elr : bool;
}

let default_config =
  {
    mix = Ycsb.A;
    records = 10_000;
    value_len = 64;
    scan_max = 20;
    degree = 8;
    requests = 400;
    seed = 42L;
    load = Server.Open_loop 40.;
    batch_max = Scheduler.default_config.Scheduler.batch_max;
    max_inflight = Admission.default.Admission.max_inflight;
    max_queue = Admission.default.Admission.max_queue;
    log_size = 8 * 1024 * 1024;
    mem_fraction = 0.25;
    elr = true;
  }

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
  log_bytes_per_commit : float;
  engine_txns_per_commit : float;
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
}

type world = {
  rvm : Rvm.t;
  engine : Engine.t;
  clock : Clock.t;
  obs : Registry.t;
  heap : Rds.t;
  tree : Pbtree.t;
  vm : Vm_sim.t option;
  log_dev : Device.t;
}

let page_size = 4096
let heap_base = 16 * page_size

(* Heap length, and through [mem_fraction] the paging frame budget:
   (176 + value_len) * 3/2 bytes per record plus 1 MiB. It sizes the
   budget, not the tree: with 64-byte values the tree allocates about
   100 bytes per record, so most of the heap is headroom for inserts. *)
let heap_len_of cfg =
  let per_record = (176 + cfg.value_len) * 3 / 2 in
  let raw = (cfg.records * per_record) + (1 lsl 20) in
  ((raw / page_size) + 1) * page_size

(* Bulk-load [records] keys bottom-up into packed leaves
   ({!Pbtree.load}: 2 000-entry [No_flush] transactions), then one force
   — the tree is built before the clock starts, so the sweep measures
   steady-state serving over a warm store. *)
let load_tree cfg rvm tree =
  let value = Ycsb.value ~len:cfg.value_len ~ver:1 in
  Pbtree.load tree ~count:cfg.records (fun i -> (Ycsb.key_of i, value));
  Rvm.flush rvm;
  Rvm.truncate rvm

let build_world cfg =
  if cfg.records <= 0 then invalid_arg "Ycsb_run: records must be positive";
  let clock = Clock.simulated () in
  let model = Cost_model.dec5000 in
  let obs = Registry.create () in
  let heap_len = heap_len_of cfg in
  let log_dev, seg_dev =
    Server.devices ~clock ~suffix:"" ~log_size:cfg.log_size
      ~seg_size:(heap_len + page_size)
  in
  (* The paging pressure the paper's section 7.1 asks about: physical
     frames are a fraction of the heap's pages, so the Zipf-cold tail of
     a large key population faults and evicts through the paging disk. *)
  let vm =
    if cfg.mem_fraction <= 0. || cfg.mem_fraction >= 1. then None
    else
      let pages = heap_len / page_size in
      let frames =
        max 64 (int_of_float (float_of_int pages *. cfg.mem_fraction))
      in
      Some
        (Vm_sim.create ~clock ~model
           {
             Vm_sim.physical_pages = frames;
             page_size;
             fault_disk = model.Cost_model.paging_disk;
             evict_disk = model.Cost_model.paging_disk;
             evict_in_background = true;
           })
  in
  Clock.suspend clock @@ fun () ->
  Rvm.create_log log_dev;
  (* Inline reclamation during the load; the scheduler's background slot
     takes over for the measured run (see Server.options_of). *)
  let options =
    {
      Options.default with
      Options.auto_truncate = true;
      truncation_mode = Types.Incremental;
    }
  in
  let rvm =
    Rvm.initialize ~options ~clock ~model ~obs ?vm ~log:log_dev
      ~resolve:(fun _ -> seg_dev)
      ()
  in
  ignore (Rvm.map rvm ~vaddr:heap_base ~seg:1 ~seg_off:0 ~len:heap_len ());
  let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
  let heap = Rds.init rvm tid ~base:heap_base ~len:heap_len in
  let tree = Pbtree.create rvm heap tid ~degree:cfg.degree in
  Rvm.end_transaction rvm tid ~mode:Types.Flush;
  load_tree cfg rvm tree;
  Rvm.set_options rvm (fun o -> { o with Options.auto_truncate = false });
  Option.iter Vm_sim.reset_counters vm;
  (* Structural counters and paging counters restart at zero: the result
     row reports what the measured run did, not the bulk load. *)
  let s = Pbtree.stats tree in
  s.Pbtree.splits <- 0;
  s.Pbtree.merges <- 0;
  s.Pbtree.borrows <- 0;
  { rvm; engine = Engine.of_rvm rvm; clock; obs; heap; tree; vm; log_dev }

let tree_lock = "btree"
let tree_shared = Scheduler.Lock (Lock_mgr.Shared, tree_lock)
let tree_exclusive = Scheduler.Lock (Lock_mgr.Exclusive, tree_lock)

(* A scan keeps nothing of what it reads. *)
let keep_nothing ~key:_ ~klen:_ ~value:_ ~vlen:_ = true

(* The step function: the step list for each YCSB op.

   Lock granularity: in mixes with no inserts (A/B/C/F) every leaf
   address is stable for the whole run — replacing a value never moves a
   node — so point ops lock just their leaf ("n:<addr>") and disjoint
   keys proceed in parallel. Mixes D and E insert, and an insert can
   split any node on its root-to-leaf path, so structural mixes fall
   back to one tree-level lock: inserts exclusive, reads and scans
   shared. Read-modify-write takes the leaf in Update for the read, so
   readers still share the leaf with it, and upgrades to Exclusive for
   the write; a second RMW on the leaf queues at its Update request
   rather than deadlocking at the upgrade. Since leaves stay put, each
   leaf's lock key is built once and kept in a table keyed by the leaf's
   address.

   Reads and scans write nothing, so they are [Query] steps and begin no
   engine transaction: each commits read-only without calling the
   engine, its Shared lock drops at the commit point, and it acknowledges
   as soon as the writers it observed through its lock's commit stamp
   are durable, with no force and no batch slot of its own. The read
   half of a read-modify-write is a [Query] too; its plan still holds the
   write's [Run], so its transaction begins at its first step. The read
   reaches the write through a ref made with the plan, and a plan is
   rebuilt after every abort, so each attempt reads afresh. *)
let steps_of cfg (tree : Pbtree.t) =
  let structural = match cfg.mix with Ycsb.D | Ycsb.E -> true | _ -> false in
  let leaf_keys = Hashtbl.create 64 in
  let lk key =
    if structural then tree_lock
    else
      let leaf = Pbtree.leaf_addr tree ~key in
      match Hashtbl.find leaf_keys leaf with
      | k -> k
      | exception Not_found ->
        let k = "n:" ^ string_of_int leaf in
        Hashtbl.add leaf_keys leaf k;
        k
  in
  let lock mode key =
    match (structural, mode) with
    | true, Lock_mgr.Shared -> tree_shared
    | true, Lock_mgr.Exclusive -> tree_exclusive
    | _ -> Scheduler.Lock (mode, lk key)
  in
  function
  | Ycsb.Read key ->
    [
      lock Lock_mgr.Shared key;
      Scheduler.Query (fun () -> ignore (Pbtree.get tree ~key));
    ]
  | Ycsb.Update (key, value) ->
    [
      lock Lock_mgr.Exclusive key;
      Scheduler.Run (fun tid -> Pbtree.put tree tid ~key ~value);
    ]
  | Ycsb.Insert (key, value) ->
    [
      tree_exclusive;
      Scheduler.Run (fun tid -> Pbtree.put tree tid ~key ~value);
    ]
  | Ycsb.Scan (lo, n) ->
    [
      lock Lock_mgr.Shared lo;
      Scheduler.Query
        (fun () -> Pbtree.scan_views tree ~lo ~n ~f:keep_nothing ());
    ]
  | Ycsb.Rmw key ->
    let k = lk key in
    let old = ref None in
    [
      Scheduler.Lock (Lock_mgr.Update, k);
      Scheduler.Query (fun () -> old := Pbtree.get tree ~key);
      Scheduler.Lock (Lock_mgr.Exclusive, k);
      Scheduler.Run
        (fun tid ->
          Pbtree.put tree tid ~key
            ~value:(Ycsb.rmw_next ~value_len:cfg.value_len !old));
    ]

let label op = "ycsb-" ^ Ycsb.op_name op

(* The harness's view of the world. The placement is TPC-A machinery the
   steps never touch; a one-account layout fills [Server.world]. *)
let server_world w =
  {
    Server.engine = w.engine;
    backend = Server.Single w.rvm;
    clock = w.clock;
    obs = w.obs;
    placement =
      Placement.make
        ~layouts:
          [| Rvm_workload.Tpca.layout ~accounts:1 ~base:heap_base ~page_size |];
    log_devs = [| w.log_dev |];
  }

(* The serving fields, as the harness reads them. *)
let serving cfg =
  {
    Server.default_config with
    Server.requests = cfg.requests;
    seed = cfg.seed;
    load = cfg.load;
    batch_max = cfg.batch_max;
    max_inflight = cfg.max_inflight;
    max_queue = cfg.max_queue;
    elr = cfg.elr;
  }

let gen cfg rng =
  let g =
    Ycsb.create ~rng ~mix:cfg.mix ~records:cfg.records
      ~value_len:cfg.value_len ~scan_max:cfg.scan_max
  in
  fun ~id:_ -> Ycsb.next g

(* Serial reference: replay the committed ops in commit (spool/LSN)
   order against the plain hash-table model and demand the recoverable
   tree's full contents match byte-for-byte. *)
let serial_check cfg w committed_ops =
  let model = Hashtbl.create (2 * cfg.records) in
  for i = 0 to cfg.records - 1 do
    Hashtbl.replace model (Ycsb.key_of i)
      (Ycsb.value ~len:cfg.value_len ~ver:1)
  done;
  List.iter (Ycsb.apply_model model ~value_len:cfg.value_len) committed_ops;
  Pbtree.length w.tree = Hashtbl.length model
  && Pbtree.fold w.tree ~init:true ~f:(fun ok ~key ~value ->
         ok && Hashtbl.find_opt model key = Some value)

(* Heap occupancy and paging pressure, published as counters so they
   land in the registry next to the engine's own counters. *)
let publish_gauges w =
  let set name v = Counter.add (Registry.counter w.obs name) v in
  (* vm counters first: the rds occupancy walk below faults in every
     heap page and would inflate them. *)
  Option.iter
    (fun vm ->
      set "vm.faults" (Vm_sim.faults vm);
      set "vm.evictions" (Vm_sim.evictions vm);
      set "vm.pageouts" (Vm_sim.pageouts vm))
    w.vm;
  set "rds.allocated.bytes" (Rds.allocated_bytes w.heap);
  set "rds.free.bytes" (Rds.free_bytes w.heap);
  set "rds.free.list.length" (Rds.free_list_length w.heap);
  set "rds.blocks" (Rds.block_count w.heap)

(* Serve the mix over a built world and reduce it to a row. The spool
   hook records the committed ops in commit order for the serial check. *)
let serve_with ?monitor cfg w =
  let sw = server_world w in
  let scfg = serving cfg in
  let sched =
    Server.scheduler scfg sw ~gen:(gen cfg) ~steps:(steps_of cfg w.tree)
      ~label
  in
  let ops = ref [] in
  (* The write path's economy, over the serving phase alone: set_range
     calls, logged bytes and engine transactions per committed request. *)
  let before = Rvm.stats w.rvm in
  Scheduler.set_hooks sched
    ~on_spool:(fun r -> ops := r.Scheduler.spec :: !ops)
    ~on_ack:ignore;
  let s = Server.reduce scfg sw (Server.serve ?monitor sw sched) in
  let after = Rvm.stats w.rvm in
  let per_commit f =
    if s.Server.committed = 0 then 0.
    else float_of_int (f after - f before) /. float_of_int s.Server.committed
  in
  (* Paging counters are sampled first: the gauge pass below walks every
     heap block and the serial-reference replay walks every leaf — both
     would otherwise be charged to the run. *)
  let vm_count f = match w.vm with Some vm -> f vm | None -> 0 in
  let vm_faults = vm_count Vm_sim.faults in
  let vm_evictions = vm_count Vm_sim.evictions in
  let vm_pageouts = vm_count Vm_sim.pageouts in
  publish_gauges w;
  let ts = Pbtree.stats w.tree in
  let serial_equal = serial_check cfg w (List.rev !ops) in
  {
    cfg;
    committed = s.Server.committed;
    shed = s.Server.shed;
    aborts = s.Server.aborts;
    abort_rate = s.Server.abort_rate;
    batches = s.Server.batches;
    duration_us = s.Server.duration_us;
    throughput_tps = s.Server.throughput_tps;
    mean_latency_us = s.Server.mean_latency_us;
    p50_latency_us = s.Server.p50_latency_us;
    p95_latency_us = s.Server.p95_latency_us;
    p99_latency_us = s.Server.p99_latency_us;
    log_writes = s.Server.log_writes;
    log_syncs = s.Server.log_syncs;
    syncs_per_commit = s.Server.syncs_per_commit;
    set_ranges_per_commit = per_commit (fun st -> st.Statistics.set_ranges);
    log_bytes_per_commit = per_commit (fun st -> st.Statistics.bytes_logged);
    engine_txns_per_commit =
      per_commit (fun st -> st.Statistics.txns_committed);
    vm_faults;
    vm_evictions;
    vm_pageouts;
    heap_allocated_bytes = Rds.allocated_bytes w.heap;
    heap_free_bytes = Rds.free_bytes w.heap;
    heap_free_list = Rds.free_list_length w.heap;
    tree_length = Pbtree.length w.tree;
    splits = ts.Pbtree.splits;
    merges = ts.Pbtree.merges;
    serial_equal;
  }

let serve cfg w = serve_with cfg w

let run_with_world cfg =
  let w = build_world cfg in
  (serve cfg w, w)

let run cfg = fst (run_with_world cfg)

let run_monitored ?window_us ?(on_window = fun _ _ -> ()) cfg =
  let w = build_world cfg in
  let mon = Server.monitor_of ?window_us (server_world w) in
  (serve_with ~monitor:(mon, on_window mon) cfg w, mon)

let result_to_json r =
  let c = r.cfg in
  Json.Obj
    [
      ("mix", Json.String (Ycsb.mix_name c.mix));
      ("records", Json.Int c.records);
      ("value_len", Json.Int c.value_len);
      ("scan_max", Json.Int c.scan_max);
      ("degree", Json.Int c.degree);
      ("requests", Json.Int c.requests);
      ("seed", Json.Int (Int64.to_int c.seed));
      ("load", Json.String (Server.load_name c.load));
      ("batch_max", Json.Int c.batch_max);
      ("mem_fraction", Json.Float c.mem_fraction);
      ("elr", Json.Bool c.elr);
      ("committed", Json.Int r.committed);
      ("shed", Json.Int r.shed);
      ("aborts", Json.Int r.aborts);
      ("abort_rate", Json.Float r.abort_rate);
      ("batches", Json.Int r.batches);
      ("duration_us", Json.Float r.duration_us);
      ("throughput_tps", Json.Float r.throughput_tps);
      ("mean_latency_us", Json.Float r.mean_latency_us);
      ("p50_latency_us", Json.Float r.p50_latency_us);
      ("p95_latency_us", Json.Float r.p95_latency_us);
      ("p99_latency_us", Json.Float r.p99_latency_us);
      ("log_writes", Json.Int r.log_writes);
      ("log_syncs", Json.Int r.log_syncs);
      ("syncs_per_commit", Json.Float r.syncs_per_commit);
      ("set_ranges_per_commit", Json.Float r.set_ranges_per_commit);
      ("log_bytes_per_commit", Json.Float r.log_bytes_per_commit);
      ("engine_txns_per_commit", Json.Float r.engine_txns_per_commit);
      ("vm_faults", Json.Int r.vm_faults);
      ("vm_evictions", Json.Int r.vm_evictions);
      ("vm_pageouts", Json.Int r.vm_pageouts);
      ("heap_allocated_bytes", Json.Int r.heap_allocated_bytes);
      ("heap_free_bytes", Json.Int r.heap_free_bytes);
      ("heap_free_list", Json.Int r.heap_free_list);
      ("tree_length", Json.Int r.tree_length);
      ("splits", Json.Int r.splits);
      ("merges", Json.Int r.merges);
      ("serial_equal", Json.Bool r.serial_equal);
    ]

let pp_table fmt results =
  Format.fprintf fmt
    "%-7s %8s %-18s %5s | %9s %9s %6s %6s | %9s %9s %9s | %9s %8s %8s %8s | \
     %8s %6s %6s@\n"
    "mix" "records" "load" "batch" "committed" "tps" "shed" "abort" "p50(ms)"
    "p95(ms)" "p99(ms)" "syncs/txn" "sr/txn" "logB/txn" "etxn/txn" "faults"
    "splits" "serial";
  Format.fprintf fmt "%s@\n" (String.make 172 '-');
  List.iter
    (fun r ->
      Format.fprintf fmt
        "%-7s %8d %-18s %5d | %9d %9.1f %6d %6d | %9.2f %9.2f %9.2f | %9.3f \
         %8.2f %8.1f %8.3f | %8d %6d %6s@\n"
        (Ycsb.mix_name r.cfg.mix) r.cfg.records (Server.load_name r.cfg.load)
        r.cfg.batch_max r.committed r.throughput_tps r.shed r.aborts
        (r.p50_latency_us /. 1e3)
        (r.p95_latency_us /. 1e3)
        (r.p99_latency_us /. 1e3)
        r.syncs_per_commit r.set_ranges_per_commit r.log_bytes_per_commit
        r.engine_txns_per_commit r.vm_faults r.splits
        (if r.serial_equal then "ok" else "FAIL"))
    results
