module Clock = Rvm_util.Clock
module Cost_model = Rvm_util.Cost_model
module Rng = Rvm_util.Rng
module Mem_device = Rvm_disk.Mem_device
module Device = Rvm_disk.Device
module Stack = Rvm_disk.Stack
module Rvm = Rvm_core.Rvm
module Options = Rvm_core.Options
module Multi = Rvm_shard.Multi
module Lock_mgr = Rvm_layers.Lock_mgr
module Tpca = Rvm_workload.Tpca
module Registry = Rvm_obs.Registry
module Json = Rvm_obs.Json
module Timeseries = Rvm_obs.Timeseries
module Monitor = Rvm_obs.Monitor

type load = Open_loop of float | Closed_loop of { sessions : int; think_us : float }

let load_name = function
  | Open_loop tps -> Printf.sprintf "open:%.6gtps" tps
  | Closed_loop { sessions; think_us } ->
    Printf.sprintf "closed:%dx%.6gus" sessions think_us

type config = {
  accounts : int;
  shards : int;
  zipf_s : float;
  transfer_pct : int;
  requests : int;
  seed : int64;
  load : load;
  batch_max : int;
  max_inflight : int;
  max_queue : int;
  log_size : int;
  background_truncation : bool;
  elr : bool;
  read_pct : int;
}

let default_config =
  {
    accounts = 1_000;
    shards = 1;
    zipf_s = 0.8;
    transfer_pct = 25;
    requests = 400;
    seed = 42L;
    load = Open_loop 40.;
    batch_max = Scheduler.default_config.Scheduler.batch_max;
    max_inflight = Admission.default.Admission.max_inflight;
    max_queue = Admission.default.Admission.max_queue;
    log_size = 4 * 1024 * 1024;
    background_truncation = true;
    elr = true;
    read_pct = 0;
  }

type result = {
  cfg : config;
  committed : int;
  reads : int;
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
  read_p99_latency_us : float;
  snapshot_read_fraction : float;
  log_writes : int;
  log_syncs : int;
  syncs_per_commit : float;
  writes_per_commit : float;
  cross_committed : int;
  cross_aborted : int;
  cross_abort_rate : float;
}

(* Exact percentile over the raw latency samples (nearest-rank), not the
   histogram's power-of-two buckets — sweeps compare configurations, so
   bucket-quantization noise matters. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* Move [a.(i)] down the max-heap [a.(0 .. len - 1)] until it is no
   smaller than its children. *)
let sift_down (a : float array) i len =
  let i = ref i and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    if l >= len then sifting := false
    else begin
      let c = if l + 1 < len && a.(l + 1) > a.(l) then l + 1 else l in
      if a.(c) > a.(!i) then begin
        let x = a.(!i) in
        a.(!i) <- a.(c);
        a.(c) <- x;
        i := c
      end
      else sifting := false
    end
  done

(* A heap sort in place, comparing unboxed floats: [Array.sort compare]
   boxes both operands of every comparison. On samples with no NaN it
   leaves the array [Array.sort compare] would. *)
let sort_floats (a : float array) =
  let n = Array.length a in
  for i = (n / 2) - 1 downto 0 do
    sift_down a i n
  done;
  for last = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift_down a 0 last
  done

let page_size = 4096

type backend = Engine.backend = Single of Rvm.t | Sharded of Multi.t

type world = {
  engine : Engine.t;
  backend : backend;
  clock : Clock.t;
  obs : Registry.t;
  placement : Placement.t;
  log_devs : Device.t array;  (* stats at the physical-device layer *)
}

let options_of cfg =
  let o = Options.default in
  (* With the scheduler driving truncation from its background slot, the
     inline commit-path trigger must stay quiet — otherwise a commit that
     tips occupancy over the threshold pays a full synchronous truncation
     instead of letting the slot amortize it. *)
  let o = { o with Options.auto_truncate = not cfg.background_truncation } in
  (* Incremental mode (Figure 7), not epoch: the server's reclamation
     must be pausable. An epoch run's freeze re-reads the whole live
     window through the log device (the recovery scanner) in one step —
     seconds of charged reads at 1993 transfer rates, unsplittable from
     the scheduler's point of view. The incremental page queue is
     maintained online at commit time, so its steps only write pages
     already in memory; epoch remains the blocked-queue critical
     fallback. *)
  { o with Options.truncation_mode = Rvm_core.Types.Incremental }

(* Shard s holds the accounts with index ≡ s (mod shards) plus its own
   teller array, branch array and audit trail, in its own segment on its
   own data disk — so a Payment is always single-shard and a Transfer
   crosses exactly when its two accounts interleave onto different
   shards. *)
let shard_layouts cfg =
  let n = cfg.shards in
  let next_base = ref (16 * page_size) in
  Array.init n (fun s ->
      let accts = (cfg.accounts + n - 1 - s) / n in
      let l = Tpca.layout ~accounts:accts ~base:!next_base ~page_size in
      next_base := !next_base + l.Tpca.total_len + (16 * page_size);
      l)

(* The dec5000 disks under every server world: the log disk and the data
   disk, each a latency layer over a memory store named [log<suffix>] or
   [seg<suffix>]. *)
let devices ~clock ~suffix ~log_size ~seg_size =
  let model = Cost_model.dec5000 in
  let log =
    Stack.with_latency ~clock ~disk:model.Cost_model.log_disk ()
      (Mem_device.create ~name:("log" ^ suffix) ~size:log_size ())
  in
  let seg =
    Stack.with_latency ~seek_fraction:0.08 ~sector:page_size ~clock
      ~disk:model.Cost_model.data_disk ()
      (Mem_device.create ~name:("seg" ^ suffix) ~size:seg_size ())
  in
  (log, seg)

(* Open the engine on one formatted log and one segment per shard and map
   shard s's layout. *)
let open_layouts cfg layouts ~clock ~obs ~logs ~segs =
  if Array.length logs <> cfg.shards then
    invalid_arg
      (Printf.sprintf "Server.open_world: %d shards need %d logs, got %d"
         cfg.shards cfg.shards (Array.length logs));
  let engine, backend =
    Engine.initialize ~options:(options_of cfg) ~clock ~obs ~logs ~segs ()
  in
  Array.iteri
    (fun shard (l : Tpca.layout) ->
      ignore
        (Engine.map backend ~vaddr:l.Tpca.base ~shard ~seg_off:0
           ~len:l.Tpca.total_len ()))
    layouts;
  { engine; backend; clock; obs; placement = Placement.make ~layouts;
    log_devs = logs }

let open_world cfg = open_layouts cfg (shard_layouts cfg)

let build_world cfg =
  if cfg.shards < 1 then invalid_arg "Server: shards must be positive";
  if cfg.shards > cfg.accounts then
    invalid_arg "Server: more shards than accounts";
  let clock = Clock.simulated () in
  (* World construction — formatting the logs, cold recovery scans,
     mapping the segments in — is setup, not served load: suspend the
     clock so the sweep measures steady-state serving from t=0 and the
     per-shard recovery reads don't bill the sharded configurations for
     scanning [shards] times as many log devices. *)
  Clock.suspend clock @@ fun () ->
  let n = cfg.shards in
  let layouts = shard_layouts cfg in
  let devs =
    Array.init n (fun s ->
        devices ~clock
          ~suffix:(if n = 1 then "" else string_of_int s)
          ~log_size:cfg.log_size
          ~seg_size:(layouts.(s).Tpca.total_len + page_size))
  in
  let logs = Array.map fst devs in
  Multi.create_logs logs;
  open_layouts cfg layouts ~clock ~obs:(Registry.create ()) ~logs
    ~segs:(Array.map snd devs)

(* {2 The serving half, shared by every workload} *)

let scheduler cfg w ~gen ~steps ~label =
  let rng = Rng.create ~seed:cfg.seed in
  let gen_rng = Rng.split rng in
  let arrival_rng = Rng.split rng in
  let backoff_rng = Rng.split rng in
  let start_us = Clock.now_us w.clock in
  let arrivals =
    match cfg.load with
    | Open_loop rate_tps ->
      Arrivals.open_loop ~start_us ~rate_tps ~requests:cfg.requests
        ~rng:arrival_rng ()
    | Closed_loop { sessions; think_us } ->
      Arrivals.closed_loop ~start_us ~sessions ~think_us
        ~requests:cfg.requests ~rng:arrival_rng ()
  in
  let admission =
    Admission.create ~obs:w.obs
      { Admission.max_inflight = cfg.max_inflight; max_queue = cfg.max_queue }
  in
  let scfg =
    {
      Scheduler.batch_max = cfg.batch_max;
      background_truncation = cfg.background_truncation;
      elr = cfg.elr;
    }
  in
  Scheduler.create ~cfg:scfg ~steps ~label ~engine:w.engine ~clock:w.clock
    ~obs:w.obs ~lock_mgr:(Lock_mgr.create ()) ~admission ~arrivals
    ~gen:(gen gen_rng) ~rng:backoff_rng

(* {2 TPC-A as scheduler steps} *)

(* One class of lock keys — accounts "a:<i>", tellers "t:<i>" or
   branches "b:<i>" — with each key, and each [Lock] step on it, made on
   its first use and kept for the scheduler's life: a plan names them
   without allocating them again. *)
type lock_class = {
  prefix : string;
  keys : string option array;
  locks : Scheduler.step option array;  (* three modes per key *)
}

let lock_class prefix n =
  { prefix; keys = Array.make n None; locks = Array.make (3 * n) None }

let key c i =
  match c.keys.(i) with
  | Some k -> k
  | None ->
    let k = c.prefix ^ string_of_int i in
    c.keys.(i) <- Some k;
    k

let lock c mode i =
  let j =
    (3 * i)
    + match mode with Lock_mgr.Shared -> 0 | Update -> 1 | Exclusive -> 2
  in
  match c.locks.(j) with
  | Some step -> step
  | None ->
    let step = Scheduler.Lock (mode, key c i) in
    c.locks.(j) <- Some step;
    step

(* What TPC-A's plans share over one world: its engine and placement,
   the lock classes, and the buffers the [Run] steps store from. The
   engine copies what it stores, and the scheduler runs one step at a
   time, so one buffer of each size serves every request. *)
type tpca = {
  eng : Engine.t;
  pl : Placement.t;
  account_locks : lock_class;
  teller_locks : lock_class;
  branch_locks : lock_class;
  word : Bytes.t;  (* a balance or stamp *)
  entry : Bytes.t;  (* an audit entry; its last 32 bytes stay zero *)
}

let tpca_of cfg w =
  let shards = Placement.shards w.placement in
  {
    eng = w.engine;
    pl = w.placement;
    account_locks = lock_class "a:" cfg.accounts;
    teller_locks = lock_class "t:" (shards * Tpca.tellers);
    branch_locks = lock_class "b:" (shards * Tpca.branches);
    word = Bytes.create 8;
    entry = Bytes.make Tpca.audit_size '\000';
  }

let store_i64 p ~addr v =
  Bytes.set_int64_le p.word 0 v;
  p.eng.Engine.store ~addr p.word

(* Add [d] to the balance leading the [len]-byte record at [addr]. *)
let add p tid ~addr ~len d =
  p.eng.Engine.set_range tid ~addr ~len;
  let v = Bytes.get_int64_le (p.eng.Engine.load ~addr ~len:8) 0 in
  store_i64 p ~addr (Int64.add v d)

(* An account update also records the request that made it. *)
let account_step p (s : Tpca.spec) i d =
  let addr = Placement.account_addr p.pl i in
  Scheduler.Run
    (fun tid ->
      add p tid ~addr ~len:Tpca.account_size d;
      store_i64 p ~addr:(addr + 8) (Int64.of_int s.Tpca.id))

let balance_step p addr d =
  Scheduler.Run (fun tid -> add p tid ~addr ~len:Tpca.balance_size d)

let audit_step p (s : Tpca.spec) =
  Scheduler.Run
    (fun tid ->
      (* The slot is drawn at write time, never when the steps are built
         (they are rebuilt after every abort), and the write is followed
         by the commit within the same scheduler turn, so no two live
         transactions ever hold set_ranges over one slot, even after
         wrap-around. *)
      let addr = Placement.audit_next p.pl ~anchor:s.Tpca.account in
      p.eng.Engine.set_range tid ~addr ~len:Tpca.audit_size;
      let e = p.entry in
      Bytes.set_int64_le e 0 (Int64.of_int s.Tpca.account);
      Bytes.set_int64_le e 8 (Int64.of_int s.Tpca.teller);
      Bytes.set_int64_le e 16 s.Tpca.delta;
      (* id + 1, so a zeroed (never-written) slot is distinguishable from
         request 0's entry — the crash explorer reads recovered membership
         back from these words *)
      Bytes.set_int64_le e 24 (Int64.of_int (s.Tpca.id + 1));
      p.eng.Engine.store ~addr e)

(* TPC-A's requests as lock acquisitions interleaved with the balance
   updates they cover, against the world's engine and placement. Teller,
   branch and audit structures are placed on the shard of the request's
   primary account (its "anchor"), so Payments stay single-shard and only
   a Transfer whose accounts route to different shards crosses. Lock
   identities come from the placement too: on a sharded world teller 3 of
   shard 0 and teller 3 of shard 1 are distinct records and must not
   serialize against each other. *)
let tpca_steps p (s : Tpca.spec) =
  let pl = p.pl in
  let anchor = s.Tpca.account in
  let branch = s.Tpca.teller mod Tpca.branches in
  match s.Tpca.kind with
  | Tpca.Payment ->
    (* TPC-A reads the teller and branch rows (the balance fetch precedes
       the update) before writing them: those read steps take Update mode
       and upgrade to Exclusive only at the write. A second payment on a
       hot teller queues at its Update request; had both read under
       Shared, each would then wait for the other to leave at its upgrade
       — a deadlock, and an abort, on every such overlap. Lookups read
       lock-free, so no Shared holder is ever kept waiting. *)
    let ti = Placement.teller_id pl ~anchor s.Tpca.teller in
    let bi = Placement.branch_id pl ~anchor branch in
    [
      lock p.account_locks Lock_mgr.Exclusive s.Tpca.account;
      account_step p s s.Tpca.account s.Tpca.delta;
      lock p.teller_locks Lock_mgr.Update ti;
      lock p.branch_locks Lock_mgr.Update bi;
      lock p.teller_locks Lock_mgr.Exclusive ti;
      balance_step p
        (Placement.teller_addr pl ~anchor s.Tpca.teller)
        s.Tpca.delta;
      lock p.branch_locks Lock_mgr.Exclusive bi;
      balance_step p (Placement.branch_addr pl ~anchor branch) s.Tpca.delta;
      audit_step p s;
    ]
  | Tpca.Transfer ->
    [
      lock p.account_locks Lock_mgr.Exclusive s.Tpca.account;
      account_step p s s.Tpca.account s.Tpca.delta;
      lock p.account_locks Lock_mgr.Exclusive s.Tpca.account2;
      account_step p s s.Tpca.account2 (Int64.neg s.Tpca.delta);
      audit_step p s;
    ]
  | Tpca.Lookup ->
    [
      Scheduler.Read
        [
          key p.account_locks s.Tpca.account;
          key p.branch_locks (Placement.branch_id pl ~anchor branch);
        ];
    ]

let scheduler_of cfg w =
  scheduler cfg w ~steps:(tpca_steps (tpca_of cfg w))
    ~label:(fun (s : Tpca.spec) -> Tpca.kind_name s.Tpca.kind)
    ~gen:(fun rng ->
      Tpca.make_gen ~read_pct:cfg.read_pct ~accounts:cfg.accounts
        ~zipf_s:cfg.zipf_s ~transfer_pct:cfg.transfer_pct ~rng ())

(* {2 Monitoring}

   The monitor reads the same registry the engine already reports into;
   the extra wiring is gauges (instantaneous signals that have no
   counter) plus the scheduler's quantum hook driving the windowing
   tick. Nothing here charges the simulated clock, so a monitored run
   is byte-identical to a bare one. *)

let default_window_us = 500_000.

let monitor_of ?(window_us = default_window_us) w =
  let eng = w.engine in
  let ts = Timeseries.create ~window_us w.obs in
  Timeseries.gauge ts "log.occupancy" eng.Engine.log_occupancy;
  Timeseries.gauge ts "lsn.commit" (fun () ->
      float_of_int (eng.Engine.commit_lsn ()));
  Timeseries.gauge ts "lsn.durable" (fun () ->
      float_of_int (eng.Engine.durable_lsn ()));
  Timeseries.gauge ts "truncation.due" (fun () ->
      if eng.Engine.truncation_due () then 1. else 0.);
  Monitor.create ~rules:(Monitor.default_rules ~shards:eng.Engine.shards ()) ts
    w.obs

let log_totals w =
  Array.fold_left
    (fun (ws, ss) (d : Device.t) ->
      (ws + d.Device.stats.Device.writes, ss + d.Device.stats.Device.syncs))
    (0, 0) w.log_devs

(* Leave any final no-flush residue where the run left it: syncs are
   attributed per committed request, and the scheduler always closes its
   last batch before the arrival process drains. *)
let serve ?monitor w sched =
  let emit close =
    Option.iter
      (fun (mon, on_window) ->
        List.iter on_window (close mon ~now_us:(Clock.now_us w.clock)))
      monitor
  in
  if Option.is_some monitor then
    Scheduler.set_on_quantum sched (fun () -> emit Monitor.tick);
  let writes0, syncs0 = log_totals w in
  let tally = Scheduler.run sched in
  emit Monitor.finish;
  let writes1, syncs1 = log_totals w in
  (tally, writes1 - writes0, syncs1 - syncs0)

let reduce cfg w (tally, log_writes, log_syncs) =
  let cross_committed, cross_aborted =
    match w.backend with
    | Single _ -> (0, 0)
    | Sharded m -> (Multi.cross_committed m, Multi.cross_aborted m)
  in
  let lat = Array.copy tally.Scheduler.latencies_us in
  sort_floats lat;
  let rlat = Array.copy tally.Scheduler.read_latencies_us in
  sort_floats rlat;
  let n = Array.length lat in
  let committed = tally.Scheduler.committed in
  let reads = tally.Scheduler.reads in
  let per c = if committed = 0 then 0. else float_of_int c /. float_of_int committed in
  {
    cfg;
    committed;
    reads;
    shed = tally.Scheduler.shed;
    aborts = tally.Scheduler.aborts;
    abort_rate =
      (let total = tally.Scheduler.aborts + committed in
       if total = 0 then 0.
       else float_of_int tally.Scheduler.aborts /. float_of_int total);
    batches = tally.Scheduler.batches;
    duration_us = tally.Scheduler.end_us;
    throughput_tps =
      (if tally.Scheduler.end_us > 0. then
         float_of_int committed /. (tally.Scheduler.end_us /. 1e6)
       else 0.);
    mean_latency_us =
      (if n = 0 then 0. else Array.fold_left ( +. ) 0. lat /. float_of_int n);
    p50_latency_us = percentile lat 50.;
    p95_latency_us = percentile lat 95.;
    p99_latency_us = percentile lat 99.;
    read_p99_latency_us = percentile rlat 99.;
    snapshot_read_fraction =
      (let total = reads + committed in
       if total = 0 then 0. else float_of_int reads /. float_of_int total);
    log_writes;
    log_syncs;
    syncs_per_commit = per log_syncs;
    writes_per_commit = per log_writes;
    cross_committed;
    cross_aborted;
    cross_abort_rate =
      (let total = cross_committed + cross_aborted in
       if total = 0 then 0.
       else float_of_int cross_aborted /. float_of_int total);
  }

(* {2 TPC-A runs} *)

let run cfg =
  let w = build_world cfg in
  reduce cfg w (serve w (scheduler_of cfg w))

let run_monitored ?window_us ?(on_window = fun _ _ -> ()) cfg =
  let w = build_world cfg in
  let sched = scheduler_of cfg w in
  let mon = monitor_of ?window_us w in
  let served = serve ~monitor:(mon, on_window mon) w sched in
  (reduce cfg w served, mon)

let run_with_world cfg =
  let w = build_world cfg in
  (w, Scheduler.run (scheduler_of cfg w))

let result_to_json r =
  let c = r.cfg in
  Json.Obj
    [
      ("load", Json.String (load_name c.load));
      ( "offered_tps",
        match c.load with
        | Open_loop tps -> Json.Float tps
        | Closed_loop _ -> Json.Null );
      ("shards", Json.Int c.shards);
      ("batch_max", Json.Int c.batch_max);
      ("requests", Json.Int c.requests);
      ("seed", Json.Int (Int64.to_int c.seed));
      ("zipf_s", Json.Float c.zipf_s);
      ("elr", Json.Bool c.elr);
      ("read_pct", Json.Int c.read_pct);
      ("committed", Json.Int r.committed);
      ("reads", Json.Int r.reads);
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
      ("read_p99_latency_us", Json.Float r.read_p99_latency_us);
      ("snapshot_read_fraction", Json.Float r.snapshot_read_fraction);
      ("log_writes", Json.Int r.log_writes);
      ("log_syncs", Json.Int r.log_syncs);
      ("syncs_per_commit", Json.Float r.syncs_per_commit);
      ("writes_per_commit", Json.Float r.writes_per_commit);
      ("cross_committed", Json.Int r.cross_committed);
      ("cross_aborted", Json.Int r.cross_aborted);
      ("cross_abort_rate", Json.Float r.cross_abort_rate);
    ]

let pp_table fmt results =
  Format.fprintf fmt
    "%-18s %6s %5s | %9s %9s %6s %6s | %9s %9s %9s | %9s %5s@\n" "load"
    "shards" "batch" "committed" "tps" "shed" "abort" "p50(ms)" "p95(ms)"
    "p99(ms)" "syncs/txn" "cross";
  Format.fprintf fmt "%s@\n" (String.make 116 '-');
  List.iter
    (fun r ->
      Format.fprintf fmt
        "%-18s %6d %5d | %9d %9.1f %6d %6d | %9.2f %9.2f %9.2f | %9.3f %5d@\n"
        (load_name r.cfg.load) r.cfg.shards r.cfg.batch_max r.committed
        r.throughput_tps r.shed r.aborts
        (r.p50_latency_us /. 1e3)
        (r.p95_latency_us /. 1e3)
        (r.p99_latency_us /. 1e3)
        r.syncs_per_commit r.cross_committed)
    results
