(* The four workloads. Each is generated from the seed alone, measured in
   repetitions over five inputs drawn from it, checked by correctness
   gates, and reduced to a Report.t. *)

module Server = Rvm_server.Server
module Scheduler = Rvm_server.Scheduler
module Placement = Rvm_server.Placement
module Engine = Rvm_server.Engine
module Ycsb_run = Rvm_server.Ycsb_run
module Ycsb = Rvm_workload.Ycsb
module Tpca = Rvm_workload.Tpca
module Rvm = Rvm_core.Rvm
module Types = Rvm_core.Types
module Options = Rvm_core.Options
module Pbtree = Rvm_pds.Pbtree
module Clock = Rvm_util.Clock
module Cost_model = Rvm_util.Cost_model
module Rng = Rvm_util.Rng
module Stack = Rvm_disk.Stack
module Mem_device = Rvm_disk.Mem_device
module Registry = Rvm_obs.Registry
module Histogram = Rvm_obs.Histogram
module Counter = Rvm_obs.Counter

type scale = Full | Quick

type opts = { seed : int; seconds : float; scale : scale; traced : bool }

let names = [ "tpca"; "ycsb-a-paged"; "ycsb-e-resident"; "crash-recover" ]
let full o = o.scale = Full
let ratio a b = if b = 0. then 0. else a /. b
let mib = 1024 * 1024

(* {1 Repetitions} *)

type rep = {
  host_s : float;  (** serve-phase host time *)
  alloc_w : float;  (** serve-phase allocated words *)
  ops : int;  (** completed operations *)
  attempted : int;
  failed : int;  (** refused requests plus failed gates *)
  sim : (string * float) list;  (** p50/p99/p999 on the simulated clock *)
  fingerprint : string;
      (** every simulated outcome; equal across repetitions of one input *)
  gates : (string * bool) list;
  host_extras : (string * float) list;
      (** other host timings of the repetition, reported with their spread *)
}

let rep ?(host_extras = []) ~host_s ~alloc_w ~ops ~attempted ~refused ~sim
    ~fingerprint gates =
  let failed_gates = List.length (List.filter (fun (_, ok) -> not ok) gates) in
  { host_s; alloc_w; ops; attempted; failed = refused + failed_gates; sim;
    fingerprint; gates; host_extras }

(* A run draws [subs] workloads from its seed, one per repetition, so a
   simulated metric is the median over five independent inputs: steadier
   from seed to seed than one input's tail. Repetitions past the fifth
   repeat the inputs in turn. *)
let subs = 5

let sub_seed o sub = Int64.of_int ((o.seed * 16) + sub)

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. float_of_int mib

(* The first run of a process is slower (heap growth, cold code), so full
   scale discards one warm-up and then repeats until [seconds] of wall
   time have passed, at least [subs] times. Quick scale runs once. The
   warm-up shares the first input, so its outcome checks determinism.
   The heap peak is read once the minimum repetitions are done: a fixed
   amount of work, whatever the host's speed. *)
let repeat o serve =
  let warm_up = if full o then [ fst (serve ~sub:0 None) ] else [] in
  let min_reps, seconds = if full o then (subs, o.seconds) else (1, 0.) in
  let t0 = Probe.wall () in
  let heap_mb = ref nan in
  let rec go acc n =
    if n = min_reps then heap_mb := heap_peak_mb ();
    if n >= min_reps && Probe.wall () -. t0 >= seconds then List.rev acc
    else go (fst (serve ~sub:(n mod subs) None) :: acc) (n + 1)
  in
  let reps = go [] 0 in
  (warm_up, reps, !heap_mb)

type 'c traced_run = {
  plain : rep * 'c;  (** the first untraced repetition *)
  traced : rep * 'c;  (** the last traced repetition *)
  tracer : Probe.tracer;  (** its spans *)
  untraced_host : float list;
  traced_host : float list;
  all : rep list;
}

(* The traced mode: a warm-up, then untraced and traced repetitions of the
   first input in turn, twice at full scale, so the tracing overhead
   compares the faster of each. *)
let traced_run o serve =
  if full o then ignore (serve ~sub:0 None);
  let rounds = if full o then 2 else 1 in
  let rec go n acc =
    if n = rounds then List.rev acc
    else
      let plain = serve ~sub:0 None in
      let tracer = Probe.tracer () in
      let traced = serve ~sub:0 (Some tracer) in
      go (n + 1) ((plain, traced, tracer) :: acc)
  in
  let rounds = go 0 [] in
  let plain, _, _ = List.hd rounds in
  let _, traced, tracer = List.nth rounds (List.length rounds - 1) in
  let host f = List.map (fun r -> (fst (f r)).host_s) rounds in
  {
    plain;
    traced;
    tracer;
    untraced_host = host (fun (p, _, _) -> p);
    traced_host = host (fun (_, t, _) -> t);
    all = List.concat_map (fun (p, t, _) -> [ fst p; fst t ]) rounds;
  }

(* Set-up runs [runs] times (once at quick scale) and setup_s is the
   median. The count is fixed, not timed, so the process's allocation
   history, and with it heap_peak_mb, does not depend on host speed.
   Every world but the last is released. *)
let time_setup o ~runs ~release build =
  let runs = if full o then runs else 1 in
  let rec go times n =
    let m = Probe.measure build in
    let times = m.Probe.host_s :: times in
    if n + 1 >= runs then (List.rev times, m)
    else begin
      release m.Probe.value;
      go times (n + 1)
    end
  in
  go [] 0

(* Memory devices stay registered for snapshots until closed, so every
   world a run builds closes its devices when done with them. *)
let close (d : Rvm_disk.Device.t) = d.Rvm_disk.Device.close ()
let close_segment rvm = close (Rvm_core.Segment.device (Rvm.segment rvm 1))

let sorted_copy a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let latency_ms sorted =
  [
    ("p50_ms", Server.percentile sorted 50. /. 1e3);
    ("p99_ms", Server.percentile sorted 99. /. 1e3);
    ("p999_ms", Server.percentile sorted 99.9 /. 1e3);
  ]

let fingerprint obs sim extra =
  let f (n, x) = Printf.sprintf "%s=%h" n x in
  String.concat ";"
    (List.map f (sim @ extra)
    @ List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) (Registry.counters obs)
    @ List.map (fun (n, h) -> f (n, Histogram.sum h)) (Registry.histograms obs))

(* Gates of several repetitions: each must hold in every one. *)
let merge_gates reps extra =
  let first = List.hd reps in
  List.map
    (fun (g, _) -> (g, List.for_all (fun r -> List.assoc g r.gates) reps))
    first.gates
  @ extra

let make_report o ~workload ~reps ~extra_gates ~repetitions ?layers ?tracer
    values =
  let gates = merge_gates reps extra_gates in
  let extra_failed = List.length (List.filter (fun (_, ok) -> not ok) extra_gates) in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reps in
  Report.make ~workload ~seed:o.seed
    ~scale:(if full o then "full" else "quick")
    ~attempted:(sum (fun r -> r.attempted))
    ~failed:(sum (fun r -> r.failed) + extra_failed)
    ~gates ~repetitions ?layers ?tracer values

(* Simulated metrics: median over the distinct inputs. Host time per op:
   the fastest repetition, since interference from other processes only
   ever adds time; on a shared machine the median of five moved 9-25% from
   run to run and the minimum 3-18%. The median and quartiles stay in the
   provenance. *)
let plain_report o ~workload ~setup_times (warm_up, reps, heap_mb) =
  let per_op f = List.map (fun r -> f r /. float_of_int r.ops) reps in
  let host = per_op (fun r -> r.host_s *. 1e6) in
  let alloc = per_op (fun r -> r.alloc_w /. 1e3) in
  let first = List.hd reps in
  let extras =
    List.map
      (fun (n, _) -> (n, List.map (fun r -> List.assoc n r.host_extras) reps))
      first.host_extras
  in
  let distinct = List.filteri (fun i _ -> i < subs) reps in
  let sim =
    List.map
      (fun (n, _) -> (n, Probe.median (List.map (fun r -> List.assoc n r.sim) distinct)))
      first.sim
  in
  (* Repetitions of one input must agree exactly: the warm-up with the
     first repetition, and each repetition with the one [subs] before. *)
  let deterministic =
    let a = Array.of_list reps in
    List.for_all (fun w -> w.fingerprint = a.(0).fingerprint) warm_up
    && Array.for_all Fun.id
         (Array.mapi (fun i r -> i < subs || r.fingerprint = a.(i - subs).fingerprint) a)
  in
  make_report o ~workload ~reps
    ~extra_gates:[ ("repetitions_deterministic", deterministic) ]
    ~repetitions:
      ([ ("setup_s", setup_times); ("host_us_per_op", host); ("alloc_kw_per_op", alloc) ]
      @ extras)
    (sim
    @ [
        ("host_us_per_op", List.fold_left Float.min infinity host);
        ("alloc_kw_per_op", Probe.median alloc);
        ("setup_s", Probe.median setup_times);
        ("heap_peak_mb", heap_mb);
      ])

(* {1 Per-layer readings} *)

(* Registry state at the start of the serve phase, so counters and
   histograms read afterwards cover serving only. *)
type base = {
  counts : (string * int) list;
  hists : (string * Histogram.snapshot) list;
}

let base obs =
  {
    counts = Registry.counters obs;
    hists = List.map (fun (n, h) -> (n, Histogram.snapshot h)) (Registry.histograms obs);
  }

let count obs b name =
  float_of_int
    (Counter.get (Registry.counter obs name)
    - Option.value ~default:0 (List.assoc_opt name b.counts))

(* Serve-phase window of a histogram; read each name once, since the
   window advances the base's cursor. *)
let window obs b name =
  Histogram.advance (Registry.histogram obs name)
    (match List.assoc_opt name b.hists with
    | Some s -> s
    | None -> Histogram.zero_snapshot ())

let p99_ms obs b name = (window obs b name).Histogram.w_p99 /. 1e3

let batch_size_mean obs b =
  let w = window obs b "server.batch.size" in
  ratio w.Histogram.w_sum (float_of_int w.Histogram.w_count)

let int_ratio a b = ratio (float_of_int a) (float_of_int b)

let engine_layers obs b ~ops ~span_us ~log_size ~user_bytes =
  let c = count obs b in
  let per x = ratio x (float_of_int ops) in
  let log_bytes = c "disk.log.bytes_written" in
  let busy_us =
    (window obs b "disk.log.write.us").Histogram.w_sum
    +. (window obs b "disk.log.sync.us").Histogram.w_sum
  in
  [
    ("rvm.truncation_pause_p99_ms", p99_ms obs b "truncation.pause.us");
    ("rvm.log_wraps", log_bytes /. float_of_int log_size);
    ("log.force_p99_ms", p99_ms obs b "log.force.us");
    ("log.syncs_per_op", per (c "disk.log.syncs"));
    ("log.absorbed_frac", ratio (c "log.force.absorbed") (c "log.append.records"));
    ("log.bytes_per_op", per log_bytes);
    ("log.write_amp", ratio log_bytes user_bytes);
    ("disk.log.writes_per_op", per (c "disk.log.writes"));
    ("disk.seg.writes_per_op", per (c "disk.seg.writes"));
    ("disk.log.busy_frac", ratio busy_us span_us);
  ]

let call_metrics tr ~ops =
  List.concat_map
    (fun c ->
      let s = Probe.stat tr ("rvm." ^ c) in
      let n = float_of_int s.Probe.calls in
      [
        ("rvm." ^ c ^ ".host_us", ratio s.Probe.host_us n);
        ("rvm." ^ c ^ ".alloc_w", ratio s.Probe.alloc_w n);
        ("rvm." ^ c ^ ".per_op", n /. float_of_int ops);
      ])
    Report.rvm_calls

(* Tracer spans grouped by layer: the span-name prefix, with the B-tree's
   spans filed under its library directory. *)
let layer_rows tr ~ops =
  let layer name =
    match String.index_opt name '.' with
    | Some i -> (match String.sub name 0 i with "pbtree" -> "pds" | l -> l)
    | None -> name
  in
  let per x = x /. float_of_int ops in
  Hashtbl.fold (fun name s acc -> (layer name, s) :: acc) tr.Probe.stats []
  |> List.sort compare
  |> List.fold_left
       (fun acc (l, (s : Probe.stat)) ->
         match acc with
         | (r : Report.layer_row) :: rest when r.Report.layer = l ->
           {
             r with
             calls_per_op = r.calls_per_op +. per (float_of_int s.calls);
             host_us_per_op = r.host_us_per_op +. per s.host_us;
             self_us_per_op = r.self_us_per_op +. per s.self_us;
             words_per_op = r.words_per_op +. per s.alloc_w;
           }
           :: rest
         | _ ->
           {
             Report.layer = l;
             calls_per_op = per (float_of_int s.calls);
             host_us_per_op = per s.host_us;
             self_us_per_op = per s.self_us;
             words_per_op = per s.alloc_w;
           }
           :: acc)
       []
  |> List.rev

let traced_report o ~workload run ?(extra_gates = []) values =
  let first = List.hd run.all and traced = fst run.traced in
  let fastest = List.fold_left Float.min infinity in
  make_report o ~workload ~reps:run.all ~tracer:run.tracer
    ~extra_gates:
      (( "trace_preserves_sim",
         List.for_all (fun r -> r.fingerprint = first.fingerprint) run.all )
      :: extra_gates)
    ~repetitions:
      [ ("untraced_host_s", run.untraced_host); ("traced_host_s", run.traced_host) ]
    ~layers:(layer_rows run.tracer ~ops:traced.ops)
    (values
    @ call_metrics run.tracer ~ops:traced.ops
    @ [
        ( "obs.trace_overhead_frac",
          (fastest run.traced_host /. fastest run.untraced_host) -. 1. );
      ])

(* {1 tpca}

   TPC-A through the full serving stack, open loop on the simulated clock.
   The 1 MiB log makes background truncation wrap several times a run. *)

let tpca_rungs = [ 120.; 140.; 160.; 180.; 200.; 220. ]
let tpca_headline = 120.
let slo_us = 150_000.

(* Admission keeps 8 requests in flight, as by default, but queues 64
   rather than 16: with 16, a burst arriving during a truncation pause was
   occasionally refused even at 110 tps, and the benchmark's workloads are
   sized so that no request is refused. Overload still shows, as latency
   and backlog, on the SLO ladder's upper rungs. *)
let max_queue = 64

let tpca_cfg o ~sub rate =
  {
    Server.default_config with
    Server.accounts = 1_000;
    zipf_s = 0.8;
    transfer_pct = 25;
    read_pct = 20;
    batch_max = 8;
    max_queue;
    elr = true;
    log_size = mib;
    requests = (if full o then 20_000 else 600);
    seed = sub_seed o sub;
    load = Server.Open_loop rate;
  }

(* Payments add their delta to one account, teller and branch; transfers
   move it between two accounts. Whatever subset committed, the three sums
   agree. *)
let balances_conserved cfg (w : Server.world) =
  let pl = w.Server.placement in
  let sum n addr =
    Seq.fold_left
      (fun acc i ->
        let cell = w.Server.engine.Engine.load ~addr:(addr i) ~len:8 in
        Int64.add acc (Bytes.get_int64_le cell 0))
      0L (Seq.init n Fun.id)
  in
  let accounts = sum cfg.Server.accounts (Placement.account_addr pl) in
  accounts = sum Tpca.tellers (Placement.teller_addr pl ~anchor:0)
  && accounts = sum Tpca.branches (Placement.branch_addr pl ~anchor:0)

let release_server (w : Server.world) =
  Array.iter close w.Server.log_devs;
  match w.Server.backend with
  | Server.Single rvm -> close_segment rvm
  | Server.Sharded _ -> ()

let tpca_serve o ~sub tr =
  let cfg = tpca_cfg o ~sub tpca_headline in
  let w = Server.build_world cfg in
  let b = base w.Server.obs in
  let served =
    match tr with
    | Some tr -> { w with Server.engine = Probe.wrap_engine tr w.Server.engine }
    | None -> w
  in
  let sched = Server.scheduler_of cfg served in
  let m =
    Probe.measure (fun () ->
        Probe.maybe_span tr "server.serve" (fun () -> Scheduler.run sched))
  in
  let t = m.Probe.value in
  let lat = sorted_copy t.Scheduler.latencies_us in
  let rlat = sorted_copy t.Scheduler.read_latencies_us in
  let sim = latency_ms lat in
  let fp =
    fingerprint w.Server.obs sim
      [
        ("read_p99", Server.percentile rlat 99.);
        ("end_us", t.Scheduler.end_us);
        ("iterations", float_of_int t.Scheduler.iterations);
      ]
  in
  let r =
    rep ~host_s:m.Probe.host_s ~alloc_w:m.Probe.alloc_w
      ~ops:(t.Scheduler.committed + t.Scheduler.reads)
      ~attempted:cfg.Server.requests ~refused:t.Scheduler.shed ~sim
      ~fingerprint:fp
      [
        ( "requests_accounted",
          t.Scheduler.committed + t.Scheduler.reads + t.Scheduler.shed
          = cfg.Server.requests );
        ("balances_conserved", balances_conserved cfg w);
      ]
  in
  release_server w;
  (r, (w, b, t))

(* A rung meets the SLO when 99% of its requests ack within 150 ms (a
   refused request is a miss) and it drains within 5% of its arrival
   span. *)
let meets_slo cfg rate (t : Scheduler.tally) =
  let within a = Array.fold_left (fun n l -> if l <= slo_us then n + 1 else n) 0 a in
  let ok = within t.Scheduler.latencies_us + within t.Scheduler.read_latencies_us in
  let arrival_span_us = float_of_int cfg.Server.requests /. rate *. 1e6 in
  float_of_int ok >= 0.99 *. float_of_int cfg.Server.requests
  && t.Scheduler.end_us <= 1.05 *. arrival_span_us

(* The highest rung that meets the SLO with every rung below it; rungs
   above the first miss are not run. *)
let slo_tps o ~headline =
  let rec climb best = function
    | [] -> best
    | rate :: rest ->
      let cfg = tpca_cfg o ~sub:0 rate in
      let t =
        if rate = tpca_headline then headline
        else begin
          let w, t = Server.run_with_world cfg in
          release_server w;
          t
        end
      in
      if meets_slo cfg rate t then climb rate rest else best
  in
  climb 0. tpca_rungs

let tpca o =
  let cfg = tpca_cfg o ~sub:0 tpca_headline in
  let setup_times, last =
    time_setup o ~runs:200 ~release:release_server (fun () -> Server.build_world cfg)
  in
  release_server last.Probe.value;
  let serve = tpca_serve o in
  if not o.traced then
    plain_report o ~workload:"tpca" ~setup_times (repeat o serve)
  else begin
    let run = traced_run o serve in
    let _, (_, _, plain_tally) = run.plain in
    let traced, (w, b, t) = run.traced in
    let tr = run.tracer in
    let ops = traced.ops in
    let per x = ratio x (float_of_int ops) in
    let obs = w.Server.obs in
    let c = count obs b in
    let committed = float_of_int t.Scheduler.committed in
    let reads = float_of_int t.Scheduler.reads in
    let aborts = float_of_int t.Scheduler.aborts in
    let engine_us =
      List.fold_left
        (fun acc c -> acc +. (Probe.stat tr ("rvm." ^ c)).Probe.host_us)
        0. Report.rvm_calls
    in
    let serve_self_us = (Probe.stat tr "server.serve").Probe.self_us in
    let serve_us = traced.host_s *. 1e6 in
    traced_report o ~workload:"tpca" run
      ~extra_gates:
        [
          ( "self_plus_engine_is_serve",
            Float.abs (serve_self_us +. engine_us -. serve_us) <= 0.02 *. serve_us );
        ]
      ([
         ("server.queue_wait_p99_ms", p99_ms obs b "server.queue.wait.us");
         ("server.batch_size_mean", batch_size_mean obs b);
         ("server.iterations_per_op", per (float_of_int t.Scheduler.iterations));
         ("server.self_host_us_per_op", per serve_self_us);
         ("server.shed_frac", int_ratio t.Scheduler.shed cfg.Server.requests);
         ("server.snapshot_read_frac", ratio reads (reads +. committed));
         ("server.slo_tps", slo_tps o ~headline:plain_tally);
         ( "server.read_p99_ms",
           Server.percentile (sorted_copy t.Scheduler.read_latencies_us) 99. /. 1e3 );
         ("lock.abort_rate", ratio aborts (aborts +. committed));
         ("lock.retries_per_op", per (c "server.retry"));
       ]
      @ engine_layers obs b ~ops ~span_us:t.Scheduler.end_us
          ~log_size:cfg.Server.log_size
          ~user_bytes:(float_of_int (Probe.counter tr Probe.set_range_bytes))
      @ Report.bypassed [ "rvm.recovery"; "pbtree."; "rds."; "vm." ])
  end

(* {1 YCSB on the recoverable B-tree}

   [Ycsb_run] builds its world (including the bulk load) inside every run,
   so serve-phase host time and allocation are a run's minus its set-up's,
   and serve-phase counters are read against a set-up world's registry:
   set-up is deterministic, so every build ends in the same state. *)

type ycsb = {
  name : string;
  mix : Ycsb.mix;
  rate : float;
  records : int;
  requests : int;
  mem_fraction : float;
}

(* Set-up (the bulk load) is small next to serving, because serve-phase
   host time is a difference of two measurements. A: 10% of the heap's
   pages are resident, well under the live data, and at 30 tps requests
   share forces and queue behind faults, so even the median depends on
   the input (at 10 tps most requests take exactly one force). E: the heap
   has room for the run's inserts; no paging; 150 tps sheds nothing. *)
let ycsb_a =
  { name = "ycsb-a-paged"; mix = Ycsb.A; rate = 30.; records = 2_000;
    requests = 40_000; mem_fraction = 0.1 }

let ycsb_e =
  { name = "ycsb-e-resident"; mix = Ycsb.E; rate = 150.; records = 2_000;
    requests = 100_000; mem_fraction = 0. }

let ycsb_cfg o ~sub s =
  let quick n = if full o then n else n / 20 in
  {
    Ycsb_run.default_config with
    Ycsb_run.mix = s.mix;
    records = quick s.records;
    value_len = 64;
    scan_max = 20;
    degree = 8;
    requests = quick s.requests;
    seed = sub_seed o sub;
    load = Server.Open_loop s.rate;
    batch_max = 8;
    max_queue;
    elr = true;
    log_size = 8 * mib;
    mem_fraction = s.mem_fraction;
  }

let release_ycsb (w : Ycsb_run.world) =
  close w.Ycsb_run.log_dev;
  close_segment w.Ycsb_run.rvm

let ycsb_serve o s ~build_s ~build_w ~sub tr =
  let cfg = ycsb_cfg o ~sub s in
  let m =
    Probe.measure (fun () ->
        Probe.maybe_span tr "server.run_with_world" (fun () ->
            Ycsb_run.run_with_world cfg))
  in
  let r, w = m.Probe.value in
  release_ycsb w;
  let obs = w.Ycsb_run.obs in
  let p999 = Histogram.percentile (Registry.histogram obs "server.latency.us") 99.9 in
  let sim =
    [
      ("p50_ms", r.Ycsb_run.p50_latency_us /. 1e3);
      ("p99_ms", r.Ycsb_run.p99_latency_us /. 1e3);
      ("p999_ms", p999 /. 1e3);
    ]
  in
  let fp =
    fingerprint obs sim
      [
        ("duration_us", r.Ycsb_run.duration_us);
        ("aborts", float_of_int r.Ycsb_run.aborts);
        ("splits", float_of_int r.Ycsb_run.splits);
        ("tree_length", float_of_int r.Ycsb_run.tree_length);
      ]
  in
  let rp =
    rep ~host_s:(m.Probe.host_s -. build_s) ~alloc_w:(m.Probe.alloc_w -. build_w)
      ~ops:r.Ycsb_run.committed ~attempted:cfg.Ycsb_run.requests
      ~refused:r.Ycsb_run.shed ~sim ~fingerprint:fp
      [
        ( "requests_accounted",
          r.Ycsb_run.committed + r.Ycsb_run.shed = cfg.Ycsb_run.requests );
        ("serial_equal", r.Ycsb_run.serial_equal);
      ]
  in
  (rp, (r, w))

(* Post-run probe of point operations: timed gets, then timed puts inside
   a Restore transaction that is aborted, leaving the tree unchanged. *)
let pbtree_probe o cfg tr (w : Ycsb_run.world) =
  let gets, puts = if full o then (10_000, 1_000) else (200, 20) in
  let rng = Rng.create ~seed:(Int64.of_int (o.seed + 1)) in
  let key () = Ycsb.key_of (Rng.int rng cfg.Ycsb_run.records) in
  for _ = 1 to gets do
    let key = key () in
    ignore (Probe.span tr "pbtree.get" (fun () -> Pbtree.get w.Ycsb_run.tree ~key))
  done;
  let tid = Rvm.begin_transaction w.Ycsb_run.rvm ~mode:Types.Restore in
  for i = 1 to puts do
    let key = key () in
    let value = Ycsb.value ~len:cfg.Ycsb_run.value_len ~ver:(i + 1) in
    Probe.span tr "pbtree.put" (fun () -> Pbtree.put w.Ycsb_run.tree tid ~key ~value)
  done;
  Rvm.abort_transaction w.Ycsb_run.rvm tid

let run_ycsb s o =
  let cfg = ycsb_cfg o ~sub:0 s in
  let setup_times, last =
    time_setup o ~runs:5 ~release:release_ycsb (fun () -> Ycsb_run.build_world cfg)
  in
  release_ycsb last.Probe.value;
  let build_s = Probe.median setup_times in
  let b = base last.Probe.value.Ycsb_run.obs in
  let serve = ycsb_serve o s ~build_s ~build_w:last.Probe.alloc_w in
  if not o.traced then plain_report o ~workload:s.name ~setup_times (repeat o serve)
  else begin
    let run = traced_run o serve in
    let traced, (r, w) = run.traced in
    let tr = run.tracer in
    let ops = traced.ops in
    let per x = ratio x (float_of_int ops) in
    let obs = w.Ycsb_run.obs in
    let live_bytes =
      Pbtree.fold w.Ycsb_run.tree ~init:0 ~f:(fun acc ~key ~value ->
          acc + String.length key + String.length value)
    in
    pbtree_probe o cfg tr w;
    let host_us name =
      let st = Probe.stat tr name in
      ratio st.Probe.host_us (float_of_int st.Probe.calls)
    in
    traced_report o ~workload:s.name run
      ([
         ("server.queue_wait_p99_ms", p99_ms obs b "server.queue.wait.us");
         ("server.batch_size_mean", batch_size_mean obs b);
         (* Ycsb_run keeps its scheduler and tally to itself: no iteration
            count and no engine calls to separate from scheduler time. *)
         ("server.iterations_per_op", 0.);
         ("server.self_host_us_per_op", 0.);
         ("server.shed_frac", int_ratio r.Ycsb_run.shed cfg.Ycsb_run.requests);
         ("lock.abort_rate", r.Ycsb_run.abort_rate);
         ("lock.retries_per_op", per (count obs b "server.retry"));
         ("pbtree.load_us_per_key", build_s *. 1e6 /. float_of_int cfg.Ycsb_run.records);
         ("pbtree.get.host_us", host_us "pbtree.get");
         ("pbtree.put.host_us", host_us "pbtree.put");
         ("pbtree.splits_per_op", per (float_of_int r.Ycsb_run.splits));
         ( "rds.space_amp",
           ratio (float_of_int r.Ycsb_run.heap_allocated_bytes) (float_of_int live_bytes) );
         ("rds.free_list_len", float_of_int r.Ycsb_run.heap_free_list);
         ("vm.faults_per_op", per (float_of_int r.Ycsb_run.vm_faults));
         ("vm.evictions_per_op", per (float_of_int r.Ycsb_run.vm_evictions));
       ]
      @ engine_layers obs b ~ops ~span_us:r.Ycsb_run.duration_us
          ~log_size:cfg.Ycsb_run.log_size ~user_bytes:0.
      @ Report.bypassed
          [ "server.snapshot"; "server.slo"; "server.read"; "rvm.recovery" ])
  end

(* {1 crash-recover}

   Direct library use with no server, as in the paper's Coda clients:
   No_restore transactions of two ranges each, committed No_flush with a
   Flush after every 64, truncation off. A crash snapshots the log
   and segment images without terminating, and recovery runs over the
   dec5000 latency stack. *)

type crash_size = { txns : int; log_size : int; region : int }

let crash_size o =
  if full o then { txns = 10_000; log_size = 8 * mib; region = 4 * mib }
  else { txns = 500; log_size = mib; region = mib }

let group = 64

(* Ranges start on 256-byte slots and run 64 to 192 bytes (128 on
   average), so record sizes, and with them commit and flush times, vary
   with the seed. *)
let slot_len = 256
let page = 4096
let crash_base = 16 * page
let dec5000 = Cost_model.dec5000
let crash_options = { Options.default with Options.auto_truncate = false }

let log_stack clock =
  Stack.compose [ Stack.with_latency ~clock ~disk:dec5000.Cost_model.log_disk () ]

let seg_stack clock =
  Stack.compose
    [ Stack.with_latency ~seek_fraction:0.08 ~sector:page ~clock
        ~disk:dec5000.Cost_model.data_disk () ]

let open_rvm clock ~obs ~log ~seg =
  Rvm.initialize ~options:crash_options ~clock ~model:dec5000 ~obs ~log
    ~resolve:(fun _ -> seg) ()

let map_region rvm sz =
  ignore (Rvm.map rvm ~vaddr:crash_base ~seg:1 ~seg_off:0 ~len:sz.region ())

type crash_world = {
  rvm : Rvm.t;
  clock : Clock.t;
  obs : Registry.t;
  log_mem : Rvm_disk.Device.t;
  seg_mem : Rvm_disk.Device.t;
}

let crash_build sz =
  let clock = Clock.simulated () in
  let obs = Registry.create () in
  let log_mem = Mem_device.create ~name:"log" ~size:sz.log_size () in
  let seg_mem = Mem_device.create ~name:"seg" ~size:sz.region () in
  let log = log_stack clock log_mem and seg = seg_stack clock seg_mem in
  Clock.suspend clock @@ fun () ->
  Rvm.create_log log;
  let rvm = open_rvm clock ~obs ~log ~seg in
  map_region rvm sz;
  { rvm; clock; obs; log_mem; seg_mem }

let release_crash cw =
  close cw.log_mem;
  close cw.seg_mem

type crash_outcome = {
  recovery_s : float;
  recovery_sim_s : float;
  log_used : int;
  span_us : float;
  base : base;
  user_bytes : int;
  world : crash_world;
}

let crash_cycle o sz zipf ~sub tr =
  let cw = crash_build sz in
  let b = base cw.obs in
  let rng = Rng.create ~seed:(sub_seed o sub) in
  let sp name f = Probe.maybe_span tr ("rvm." ^ name) f in
  let flushed = sz.txns / group * group in
  let lat = Array.make flushed 0. and start = Array.make group 0. in
  let user_bytes = ref 0 in
  let txn i =
    start.(i mod group) <- Clock.now_us cw.clock;
    let tid =
      sp "begin_txn" (fun () -> Rvm.begin_transaction cw.rvm ~mode:Types.No_restore)
    in
    for _ = 1 to 2 do
      let addr = crash_base + (slot_len * Rng.zipf rng zipf) in
      let len = 64 + (8 * Rng.int rng 17) in
      let data = Bytes.make len (Char.chr (Rng.int rng 256)) in
      sp "set_range" (fun () -> Rvm.set_range cw.rvm tid ~addr ~len);
      sp "store" (fun () -> Rvm.store cw.rvm ~addr data);
      if i < flushed then user_bytes := !user_bytes + len
    done;
    sp "end_txn" (fun () -> Rvm.end_transaction cw.rvm tid ~mode:Types.No_flush);
    (* A transaction is acknowledged when the Flush that makes it durable
       returns: the latency a client waiting for permanence sees. *)
    if i mod group = group - 1 then begin
      sp "flush" (fun () -> Rvm.flush cw.rvm);
      let now = Clock.now_us cw.clock in
      Array.iteri (fun j s -> lat.(i - group + 1 + j) <- now -. s) start
    end
  in
  let sim0 = Clock.now_us cw.clock in
  let m = Probe.measure (fun () -> for i = 0 to flushed - 1 do txn i done) in
  let span_us = Clock.now_us cw.clock -. sim0 in
  let at_last_flush = Rvm.load cw.rvm ~addr:crash_base ~len:sz.region in
  (* The unflushed tail: committed No_flush, so a crash must lose it. *)
  for i = flushed to sz.txns - 1 do txn i done;
  let tail_visible =
    not (Bytes.equal at_last_flush (Rvm.load cw.rvm ~addr:crash_base ~len:sz.region))
  in
  let log_used = (Rvm.query cw.rvm).Rvm.log_used_bytes in
  let clock = Clock.simulated () in
  let log = log_stack clock (Mem_device.of_bytes (Mem_device.snapshot cw.log_mem)) in
  let seg = seg_stack clock (Mem_device.of_bytes (Mem_device.snapshot cw.seg_mem)) in
  release_crash cw;
  let rm =
    Probe.measure (fun () ->
        Probe.maybe_span tr "rvm.recovery" (fun () ->
            open_rvm clock ~obs:(Registry.create ()) ~log ~seg))
  in
  let recovery_sim_s = Clock.now_us clock /. 1e6 in
  let rvm = rm.Probe.value in
  map_region rvm sz;
  let recovered = Rvm.load rvm ~addr:crash_base ~len:sz.region in
  let commits_after =
    match
      let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
      Rvm.set_range rvm tid ~addr:crash_base ~len:8;
      Rvm.set_i64 rvm ~addr:crash_base 42L;
      Rvm.end_transaction rvm tid ~mode:Types.Flush
    with
    | () -> Rvm.get_i64 rvm ~addr:crash_base = 42L
    | exception Types.Rvm_error _ -> false
  in
  let sim = latency_ms (sorted_copy lat) in
  let r =
    rep ~host_extras:[ ("recovery_s", rm.Probe.host_s) ]
      ~host_s:m.Probe.host_s ~alloc_w:m.Probe.alloc_w ~ops:flushed
      ~attempted:flushed ~refused:0 ~sim
      ~fingerprint:
        (fingerprint cw.obs sim
           [ ("recovery_sim_s", recovery_sim_s); ("log_used", float_of_int log_used) ])
      [
        ("recovers_last_flush", tail_visible && Bytes.equal recovered at_last_flush);
        ("commits_after_recovery", commits_after);
      ]
  in
  ( r,
    { recovery_s = rm.Probe.host_s; recovery_sim_s; log_used; span_us; base = b;
      user_bytes = !user_bytes; world = cw } )

let crash_recover o =
  let sz = crash_size o in
  let zipf = Rng.zipf_make ~n:(sz.region / slot_len) ~s:0.8 in
  let setup_times, last =
    time_setup o ~runs:30 ~release:release_crash (fun () -> crash_build sz)
  in
  release_crash last.Probe.value;
  let cycle = crash_cycle o sz zipf in
  if not o.traced then
    plain_report o ~workload:"crash-recover" ~setup_times (repeat o cycle)
  else begin
    let run = traced_run o cycle in
    let _, pc = run.plain in
    let traced, c = run.traced in
    let ops = traced.ops in
    traced_report o ~workload:"crash-recover" run
      ([
         ("rvm.recovery_s", pc.recovery_s);
         ("rvm.recovery_sim_s", pc.recovery_sim_s);
         ("rvm.recovery_mb_per_s", float_of_int pc.log_used /. 1e6 /. pc.recovery_s);
       ]
      @ engine_layers c.world.obs c.base ~ops ~span_us:c.span_us ~log_size:sz.log_size
          ~user_bytes:(float_of_int c.user_bytes)
      @ Report.bypassed [ "server."; "lock."; "pbtree."; "rds."; "vm." ])
  end

let run name o =
  match name with
  | "tpca" -> tpca o
  | "ycsb-a-paged" -> run_ycsb ycsb_a o
  | "ycsb-e-resident" -> run_ycsb ycsb_e o
  | "crash-recover" -> crash_recover o
  | _ -> invalid_arg ("unknown workload " ^ name)
