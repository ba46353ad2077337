(* Truncation tests: epoch truncation (Figure 6), incremental truncation
   (Figure 7), automatic triggering, blocking, and the epoch fallback. *)

open Rvm_core
module Device = Rvm_disk.Device
module Mem_device = Rvm_disk.Mem_device
module Log_manager = Rvm_log.Log_manager

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let ps = 4096

type world = {
  rvm : Rvm.t;
  seg_dev : Device.t;
  region : Region.t;
  reopen : unit -> Rvm.t * Region.t;
      (* mount the same devices again without terminating: a crash *)
}

let make ?(mode = Types.Epoch) ?(auto = false) ?(log_size = 64 * 1024)
    ?(threshold = 0.5) () =
  let log_dev = Mem_device.create ~name:"log" ~size:log_size () in
  Rvm.create_log log_dev;
  let seg_dev = Mem_device.create ~name:"seg" ~size:(64 * 1024) () in
  let options =
    {
      Options.default with
      Options.truncation_mode = mode;
      auto_truncate = auto;
      truncation_threshold = threshold;
    }
  in
  let reopen () =
    let rvm =
      Rvm.initialize ~options ~log:log_dev ~resolve:(fun _ -> seg_dev) ()
    in
    (rvm, Rvm.map rvm ~seg:1 ~seg_off:0 ~len:(8 * ps) ())
  in
  let rvm, region = reopen () in
  { rvm; seg_dev; region; reopen }

let commit w ~addr s =
  let tid = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.modify w.rvm tid ~addr (Bytes.of_string s);
  Rvm.end_transaction w.rvm tid ~mode:Types.Flush

let seg_str w ~off ~len =
  Bytes.to_string (Device.read_bytes w.seg_dev ~off ~len)

let test_epoch_applies_and_empties () =
  let w = make ~mode:Types.Epoch () in
  let a = w.region.Region.vaddr in
  commit w ~addr:a "epoch-data";
  commit w ~addr:(a + ps) "page-two";
  check_bool "log has records" false (Log_manager.is_empty (Rvm.log_manager w.rvm));
  Rvm.truncate w.rvm;
  check_bool "log empty" true (Log_manager.is_empty (Rvm.log_manager w.rvm));
  check_str "segment page 0" "epoch-data" (seg_str w ~off:0 ~len:10);
  check_str "segment page 1" "page-two" (seg_str w ~off:ps ~len:8);
  check_int "one epoch truncation" 1
    (Rvm.stats w.rvm).Statistics.epoch_truncations

let test_epoch_latest_value_wins () =
  let w = make ~mode:Types.Epoch () in
  let a = w.region.Region.vaddr in
  commit w ~addr:a "old-old-old";
  commit w ~addr:a "new-new-new";
  Rvm.truncate w.rvm;
  check_str "latest committed value" "new-new-new" (seg_str w ~off:0 ~len:11)

let test_incremental_applies_and_moves_head () =
  let w = make ~mode:Types.Incremental () in
  let a = w.region.Region.vaddr in
  commit w ~addr:a "inc-one";
  commit w ~addr:(a + ps) "inc-two";
  Rvm.truncate w.rvm;
  check_bool "log empty after steps" true
    (Log_manager.is_empty (Rvm.log_manager w.rvm));
  check_str "page 0 written" "inc-one" (seg_str w ~off:0 ~len:7);
  check_str "page 1 written" "inc-two" (seg_str w ~off:ps ~len:7);
  check_bool "steps happened" true
    ((Rvm.stats w.rvm).Statistics.incremental_steps >= 2);
  check_int "no epoch fallback" 0 (Rvm.stats w.rvm).Statistics.epoch_truncations

let test_incremental_blocked_by_active_txn () =
  let w = make ~mode:Types.Incremental () in
  let a = w.region.Region.vaddr in
  commit w ~addr:a "committed";
  (* An active transaction holds an uncommitted reference on page 0. *)
  let tid = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.set_range w.rvm tid ~addr:(a + 10) ~len:4;
  Rvm.truncate w.rvm;
  check_bool "log not emptied (blocked)" false
    (Log_manager.is_empty (Rvm.log_manager w.rvm));
  check_bool "blocked counted" true
    ((Rvm.stats w.rvm).Statistics.incremental_blocked > 0);
  Rvm.abort_transaction w.rvm tid;
  Rvm.truncate w.rvm;
  check_bool "unblocked after abort" true
    (Log_manager.is_empty (Rvm.log_manager w.rvm));
  check_str "applied" "committed" (seg_str w ~off:0 ~len:9)

let test_incremental_blocked_by_unflushed_spool () =
  (* A no-flush commit's pages must not be written to the segment before
     its record reaches the log — otherwise a crash could expose half a
     transaction. *)
  let w = make ~mode:Types.Incremental () in
  let a = w.region.Region.vaddr in
  commit w ~addr:a "flushed-txn";
  let tid = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.modify w.rvm tid ~addr:(a + 4000) (Bytes.of_string "spooled");
  Rvm.end_transaction w.rvm tid ~mode:Types.No_flush;
  (* Page 0 is referenced by both the flushed record and (a + 4000 is still
     page 0) the spooled one. *)
  Rvm.truncate w.rvm;
  check_bool "blocked while spooled" false
    (Log_manager.is_empty (Rvm.log_manager w.rvm));
  Rvm.flush w.rvm;
  Rvm.truncate w.rvm;
  check_bool "proceeds after flush" true
    (Log_manager.is_empty (Rvm.log_manager w.rvm));
  check_str "both applied" "spooled" (seg_str w ~off:4000 ~len:7)

let test_auto_truncation_threshold () =
  let w = make ~mode:Types.Epoch ~auto:true ~log_size:(16 * 1024) ~threshold:0.3 () in
  let a = w.region.Region.vaddr in
  for i = 0 to 50 do
    commit w ~addr:(a + (i mod 8 * 256)) (String.make 200 'q')
  done;
  check_bool "auto-truncated" true
    ((Rvm.stats w.rvm).Statistics.epoch_truncations > 0);
  let lm = Rvm.log_manager w.rvm in
  check_bool "stayed below capacity" true
    (Log_manager.used_bytes lm < Log_manager.capacity lm)

let test_incremental_critical_fallback () =
  (* Incremental truncation blocked by a long-running transaction while the
     log fills: the engine must revert to epoch truncation (section 5.1.2)
     and survive. *)
  let w =
    make ~mode:Types.Incremental ~auto:true ~log_size:(16 * 1024)
      ~threshold:0.3 ()
  in
  let a = w.region.Region.vaddr in
  (* Long-running transaction pins page 7 forever. *)
  let long = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.set_range w.rvm long ~addr:(a + (7 * ps)) ~len:16;
  commit w ~addr:(a + (7 * ps) + 100) "shares-page-7";
  for i = 0 to 60 do
    commit w ~addr:(a + (i mod 8 * 256)) (String.make 150 'w')
  done;
  check_bool "survived with epoch fallback" true
    ((Rvm.stats w.rvm).Statistics.epoch_truncations > 0);
  Rvm.end_transaction w.rvm long ~mode:Types.Flush

(* ISSUE 7 satellite: incremental truncation driven from the background
   slot, blocked at the queue head by a long-running transaction while the
   log is at truncation_critical, must fall back to an epoch run chained
   onto the same background stepping — reclaiming the log without
   violating WAL ordering (checked by crash-recovering to the exact
   committed image afterwards). *)
let test_background_fallback_pinned_head () =
  let log_dev = Mem_device.create ~name:"bg-log" ~size:(16 * 1024) () in
  Rvm.create_log log_dev;
  let seg_dev = Mem_device.create ~name:"bg-seg" ~size:(64 * 1024) () in
  let options =
    {
      Options.default with
      Options.truncation_mode = Types.Incremental;
      auto_truncate = false;
      truncation_threshold = 0.3;
      truncation_critical = 0.5;
    }
  in
  let open_world () =
    let rvm =
      Rvm.initialize ~options ~log:log_dev ~resolve:(fun _ -> seg_dev) ()
    in
    let region = Rvm.map rvm ~seg:1 ~seg_off:0 ~len:(8 * ps) () in
    (rvm, region.Region.vaddr)
  in
  let rvm, a = open_world () in
  let commit_at ~addr s =
    let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
    Rvm.modify rvm tid ~addr (Bytes.of_string s);
    Rvm.end_transaction rvm tid ~mode:Types.Flush
  in
  (* The long-running transaction holds an uncommitted reference on page 7,
     and the oldest committed record shares that page — so the incremental
     queue head is pinned for as long as the transaction lives. *)
  let long = Rvm.begin_transaction rvm ~mode:Types.Restore in
  Rvm.set_range rvm long ~addr:(a + (7 * ps)) ~len:16;
  commit_at ~addr:(a + (7 * ps) + 100) "pins-the-head";
  let i = ref 0 in
  while not (Rvm.truncation_urgent rvm) do
    commit_at ~addr:(a + (!i mod 7 * ps)) (String.make 200 'w');
    incr i;
    if !i > 500 then Alcotest.fail "log never reached truncation_critical"
  done;
  check_bool "due at critical" true (Rvm.truncation_due rvm);
  let rec drive n =
    if n > 10_000 then Alcotest.fail "background truncation did not converge"
    else
      match Rvm.truncation_step rvm with
      | `Progress -> drive (n + 1)
      | `Blocked | `Idle -> ()
  in
  drive 0;
  let s = Rvm.stats rvm in
  check_bool "incremental run blocked" true
    (s.Statistics.incremental_blocked > 0);
  check_bool "epoch fallback chained" true
    (s.Statistics.epoch_truncations > 0);
  check_bool "log reclaimed below critical" false (Rvm.truncation_urgent rvm);
  (* WAL ordering held through the fallback: resolve the pin, then crash
     (reopen without terminating) and demand the exact committed image. *)
  Rvm.set_i64 rvm ~addr:(a + (7 * ps)) 424242L;
  Rvm.end_transaction rvm long ~mode:Types.Flush;
  let live = Bytes.to_string (Rvm.load rvm ~addr:a ~len:(8 * ps)) in
  let rvm2, a2 = open_world () in
  let recovered = Bytes.to_string (Rvm.load rvm2 ~addr:a2 ~len:(8 * ps)) in
  check_bool "crash recovery byte-identical" true (String.equal live recovered)

(* A paced epoch reads the log once, at its freeze, however many commits
   land between its steps. The page queue restarts at the freeze and
   notes every later append as it happens, so the run's completion reads
   nothing: afterwards the queue holds exactly the pages the post-freeze
   commits wrote. An incremental run then writes those pages and no
   others, and a crash recovers the committed image. *)
let test_paced_epoch_reads_window_once () =
  let w = make ~mode:Types.Epoch ~threshold:0.001 () in
  let a = w.region.Region.vaddr in
  for p = 0 to 5 do
    commit w ~addr:(a + (p * ps)) (Printf.sprintf "pre-freeze-%d" p)
  done;
  let lm = Rvm.log_manager w.rvm in
  let counter name =
    Rvm_obs.Counter.get (Rvm_obs.Registry.counter (Rvm.obs w.rvm) name)
  in
  let live = Log_manager.used_bytes lm in
  let read0 = counter "disk.log.bytes_read" in
  check_bool "the first step freezes" true
    (Rvm.truncation_step w.rvm = `Progress);
  check_bool "epoch in flight" true (Rvm.truncation_active w.rvm);
  (* Pages 0 and 2 were queued before the freeze; 6 and 7 are new. *)
  let post = ref [ 0; 6; 2; 7 ] in
  let steps = ref 1 in
  while Rvm.truncation_active w.rvm do
    (match !post with
    | p :: rest ->
      commit w ~addr:(a + (p * ps) + 64) (Printf.sprintf "post-freeze-%d" p);
      post := rest
    | [] -> ());
    ignore (Rvm.truncation_step w.rvm);
    incr steps
  done;
  check_bool "every commit landed mid-run" true (!post = [] && !steps > 5);
  check_int "one epoch" 1 (Rvm.stats w.rvm).Statistics.epoch_truncations;
  check_int "the run read its frozen window once" live
    (counter "disk.log.bytes_read" - read0);
  Rvm.set_options w.rvm (fun o ->
      { o with Options.truncation_mode = Types.Incremental });
  let written0 = (Rvm.stats w.rvm).Statistics.incremental_steps in
  Rvm.truncate w.rvm;
  check_int "the incremental run wrote the post-freeze pages" 4
    ((Rvm.stats w.rvm).Statistics.incremental_steps - written0);
  check_bool "log empty" true (Log_manager.is_empty lm);
  let image = Rvm.load w.rvm ~addr:a ~len:(8 * ps) in
  let rvm2, region2 = w.reopen () in
  check_bool "crash recovery returns the committed image" true
    (Bytes.equal image
       (Rvm.load rvm2 ~addr:region2.Region.vaddr ~len:(8 * ps)))

let test_truncation_counter_in_status () =
  let w = make ~mode:Types.Epoch () in
  let a = w.region.Region.vaddr in
  commit w ~addr:a "x";
  Rvm.truncate w.rvm;
  commit w ~addr:a "y";
  Rvm.truncate w.rvm;
  let st = Log_manager.status (Rvm.log_manager w.rvm) in
  check_bool "status counts truncations" true
    (st.Rvm_log.Status.truncations >= 2)

let test_truncate_empty_log_is_noop () =
  let w = make ~mode:Types.Epoch () in
  Rvm.truncate w.rvm;
  check_int "no epoch truncation of empty log" 0
    (Rvm.stats w.rvm).Statistics.epoch_truncations

(* Truncation statistics are span-backed: the Statistics field, the
   registry counter and the span histogram's sample count are all one
   measurement and must agree. *)
let test_truncation_counters_match_registry () =
  let w = make ~mode:Types.Epoch () in
  let a = w.region.Region.vaddr in
  commit w ~addr:a "epoch-data";
  Rvm.truncate w.rvm;
  let s = Rvm.stats w.rvm in
  let reg = Rvm.obs w.rvm in
  let g name = Rvm_obs.Counter.get (Rvm_obs.Registry.counter reg name) in
  check_int "epoch field = counter" s.Statistics.epoch_truncations
    (g "truncation.epoch.count");
  check_int "epoch field = span samples" s.Statistics.epoch_truncations
    (Rvm_obs.Histogram.count (Rvm_obs.Registry.histogram reg "truncation.epoch.us"));
  check_int "force field = counter" s.Statistics.forces (g "log.force.count");
  let w2 = make ~mode:Types.Incremental () in
  let a2 = w2.region.Region.vaddr in
  commit w2 ~addr:a2 "inc-one";
  commit w2 ~addr:(a2 + ps) "inc-two";
  Rvm.truncate w2.rvm;
  let s2 = Rvm.stats w2.rvm in
  let reg2 = Rvm.obs w2.rvm in
  let g2 name = Rvm_obs.Counter.get (Rvm_obs.Registry.counter reg2 name) in
  check_bool "incremental steps happened" true
    (s2.Statistics.incremental_steps >= 2);
  check_int "step field = counter" s2.Statistics.incremental_steps
    (g2 "truncation.incremental.step.count");
  check_int "step field = span samples" s2.Statistics.incremental_steps
    (Rvm_obs.Histogram.count
       (Rvm_obs.Registry.histogram reg2 "truncation.incremental.step.us"));
  check_int "segment syncs recorded" (g2 "segment.sync.count")
    (Rvm_obs.Histogram.count
       (Rvm_obs.Registry.histogram reg2 "segment.sync.us"));
  check_bool "segment sync happened" true (g2 "segment.sync.count" > 0)

(* Segment syncs run on the truncator's own data-disk lane: stepping a
   run leaves the caller's clock alone, and the head moves only once the
   clock has passed the last sync's completion. A synchronous truncation
   joins the lane and pays the same syncs in full. With a zero cost model
   and a plain memory log, any clock advance is data-disk time. *)
let test_disk_lane () =
  let world () =
    let clock = Rvm_util.Clock.simulated () in
    let log_dev = Mem_device.create ~name:"lane-log" ~size:(64 * 1024) () in
    Rvm.create_log log_dev;
    let seg_dev =
      Rvm_disk.Stack.with_latency ~sector:4096 ~clock
        ~disk:Rvm_util.Cost_model.dec5000.Rvm_util.Cost_model.data_disk ()
        (Mem_device.create ~name:"lane-seg" ~size:(64 * 1024) ())
    in
    let options =
      {
        Options.default with
        Options.truncation_mode = Types.Incremental;
        auto_truncate = false;
        truncation_threshold = 0.001;
      }
    in
    let rvm =
      Rvm.initialize ~options ~clock ~model:Rvm_util.Cost_model.zero
        ~log:log_dev ~resolve:(fun _ -> seg_dev) ()
    in
    let a = (Rvm.map rvm ~seg:1 ~seg_off:0 ~len:(8 * ps) ()).Region.vaddr in
    List.iter
      (fun p ->
        let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
        Rvm.modify rvm tid ~addr:(a + (p * ps)) (Bytes.of_string "lane");
        Rvm.end_transaction rvm tid ~mode:Types.Flush)
      [ 0; 2; 4; 6 ];
    (rvm, clock)
  in
  let sync_sum rvm =
    Rvm_obs.Histogram.sum
      (Rvm_obs.Registry.histogram (Rvm.obs rvm) "segment.sync.us")
  in
  let rvm, clock = world () in
  let lm = Rvm.log_manager rvm in
  let t0 = Rvm_util.Clock.now_us clock in
  let rec drive n =
    if n > 100 then Alcotest.fail "the run never stopped making progress"
    else if Rvm.truncation_step rvm = `Progress then drive (n + 1)
  in
  drive 0;
  Alcotest.(check (float 0.)) "steps leave the caller's clock alone" t0
    (Rvm_util.Clock.now_us clock);
  let synced = sync_sum rvm in
  check_bool "the data disk was busy" true (synced > 0.);
  check_bool "the run waits for the disk" true (Rvm.truncation_active rvm);
  check_bool "the head has not moved" false (Log_manager.is_empty lm);
  Rvm_util.Clock.advance_to clock (t0 +. synced);
  drive 0;
  check_bool "the run completed" false (Rvm.truncation_active rvm);
  check_bool "the head moved" true (Log_manager.is_empty lm);
  let rvm, clock = world () in
  let t0 = Rvm_util.Clock.now_us clock in
  Rvm.truncate rvm;
  Alcotest.(check (float 1e-6)) "a synchronous run pays every sync"
    (sync_sum rvm)
    (Rvm_util.Clock.now_us clock -. t0);
  check_bool "log empty" true (Log_manager.is_empty (Rvm.log_manager rvm))

let suite =
  [
    ("epoch.applies", `Quick, test_epoch_applies_and_empties);
    ("epoch.latest-wins", `Quick, test_epoch_latest_value_wins);
    ("incremental.applies", `Quick, test_incremental_applies_and_moves_head);
    ("incremental.blocked-txn", `Quick, test_incremental_blocked_by_active_txn);
    ("incremental.blocked-spool", `Quick, test_incremental_blocked_by_unflushed_spool);
    ("auto.threshold", `Quick, test_auto_truncation_threshold);
    ("incremental.critical-fallback", `Quick, test_incremental_critical_fallback);
    ( "background.fallback-pinned-head",
      `Quick,
      test_background_fallback_pinned_head );
    ("epoch.paced-reads-once", `Quick, test_paced_epoch_reads_window_once);
    ("status.counter", `Quick, test_truncation_counter_in_status);
    ("truncate.empty", `Quick, test_truncate_empty_log_is_noop);
    ("stats.span-backed", `Quick, test_truncation_counters_match_registry);
    ("truncation.disk-lane", `Quick, test_disk_lane);
  ]
