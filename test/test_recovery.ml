(* Crash-recovery integration tests: kill the devices at chosen (and torn)
   points, reopen, and verify the recovered state against expectations. *)

open Rvm_core
module Device = Rvm_disk.Device
module Crash_device = Rvm_disk.Crash_device
module Rng = Rvm_util.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let ps = 4096

(* A crashable world: log and one segment on crash devices. *)
type world = {
  log_crash : Crash_device.t;
  seg_crash : Crash_device.t;
  mutable rvm : Rvm.t;
  mutable region : Region.t;
}

let make ?options ?(log_size = 128 * 1024) ?(seg_size = 64 * 1024)
    ?(region_len = 4 * ps) () =
  let log_crash = Crash_device.create ~name:"log" ~size:log_size () in
  let seg_crash = Crash_device.create ~name:"seg" ~size:seg_size () in
  Rvm.create_log (Crash_device.device log_crash);
  let resolve _ = Crash_device.device seg_crash in
  let rvm =
    Rvm.initialize ?options ~log:(Crash_device.device log_crash) ~resolve ()
  in
  let region = Rvm.map rvm ~seg:1 ~seg_off:0 ~len:region_len () in
  { log_crash; seg_crash; rvm; region }

(* Crash both devices and restart the instance (recovery at initialize). *)
let crash_and_restart ?options w =
  Crash_device.crash w.log_crash;
  Crash_device.crash w.seg_crash;
  let resolve _ = Crash_device.device w.seg_crash in
  w.rvm <-
    Rvm.initialize ?options ~log:(Crash_device.device w.log_crash) ~resolve ();
  w.region <-
    Rvm.map w.rvm ~seg:1 ~seg_off:0 ~len:w.region.Region.length ()

let commit w ~addr s =
  let tid = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.modify w.rvm tid ~addr (Bytes.of_string s);
  Rvm.end_transaction w.rvm tid ~mode:Types.Flush

let read w ~addr ~len =
  Bytes.to_string (Rvm.load w.rvm ~addr ~len)

let test_committed_survives_crash () =
  let w = make () in
  let a = w.region.Region.vaddr in
  commit w ~addr:a "survivor";
  crash_and_restart w;
  check_str "committed data recovered" "survivor"
    (read w ~addr:w.region.Region.vaddr ~len:8)

let test_uncommitted_lost () =
  let w = make () in
  let a = w.region.Region.vaddr in
  commit w ~addr:a "baseline";
  let tid = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.set_range w.rvm tid ~addr:a ~len:8;
  Rvm.store_string w.rvm ~addr:a "DOOMED!!";
  (* Crash with the transaction still active. *)
  crash_and_restart w;
  check_str "uncommitted rolled back" "baseline"
    (read w ~addr:w.region.Region.vaddr ~len:8)

let test_no_flush_unflushed_lost_flushed_kept () =
  let w = make () in
  let a = w.region.Region.vaddr in
  let t1 = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.modify w.rvm t1 ~addr:a (Bytes.of_string "flushed-one");
  Rvm.end_transaction w.rvm t1 ~mode:Types.No_flush;
  Rvm.flush w.rvm;
  let t2 = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.modify w.rvm t2 ~addr:(a + 100) (Bytes.of_string "never-flushed");
  Rvm.end_transaction w.rvm t2 ~mode:Types.No_flush;
  crash_and_restart w;
  let a = w.region.Region.vaddr in
  check_str "flushed no-flush commit kept" "flushed-one"
    (read w ~addr:a ~len:11);
  check_str "unflushed lost (bounded persistence)"
    (String.make 13 '\000')
    (read w ~addr:(a + 100) ~len:13)

let test_multiple_commits_latest_wins () =
  let w = make () in
  let a = w.region.Region.vaddr in
  commit w ~addr:a "v1.......";
  commit w ~addr:a "v2.......";
  commit w ~addr:(a + 3) "overlap";
  crash_and_restart w;
  let a = w.region.Region.vaddr in
  check_str "newest value per byte" "v2.overlap"
    (read w ~addr:a ~len:10)

let test_crash_during_truncation_is_idempotent () =
  let w = make () in
  let a = w.region.Region.vaddr in
  commit w ~addr:a "alpha";
  commit w ~addr:(a + 10) "beta.";
  (* Simulate a crash after truncation wrote segment bytes but before the
     status block moved: apply the log to the segment manually, then crash
     without moving the head. Recovery must replay harmlessly. *)
  let seg_dev = Crash_device.device w.seg_crash in
  Rvm_log.Log_manager.iter_live (Rvm.log_manager w.rvm) ~f:(fun ~off:_ r ->
      List.iter
        (fun (rg : Rvm_log.Record.range) ->
          Device.write_bytes seg_dev ~off:rg.Rvm_log.Record.off
            rg.Rvm_log.Record.data)
        r.Rvm_log.Record.ranges);
  seg_dev.Device.sync ();
  crash_and_restart w;
  let a = w.region.Region.vaddr in
  check_str "replay idempotent (alpha)" "alpha" (read w ~addr:a ~len:5);
  check_str "replay idempotent (beta)" "beta." (read w ~addr:(a + 10) ~len:5)

let test_double_crash_during_recovery () =
  (* Crash, start recovery, crash again before the status block update
     (simulated by simply crashing the devices again without the head
     having moved), recover again. *)
  let w = make () in
  let a = w.region.Region.vaddr in
  commit w ~addr:a "stable-data";
  Crash_device.crash w.log_crash;
  Crash_device.crash w.seg_crash;
  (* First recovery attempt: apply but then "crash" — emulate by running a
     full restart twice; the second must find either the already-truncated
     log or replay again. *)
  crash_and_restart w;
  crash_and_restart w;
  check_str "still there" "stable-data"
    (read w ~addr:w.region.Region.vaddr ~len:11)

let test_torn_final_record_discarded () =
  let rng = Rng.create ~seed:77L in
  (* Repeat with different tear points. *)
  for _ = 1 to 20 do
    let w = make () in
    let a = w.region.Region.vaddr in
    commit w ~addr:a "durable-one";
    (* This commit's log force is torn apart mid-write. *)
    let t2 = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
    Rvm.modify w.rvm t2 ~addr:(a + 50) (Bytes.of_string "maybe-torn");
    Rvm.end_transaction w.rvm t2 ~mode:Types.No_flush;
    (* Spooled: write it but crash mid-force with tearing. *)
    Rvm_log.Log_manager.iter_live (Rvm.log_manager w.rvm) ~f:(fun ~off:_ _ -> ());
    Crash_device.crash_torn w.log_crash ~rng;
    Crash_device.crash w.seg_crash;
    let resolve _ = Crash_device.device w.seg_crash in
    let rvm2 =
      Rvm.initialize ~log:(Crash_device.device w.log_crash) ~resolve ()
    in
    let r2 = Rvm.map rvm2 ~seg:1 ~seg_off:0 ~len:w.region.Region.length () in
    let a2 = r2.Region.vaddr in
    check_str "first commit always intact" "durable-one"
      (Bytes.to_string (Rvm.load rvm2 ~addr:a2 ~len:11));
    (* The second is all-or-nothing. *)
    let got = Bytes.to_string (Rvm.load rvm2 ~addr:(a2 + 50) ~len:10) in
    check_bool
      (Printf.sprintf "second atomic (got %S)" got)
      true
      (got = "maybe-torn" || got = String.make 10 '\000')
  done

let test_recovery_after_many_wraps () =
  (* A small log that wraps repeatedly under auto-truncation; a crash at
     the end must still recover the latest committed state. A pure model
     (slot -> value) tracks what each committed transaction wrote. *)
  let options = { Options.default with Options.truncation_threshold = 0.4 } in
  let w = make ~options ~log_size:(16 * 1024) () in
  let rng = Rng.create ~seed:31L in
  let slots = 32 in
  let slot_len = 16 in
  let model = Array.make slots (String.make slot_len '\000') in
  for i = 0 to 399 do
    let slot = Rng.int rng slots in
    let value =
      Printf.sprintf "%0*d" slot_len (i * slots + slot)
    in
    commit w ~addr:(w.region.Region.vaddr + (slot * slot_len)) value;
    model.(slot) <- value
  done;
  check_bool "log wrapped at least once" true
    ((Rvm_log.Log_manager.status (Rvm.log_manager w.rvm)).Rvm_log.Status
       .truncations > 0);
  crash_and_restart w ~options;
  let a = w.region.Region.vaddr in
  Array.iteri
    (fun slot expected ->
      check_str
        (Printf.sprintf "slot %d" slot)
        expected
        (read w ~addr:(a + (slot * slot_len)) ~len:slot_len))
    model

(* --- bounded reads: opening a log reads its live window in whole
   chunks, and recovery reads nothing more. Every count comes from a
   [Stack.with_stats] layer over the log device. --- *)

module Stack = Rvm_disk.Stack
module Mem_device = Rvm_disk.Mem_device
module Log_manager = Rvm_log.Log_manager
module Clock = Rvm_util.Clock
module Cost_model = Rvm_util.Cost_model
module Registry = Rvm_obs.Registry

let chunk = Log_manager.open_chunk
let marker = "LAST-COMMIT"

(* Log and segment images after [txns] flushed commits of [len] bytes,
   the last of which writes [marker] at offset 0 of the region and
   nothing else does. *)
let image ~txns ~len =
  let log = Mem_device.create ~size:(4 * 1024 * 1024) () in
  let seg = Mem_device.create ~size:(256 * 1024) () in
  Rvm.create_log log;
  let options = { Options.default with Options.auto_truncate = false } in
  let rvm = Rvm.initialize ~options ~log ~resolve:(fun _ -> seg) () in
  let base = (Rvm.map rvm ~seg:1 ~seg_off:0 ~len:(64 * 1024) ()).Region.vaddr in
  let commit ~addr data =
    let tid = Rvm.begin_transaction rvm ~mode:Types.No_restore in
    Rvm.modify rvm tid ~addr data;
    Rvm.end_transaction rvm tid ~mode:Types.Flush
  in
  for i = 1 to txns - 1 do
    commit
      ~addr:(base + 64 + (i * 97 mod (60 * 1024)))
      (Bytes.make len (Char.chr (65 + (i mod 26))))
  done;
  commit ~addr:base (Bytes.of_string marker);
  (Mem_device.snapshot log, Mem_device.snapshot seg)

let live_bytes log =
  Log_manager.used_bytes
    (Result.get_ok (Log_manager.open_log (Mem_device.of_bytes log)))

(* Recover copies of the images through a stats layer: the bytes read from
   the log and the recovered marker slot. *)
let recover_counted (log, seg) =
  let dev = Stack.with_stats () (Mem_device.of_bytes log) in
  let seg = Mem_device.of_bytes seg in
  let rvm = Rvm.initialize ~log:dev ~resolve:(fun _ -> seg) () in
  let r = Rvm.map rvm ~seg:1 ~seg_off:0 ~len:(64 * 1024) () in
  ( dev.Device.stats.Device.bytes_read,
    Bytes.to_string
      (Rvm.load rvm ~addr:r.Region.vaddr ~len:(String.length marker)) )

let test_recovery_reads_live_once () =
  let ((log, _) as img) = image ~txns:3000 ~len:256 in
  let live = live_bytes log in
  check_bool "live log spans several chunks" true (live > 3 * chunk);
  let read, slot = recover_counted img in
  check_str "recovered" marker slot;
  check_bool
    (Printf.sprintf "read %d <= live %d + one chunk" read live)
    true
    (read <= live + chunk);
  (* Recovery's plan runs on the open scan's image: a bare open reads
     exactly as much. *)
  let dev = Stack.with_stats () (Mem_device.of_bytes log) in
  ignore (Result.get_ok (Log_manager.open_log dev));
  check_int "recovery reads what the open scan reads"
    dev.Device.stats.Device.bytes_read read

let test_empty_open_reads_one_chunk () =
  let base = Mem_device.create ~size:(4 * 1024 * 1024) () in
  Log_manager.format base;
  let dev = Stack.with_stats () base in
  let lm = Result.get_ok (Log_manager.open_log dev) in
  check_bool "empty" true (Log_manager.is_empty lm);
  let st = dev.Device.stats in
  check_int "status block and one chunk"
    (Rvm_log.Status.size + chunk)
    st.Device.bytes_read;
  check_int "two reads" 2 st.Device.reads

let test_torn_final_record_bounded () =
  let log, seg = image ~txns:3000 ~len:256 in
  (* Tear the final record: flip a byte in its middle. *)
  let last = ref (0, 0) in
  Log_manager.iter_live
    (Result.get_ok (Log_manager.open_log (Mem_device.of_bytes log)))
    ~f:(fun ~off r -> last := (off, Rvm_log.Record.encoded_size r));
  let off, size = !last in
  let mid = off + (size / 2) in
  Bytes.set log mid (Char.chr (Char.code (Bytes.get log mid) lxor 0xff));
  let live = live_bytes log in
  let read, slot = recover_counted (log, seg) in
  check_str "torn final record discarded"
    (String.make (String.length marker) '\000')
    slot;
  check_bool
    (Printf.sprintf "read %d <= live %d + one chunk" read live)
    true
    (read <= live + chunk)

(* Every simulated microsecond of a recovering [initialize] is inside a
   span: the open scan, then recovery's plan, apply (segment syncs
   included) and log reset. *)
let test_recovery_spans_sum () =
  let log, seg = image ~txns:400 ~len:200 in
  let clock = Clock.simulated () in
  let dec = Cost_model.dec5000 in
  let log =
    Stack.with_latency ~clock ~disk:dec.Cost_model.log_disk ()
      (Mem_device.of_bytes log)
  in
  let seg =
    Stack.with_latency ~seek_fraction:0.08 ~sector:4096 ~clock
      ~disk:dec.Cost_model.data_disk () (Mem_device.of_bytes seg)
  in
  let obs = Registry.create () in
  let t0 = Clock.now_us clock in
  ignore
    (Rvm.initialize ~clock ~model:dec ~obs ~log ~resolve:(fun _ -> seg) ());
  let advance = Clock.now_us clock -. t0 in
  let events = Registry.events obs in
  (* Device-level [disk.*] spans nest inside the phases; leave them out. *)
  let children parent =
    List.filter
      (fun (e : Registry.span_event) ->
        e.parent = parent && not (String.starts_with ~prefix:"disk." e.scope))
      events
  in
  let names = List.map (fun (e : Registry.span_event) -> e.scope) in
  let total =
    List.fold_left (fun a (e : Registry.span_event) -> a +. e.dur_us) 0.
  in
  let near what a b =
    check_bool (Printf.sprintf "%s: %.3f ~ %.3f us" what a b) true
      (abs_float (a -. b) <= 1.)
  in
  let roots = children None in
  Alcotest.(check (list string)) "root spans" [ "log.open"; "recovery" ]
    (names roots);
  check_bool "recovery took simulated time" true (advance > 0.);
  near "roots cover initialize" (total roots) advance;
  let recovery = List.nth roots 1 in
  let phases = children (Some recovery.Registry.id) in
  Alcotest.(check (list string)) "recovery phases"
    [ "recovery.plan"; "recovery.apply"; "recovery.reset" ]
    (names phases);
  near "phases cover recovery" (total phases) recovery.Registry.dur_us;
  let plan = List.hd phases and apply = List.nth phases 1 in
  near "the plan reads nothing" plan.Registry.dur_us 0.;
  Alcotest.(check (list string)) "apply syncs the segment" [ "segment.sync" ]
    (names (children (Some apply.Registry.id)))

(* The planner applies no data range of a malformed parallel-commit
   record, even where a well-formed intent would commit. *)
let test_plan_skips_malformed_intent () =
  let module Record = Rvm_log.Record in
  let module Pcommit = Rvm_log.Pcommit in
  let dev = Mem_device.create ~size:(64 * 1024) () in
  Log_manager.format dev;
  let lm = Result.get_ok (Log_manager.open_log dev) in
  let intent off =
    Pcommit.record
      ~ranges:[ { Record.seg = 1; off; data = Bytes.of_string "branch" } ]
      (Pcommit.Intent { gid = "g"; shard = 0 })
  in
  let bad = intent 100 in
  List.iter
    (fun r -> ignore (Log_manager.append_record lm r))
    [
      intent 0;
      { bad with Record.flags = Record.Flags.stage };
      {
        bad with
        Record.ranges =
          List.map
            (fun (g : Record.range) ->
              if Pcommit.is_control g then
                { g with Record.data = Bytes.of_string "junk" }
              else g)
            bad.Record.ranges;
      };
      { bad with Record.ranges = List.tl bad.Record.ranges };
    ];
  Log_manager.force lm;
  let plan = Recovery.plan_live ~intent_decision:(fun _ -> `Commit) lm in
  Alcotest.(check (list (pair int int)))
    "only the well-formed intent's range" [ (1, 0) ]
    (List.map (fun (seg, off, _) -> (seg, off)) plan.Recovery.plan_writes)

let suite =
  [
    ("recover.committed", `Quick, test_committed_survives_crash);
    ("recover.uncommitted", `Quick, test_uncommitted_lost);
    ("recover.no-flush", `Quick, test_no_flush_unflushed_lost_flushed_kept);
    ("recover.latest-wins", `Quick, test_multiple_commits_latest_wins);
    ("recover.idempotent", `Quick, test_crash_during_truncation_is_idempotent);
    ("recover.double-crash", `Quick, test_double_crash_during_recovery);
    ("recover.torn-record", `Quick, test_torn_final_record_discarded);
    ("recover.wrapped-log", `Quick, test_recovery_after_many_wraps);
    ("recover.reads-live-once", `Quick, test_recovery_reads_live_once);
    ("recover.empty-open-one-chunk", `Quick, test_empty_open_reads_one_chunk);
    ("recover.torn-record-bounded", `Quick, test_torn_final_record_bounded);
    ("recover.spans-sum", `Quick, test_recovery_spans_sum);
    ("plan.malformed-intent", `Quick, test_plan_skips_malformed_intent);
  ]
