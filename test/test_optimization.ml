(* Intra- and inter-transaction optimization tests (section 5.2) and the
   Table 2 instrumentation. *)

open Rvm_core
module Mem_device = Rvm_disk.Mem_device
module Log_manager = Rvm_log.Log_manager
module Record = Rvm_log.Record

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ps = 4096

type world = { rvm : Rvm.t; region : Region.t }

let make ?(options = Options.default) () =
  let log_dev = Mem_device.create ~name:"log" ~size:(256 * 1024) () in
  Rvm.create_log log_dev;
  let seg_dev = Mem_device.create ~name:"seg" ~size:(64 * 1024) () in
  let options = { options with Options.auto_truncate = false } in
  let rvm = Rvm.initialize ~options ~log:log_dev ~resolve:(fun _ -> seg_dev) () in
  let region = Rvm.map rvm ~seg:1 ~seg_off:0 ~len:(8 * ps) () in
  { rvm; region }

let live_commit_records w =
  List.filter_map
    (fun (_, r) ->
      if r.Record.kind = Record.Commit then Some r else None)
    (Log_manager.live_records (Rvm.log_manager w.rvm))

let test_duplicate_set_range_one_record () =
  let w = make () in
  let a = w.region.Region.vaddr in
  let tid = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  (* Defensive programming: the same range declared three times. *)
  Rvm.set_range w.rvm tid ~addr:a ~len:64;
  Rvm.set_range w.rvm tid ~addr:a ~len:64;
  Rvm.set_range w.rvm tid ~addr:a ~len:64;
  Rvm.store_string w.rvm ~addr:a (String.make 64 'd');
  Rvm.end_transaction w.rvm tid ~mode:Types.Flush;
  match live_commit_records w with
  | [ r ] ->
    check_int "one range" 1 (List.length r.Record.ranges);
    check_int "payload bytes" 64 (Record.data_bytes r);
    check_bool "savings counted" true
      ((Rvm.stats w.rvm).Statistics.intra_saved > 0)
  | l -> Alcotest.failf "expected 1 record, got %d" (List.length l)

let test_adjacent_and_overlapping_coalesce () =
  let w = make () in
  let a = w.region.Region.vaddr in
  let tid = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.set_range w.rvm tid ~addr:a ~len:32;
  Rvm.set_range w.rvm tid ~addr:(a + 32) ~len:32 (* adjacent *);
  Rvm.set_range w.rvm tid ~addr:(a + 48) ~len:32 (* overlapping *);
  Rvm.store_string w.rvm ~addr:a (String.make 80 'c');
  Rvm.end_transaction w.rvm tid ~mode:Types.Flush;
  match live_commit_records w with
  | [ r ] ->
    check_int "one coalesced range" 1 (List.length r.Record.ranges);
    check_int "payload is the union" 80 (Record.data_bytes r)
  | l -> Alcotest.failf "expected 1 record, got %d" (List.length l)

let test_disjoint_ranges_stay_separate () =
  let w = make () in
  let a = w.region.Region.vaddr in
  let tid = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.set_range w.rvm tid ~addr:a ~len:8;
  Rvm.set_range w.rvm tid ~addr:(a + 100) ~len:8;
  Rvm.end_transaction w.rvm tid ~mode:Types.Flush;
  match live_commit_records w with
  | [ r ] -> check_int "two ranges" 2 (List.length r.Record.ranges)
  | l -> Alcotest.failf "expected 1 record, got %d" (List.length l)

let test_intra_disabled_ablation () =
  let options = { Options.default with Options.intra_optimization = false } in
  let w = make ~options () in
  let a = w.region.Region.vaddr in
  let tid = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.set_range w.rvm tid ~addr:a ~len:64;
  Rvm.set_range w.rvm tid ~addr:a ~len:64;
  Rvm.end_transaction w.rvm tid ~mode:Types.Flush;
  match live_commit_records w with
  | [ r ] ->
    check_int "duplicate ranges logged" 2 (List.length r.Record.ranges);
    check_int "double payload" 128 (Record.data_bytes r)
  | l -> Alcotest.failf "expected 1 record, got %d" (List.length l)

let test_inter_subsumed_record_dropped () =
  let w = make () in
  let a = w.region.Region.vaddr in
  (* "cp d1/* d2" pattern: repeated no-flush updates to one structure. *)
  let t1 = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.modify w.rvm t1 ~addr:a (Bytes.make 128 '1');
  Rvm.end_transaction w.rvm t1 ~mode:Types.No_flush;
  let t2 = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.modify w.rvm t2 ~addr:a (Bytes.make 128 '2');
  Rvm.end_transaction w.rvm t2 ~mode:Types.No_flush;
  let q = Rvm.query w.rvm in
  check_int "older spool entry dropped" 1 q.Rvm.spool_records;
  check_int "drop counted" 1 (Rvm.stats w.rvm).Statistics.records_dropped;
  check_bool "bytes counted" true ((Rvm.stats w.rvm).Statistics.inter_saved > 0);
  Rvm.flush w.rvm;
  (* Only the newer record reaches the log; its data wins. *)
  (match live_commit_records w with
  | [ r ] -> check_int "survivor is t2" t2 r.Record.tid
  | l -> Alcotest.failf "expected 1 record, got %d" (List.length l));
  check_int "memory state is t2's" (Char.code '2') (Rvm.get_u8 w.rvm ~addr:a)

let test_inter_not_subsumed_kept () =
  let w = make () in
  let a = w.region.Region.vaddr in
  let t1 = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.modify w.rvm t1 ~addr:a (Bytes.make 128 '1');
  Rvm.end_transaction w.rvm t1 ~mode:Types.No_flush;
  (* Overlaps but does not cover t1 entirely. *)
  let t2 = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.modify w.rvm t2 ~addr:(a + 64) (Bytes.make 128 '2');
  Rvm.end_transaction w.rvm t2 ~mode:Types.No_flush;
  let q = Rvm.query w.rvm in
  check_int "both kept" 2 q.Rvm.spool_records;
  Rvm.flush w.rvm;
  (* Correct final state: prefix from t1, rest from t2. *)
  check_int "byte 0 from t1" (Char.code '1') (Rvm.get_u8 w.rvm ~addr:a);
  check_int "byte 100 from t2" (Char.code '2') (Rvm.get_u8 w.rvm ~addr:(a + 100))

let test_inter_only_for_no_flush () =
  (* Flush commits drain the spool, so there is nothing to subsume: servers
     see no inter-transaction savings (Table 2's 0.0% server rows). *)
  let w = make () in
  let a = w.region.Region.vaddr in
  let t1 = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.modify w.rvm t1 ~addr:a (Bytes.make 128 '1');
  Rvm.end_transaction w.rvm t1 ~mode:Types.Flush;
  let t2 = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.modify w.rvm t2 ~addr:a (Bytes.make 128 '2');
  Rvm.end_transaction w.rvm t2 ~mode:Types.Flush;
  check_int "no inter savings" 0 (Rvm.stats w.rvm).Statistics.inter_saved;
  check_int "both records logged" 2 (List.length (live_commit_records w))

let test_inter_disabled_ablation () =
  let options = { Options.default with Options.inter_optimization = false } in
  let w = make ~options () in
  let a = w.region.Region.vaddr in
  for _ = 1 to 3 do
    let tid = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
    Rvm.modify w.rvm tid ~addr:a (Bytes.make 64 'z');
    Rvm.end_transaction w.rvm tid ~mode:Types.No_flush
  done;
  check_int "all three spooled" 3 (Rvm.query w.rvm).Rvm.spool_records

let test_inter_subsume_requires_all_segments () =
  let log_dev = Mem_device.create ~name:"log" ~size:(256 * 1024) () in
  Rvm.create_log log_dev;
  let segs = Hashtbl.create 2 in
  Hashtbl.replace segs 1 (Mem_device.create ~name:"seg1" ~size:(64 * 1024) ());
  Hashtbl.replace segs 2 (Mem_device.create ~name:"seg2" ~size:(64 * 1024) ());
  let rvm =
    Rvm.initialize ~log:log_dev ~resolve:(fun id -> Hashtbl.find segs id) ()
  in
  let r1 = Rvm.map rvm ~seg:1 ~seg_off:0 ~len:ps () in
  let r2 = Rvm.map rvm ~seg:2 ~seg_off:0 ~len:ps () in
  (* t1 touches both segments; t2 only covers segment 1: must not drop t1. *)
  let t1 = Rvm.begin_transaction rvm ~mode:Types.Restore in
  Rvm.modify rvm t1 ~addr:r1.Region.vaddr (Bytes.make 32 'a');
  Rvm.modify rvm t1 ~addr:r2.Region.vaddr (Bytes.make 32 'b');
  Rvm.end_transaction rvm t1 ~mode:Types.No_flush;
  let t2 = Rvm.begin_transaction rvm ~mode:Types.Restore in
  Rvm.modify rvm t2 ~addr:r1.Region.vaddr (Bytes.make 32 'c');
  Rvm.end_transaction rvm t2 ~mode:Types.No_flush;
  check_int "t1 kept" 2 (Rvm.query rvm).Rvm.spool_records

(* Two adjacent regions of one segment. The older transaction's bytes
   straddle the boundary: the last 64 bytes of the first region and the
   first 64 of the second, one interval in segment coordinates. A newer
   transaction covering both halves drops it; one byte short at either
   end keeps it. *)
let test_inter_multi_region_same_segment () =
  let spool_after ~newer_lo ~newer_hi =
    let log_dev = Mem_device.create ~name:"log" ~size:(256 * 1024) () in
    Rvm.create_log log_dev;
    let seg_dev = Mem_device.create ~name:"seg" ~size:(64 * 1024) () in
    let options = { Options.default with Options.auto_truncate = false } in
    let rvm =
      Rvm.initialize ~options ~log:log_dev ~resolve:(fun _ -> seg_dev) ()
    in
    let ra = Rvm.map rvm ~seg:1 ~seg_off:0 ~len:ps () in
    let rb = Rvm.map rvm ~seg:1 ~seg_off:ps ~len:ps () in
    (* Segment offset [off] through whichever region maps it. *)
    let addr off =
      if off < ps then ra.Region.vaddr + off else rb.Region.vaddr + off - ps
    in
    let write tid ~lo ~hi c =
      if lo < ps then Rvm.modify rvm tid ~addr:(addr lo) (Bytes.make (ps - lo) c);
      if hi > ps then Rvm.modify rvm tid ~addr:(addr ps) (Bytes.make (hi - ps) c)
    in
    let t1 = Rvm.begin_transaction rvm ~mode:Types.Restore in
    write t1 ~lo:(ps - 64) ~hi:(ps + 64) '1';
    Rvm.end_transaction rvm t1 ~mode:Types.No_flush;
    let t2 = Rvm.begin_transaction rvm ~mode:Types.Restore in
    write t2 ~lo:newer_lo ~hi:newer_hi '2';
    Rvm.end_transaction rvm t2 ~mode:Types.No_flush;
    let spooled = (Rvm.query rvm).Rvm.spool_records in
    let dropped = (Rvm.stats rvm).Statistics.records_dropped in
    Rvm.flush rvm;
    check_int "every page reference released" 0
      (List.fold_left
         (fun acc (r : Region.t) ->
           acc + Rvm_vm.Page_table.uncommitted r.Region.pages 0)
         0 [ ra; rb ]);
    (spooled, dropped)
  in
  let check name ~newer_lo ~newer_hi ~spooled ~dropped =
    let s, d = spool_after ~newer_lo ~newer_hi in
    check_int (name ^ ": spool records") spooled s;
    check_int (name ^ ": records dropped") dropped d
  in
  check "covers both halves" ~newer_lo:(ps - 64) ~newer_hi:(ps + 64) ~spooled:1
    ~dropped:1;
  check "covers more" ~newer_lo:(ps - 100) ~newer_hi:(ps + 100) ~spooled:1
    ~dropped:1;
  check "one byte short at the end" ~newer_lo:(ps - 64) ~newer_hi:(ps + 63)
    ~spooled:2 ~dropped:0;
  check "one byte short at the start" ~newer_lo:(ps - 63) ~newer_hi:(ps + 64)
    ~spooled:2 ~dropped:0

let test_statistics_fractions () =
  let zero = Statistics.Live.(snapshot (create (Rvm_obs.Registry.create ()))) in
  let s =
    {
      zero with
      Statistics.bytes_logged = 600;
      intra_saved = 300;
      inter_saved = 100;
    }
  in
  Alcotest.(check (float 1e-9)) "intra" 0.3 (Statistics.intra_fraction s);
  Alcotest.(check (float 1e-9)) "inter" 0.1 (Statistics.inter_fraction s);
  Alcotest.(check (float 1e-9)) "total" 0.4 (Statistics.total_fraction s);
  check_int "original" 1000 (Statistics.original_bytes s)

let suite =
  [
    ("intra.duplicate", `Quick, test_duplicate_set_range_one_record);
    ("intra.coalesce", `Quick, test_adjacent_and_overlapping_coalesce);
    ("intra.disjoint", `Quick, test_disjoint_ranges_stay_separate);
    ("intra.ablation", `Quick, test_intra_disabled_ablation);
    ("inter.subsumed", `Quick, test_inter_subsumed_record_dropped);
    ("inter.partial", `Quick, test_inter_not_subsumed_kept);
    ("inter.flush-only", `Quick, test_inter_only_for_no_flush);
    ("inter.ablation", `Quick, test_inter_disabled_ablation);
    ("inter.multi-segment", `Quick, test_inter_subsume_requires_all_segments);
    ( "inter.multi-region-same-segment",
      `Quick,
      test_inter_multi_region_same_segment );
    ("stats.fractions", `Quick, test_statistics_fractions);
  ]
