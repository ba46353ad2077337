(* Engine tests: mapping rules, transaction semantics (commit/abort,
   restore modes, flush modes), memory accessors, query, termination. *)

open Rvm_core
module Device = Rvm_disk.Device
module Mem_device = Rvm_disk.Mem_device

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* A small world: a log and a couple of memory-backed segments. *)
type world = {
  rvm : Rvm.t;
  seg_devs : (int, Device.t) Hashtbl.t;
}

let make_world ?options ?(segs = [ (1, 256 * 1024) ]) ?(log_size = 256 * 1024)
    () =
  let log_dev = Mem_device.create ~name:"log" ~size:log_size () in
  Rvm.create_log log_dev;
  let seg_devs = Hashtbl.create 4 in
  List.iter
    (fun (id, size) ->
      Hashtbl.replace seg_devs id
        (Mem_device.create ~name:(Printf.sprintf "seg%d" id) ~size ()))
    segs;
  let resolve id =
    match Hashtbl.find_opt seg_devs id with
    | Some d -> d
    | None -> Alcotest.failf "unknown segment %d" id
  in
  let rvm = Rvm.initialize ?options ~log:log_dev ~resolve () in
  { rvm; seg_devs }

let ps = 4096

let test_map_basic () =
  let w = make_world () in
  let r = Rvm.map w.rvm ~seg:1 ~seg_off:0 ~len:(4 * ps) () in
  check_int "length" (4 * ps) r.Region.length;
  check_bool "mapped" true r.Region.mapped;
  check_int "one region" 1 (List.length (Rvm.regions w.rvm))

let test_map_loads_committed_image () =
  let w = make_world () in
  let seg_dev = Hashtbl.find w.seg_devs 1 in
  Device.write_string seg_dev ~off:100 "pre-existing";
  let r = Rvm.map w.rvm ~seg:1 ~seg_off:0 ~len:ps () in
  check_str "segment contents visible" "pre-existing"
    (Bytes.to_string (Rvm.load w.rvm ~addr:(r.Region.vaddr + 100) ~len:12))

let test_map_rejects_overlap () =
  let w = make_world () in
  let r = Rvm.map w.rvm ~seg:1 ~seg_off:0 ~len:(2 * ps) () in
  (* Virtual overlap. *)
  Alcotest.check_raises "vaddr overlap"
    (Types.Rvm_error
       (Format.asprintf
          "map: [%#x, %#x) overlaps existing mapping at %#x" r.Region.vaddr
          (r.Region.vaddr + ps) r.Region.vaddr))
    (fun () ->
      ignore
        (Rvm.map w.rvm ~vaddr:r.Region.vaddr ~seg:1 ~seg_off:(8 * ps) ~len:ps ()));
  (* Same segment range mapped twice (the aliasing rule). *)
  let raised =
    try
      ignore (Rvm.map w.rvm ~seg:1 ~seg_off:ps ~len:ps ());
      false
    with Types.Rvm_error _ -> true
  in
  check_bool "segment alias rejected" true raised

let test_map_alignment_rules () =
  let w = make_world () in
  let misaligned f = try f (); false with Types.Rvm_error _ -> true in
  check_bool "vaddr alignment" true
    (misaligned (fun () ->
         ignore (Rvm.map w.rvm ~vaddr:100 ~seg:1 ~seg_off:0 ~len:ps ())));
  check_bool "length multiple" true
    (misaligned (fun () ->
         ignore (Rvm.map w.rvm ~seg:1 ~seg_off:0 ~len:(ps + 1) ())));
  check_bool "seg_off alignment" true
    (misaligned (fun () ->
         ignore (Rvm.map w.rvm ~seg:1 ~seg_off:3 ~len:ps ())))

let test_map_beyond_segment () =
  let w = make_world ~segs:[ (1, 2 * ps) ] () in
  let raised =
    try
      ignore (Rvm.map w.rvm ~seg:1 ~seg_off:0 ~len:(4 * ps) ());
      false
    with Types.Rvm_error _ -> true
  in
  check_bool "rejected" true raised

let test_commit_durable () =
  let w = make_world () in
  let r = Rvm.map w.rvm ~seg:1 ~seg_off:0 ~len:ps () in
  let a = r.Region.vaddr in
  let tid = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.set_range w.rvm tid ~addr:a ~len:5;
  Rvm.store_string w.rvm ~addr:a "hello";
  Rvm.end_transaction w.rvm tid ~mode:Types.Flush;
  check_str "in memory" "hello" (Bytes.to_string (Rvm.load w.rvm ~addr:a ~len:5));
  (* The log, not the segment, holds the change until truncation. *)
  check_bool "log non-empty" false
    (Rvm_log.Log_manager.is_empty (Rvm.log_manager w.rvm));
  Rvm.truncate w.rvm;
  let seg_dev = Hashtbl.find w.seg_devs 1 in
  check_str "segment updated after truncation" "hello"
    (Bytes.to_string (Device.read_bytes seg_dev ~off:0 ~len:5))

let test_abort_restores () =
  let w = make_world () in
  let r = Rvm.map w.rvm ~seg:1 ~seg_off:0 ~len:ps () in
  let a = r.Region.vaddr in
  let tid0 = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.modify w.rvm tid0 ~addr:a (Bytes.of_string "original!");
  Rvm.end_transaction w.rvm tid0 ~mode:Types.Flush;
  let tid = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.set_range w.rvm tid ~addr:a ~len:9;
  Rvm.store_string w.rvm ~addr:a "clobbered";
  (* Duplicate set_range must not re-save the now-dirty value. *)
  Rvm.set_range w.rvm tid ~addr:a ~len:9;
  Rvm.store_string w.rvm ~addr:a "clobber2!";
  Rvm.abort_transaction w.rvm tid;
  check_str "restored" "original!"
    (Bytes.to_string (Rvm.load w.rvm ~addr:a ~len:9))

let test_abort_partial_overlap () =
  (* Overlapping set_ranges: each byte must restore to its value at first
     coverage. *)
  let w = make_world () in
  let r = Rvm.map w.rvm ~seg:1 ~seg_off:0 ~len:ps () in
  let a = r.Region.vaddr in
  let tid0 = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.modify w.rvm tid0 ~addr:a (Bytes.of_string "AAAABBBBCCCC");
  Rvm.end_transaction w.rvm tid0 ~mode:Types.Flush;
  let tid = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.set_range w.rvm tid ~addr:(a + 4) ~len:4;
  Rvm.store_string w.rvm ~addr:(a + 4) "XXXX";
  Rvm.set_range w.rvm tid ~addr:a ~len:12;
  Rvm.store_string w.rvm ~addr:a "YYYYYYYYYYYY";
  Rvm.abort_transaction w.rvm tid;
  check_str "all restored" "AAAABBBBCCCC"
    (Bytes.to_string (Rvm.load w.rvm ~addr:a ~len:12))

(* Old values live in arenas the engine reuses: a transaction that
   commits hands its arena to the next one, two live transactions never
   share one, and an arena grown past its first size (entries and bytes)
   still restores every byte. *)
let test_abort_reused_arenas () =
  let w = make_world () in
  let r = Rvm.map w.rvm ~seg:1 ~seg_off:0 ~len:ps () in
  let a = r.Region.vaddr in
  let image = Bytes.init 2048 (fun i -> Char.chr (i mod 251)) in
  let tid0 = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.modify w.rvm tid0 ~addr:a image;
  Rvm.end_transaction w.rvm tid0 ~mode:Types.Flush;
  (* Two live transactions on disjoint halves, 24 ranges of 40 bytes
     each: more entries and more bytes than a fresh arena holds. *)
  let t1 = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  let t2 = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  for i = 0 to 23 do
    Rvm.set_range w.rvm t1 ~addr:(a + (i * 40)) ~len:40;
    Rvm.set_range w.rvm t2 ~addr:(a + 1024 + (i * 40)) ~len:40
  done;
  Rvm.store w.rvm ~addr:a (Bytes.make 960 'x');
  Rvm.store w.rvm ~addr:(a + 1024) (Bytes.make 960 'y');
  Rvm.abort_transaction w.rvm t2;
  check_str "t2's half restored" (Bytes.sub_string image 1024 960)
    (Bytes.to_string (Rvm.load w.rvm ~addr:(a + 1024) ~len:960));
  check_str "t1's half still written" (String.make 960 'x')
    (Bytes.to_string (Rvm.load w.rvm ~addr:a ~len:960));
  (* t2's arena, back in the pool, serves a new transaction while t1
     still holds its own. *)
  let t3 = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.modify w.rvm t3 ~addr:(a + 1500) (Bytes.of_string "zzzz");
  Rvm.end_transaction w.rvm t3 ~mode:Types.Flush;
  Rvm.abort_transaction w.rvm t1;
  check_str "t1's half restored" (Bytes.sub_string image 0 960)
    (Bytes.to_string (Rvm.load w.rvm ~addr:a ~len:960));
  check_str "t3's commit kept" "zzzz"
    (Bytes.to_string (Rvm.load w.rvm ~addr:(a + 1500) ~len:4));
  (* A transaction on a reused arena saves only its own ranges. *)
  let t4 = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.modify w.rvm t4 ~addr:(a + 8) (Bytes.of_string "abc");
  Rvm.abort_transaction w.rvm t4;
  check_str "whole image as committed"
    (Bytes.to_string (Bytes.sub image 0 1500) ^ "zzzz"
    ^ Bytes.sub_string image 1504 544)
    (Bytes.to_string (Rvm.load w.rvm ~addr:a ~len:2048))

(* An arena's entries, addressable in save order, and the pool handing
   back an emptied arena, but not one that saved past the cap or was
   taken before a drain. *)
let test_undo_entries () =
  let w = make_world () in
  let r = Rvm.map w.rvm ~seg:1 ~seg_off:0 ~len:ps () in
  Bytes.blit_string "0123456789" 0 r.Region.buf 0 10;
  let pool = Undo.pool () in
  let u = Undo.take pool in
  Undo.save u r ~region_off:2 ~len:3;
  Undo.save u r ~region_off:7 ~len:2;
  check_int "entries" 2 (Undo.count u);
  check_bool "region" true (Undo.region u 1 == r);
  check_int "offset" 7 (Undo.region_off u 1);
  check_int "length" 3 (Undo.length u 0);
  Bytes.blit_string "----------" 0 r.Region.buf 0 10;
  Undo.restore u 1;
  Undo.restore u 0;
  check_str "restored" "--234--78-" (Bytes.sub_string r.Region.buf 0 10);
  Undo.give pool u;
  let u' = Undo.take pool in
  check_bool "reused" true (u' == u);
  check_int "emptied" 0 (Undo.count u');
  check_bool "a second take is fresh" true (Undo.take pool != u);
  for _ = 1 to 17 do
    Undo.save u' r ~region_off:0 ~len:4096
  done;
  Undo.give pool u';
  check_bool "over 64 KiB: dropped" true (Undo.take pool != u');
  let live = Undo.take pool in
  Undo.give pool (Undo.take pool);
  Undo.drain pool;
  let pooled = Undo.take pool in
  Undo.give pool live;
  check_bool "taken before the drain: dropped" true (Undo.take pool != live);
  Undo.give pool pooled;
  check_bool "taken after it: kept" true (Undo.take pool == pooled)

let test_no_restore_cannot_abort () =
  let w = make_world () in
  let r = Rvm.map w.rvm ~seg:1 ~seg_off:0 ~len:ps () in
  let tid = Rvm.begin_transaction w.rvm ~mode:Types.No_restore in
  Rvm.set_range w.rvm tid ~addr:r.Region.vaddr ~len:4;
  let raised =
    try
      Rvm.abort_transaction w.rvm tid;
      false
    with Types.Rvm_error _ -> true
  in
  check_bool "abort rejected" true raised;
  (* The transaction is still active and can commit. *)
  Rvm.end_transaction w.rvm tid ~mode:Types.Flush

let test_empty_transaction () =
  let w = make_world () in
  ignore (Rvm.map w.rvm ~seg:1 ~seg_off:0 ~len:ps ());
  let lm = Rvm.log_manager w.rvm in
  let before = Rvm_log.Log_manager.record_count lm in
  let tid = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.end_transaction w.rvm tid ~mode:Types.Flush;
  check_int "no record logged" before (Rvm_log.Log_manager.record_count lm)

let test_unknown_tid () =
  let w = make_world () in
  ignore (Rvm.map w.rvm ~seg:1 ~seg_off:0 ~len:ps ());
  Alcotest.check_raises "unknown" (Types.Rvm_error "unknown transaction 999")
    (fun () -> Rvm.set_range w.rvm 999 ~addr:0 ~len:1)

let test_commit_twice_rejected () =
  let w = make_world () in
  let r = Rvm.map w.rvm ~seg:1 ~seg_off:0 ~len:ps () in
  let tid = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.set_range w.rvm tid ~addr:r.Region.vaddr ~len:1;
  Rvm.end_transaction w.rvm tid ~mode:Types.Flush;
  let raised =
    try
      Rvm.end_transaction w.rvm tid ~mode:Types.Flush;
      false
    with Types.Rvm_error _ -> true
  in
  check_bool "double commit rejected" true raised

let test_set_range_outside_region () =
  let w = make_world () in
  let r = Rvm.map w.rvm ~seg:1 ~seg_off:0 ~len:ps () in
  let tid = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  let raised =
    try
      Rvm.set_range w.rvm tid ~addr:(r.Region.vaddr + ps - 2) ~len:8;
      false
    with Types.Rvm_error _ -> true
  in
  check_bool "straddling range rejected" true raised;
  Rvm.abort_transaction w.rvm tid

let test_no_flush_commit_is_spooled () =
  let w = make_world () in
  let r = Rvm.map w.rvm ~seg:1 ~seg_off:0 ~len:ps () in
  let a = r.Region.vaddr in
  let tid = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.modify w.rvm tid ~addr:a (Bytes.of_string "lazy");
  Rvm.end_transaction w.rvm tid ~mode:Types.No_flush;
  let q = Rvm.query w.rvm in
  check_int "spooled" 1 q.Rvm.spool_records;
  check_bool "not yet in log" true
    (Rvm_log.Log_manager.is_empty (Rvm.log_manager w.rvm));
  Rvm.flush w.rvm;
  let q = Rvm.query w.rvm in
  check_int "spool drained" 0 q.Rvm.spool_records;
  check_bool "now in log" false
    (Rvm_log.Log_manager.is_empty (Rvm.log_manager w.rvm))

let test_flush_commit_drains_spool_in_order () =
  let w = make_world () in
  let r = Rvm.map w.rvm ~seg:1 ~seg_off:0 ~len:ps () in
  let a = r.Region.vaddr in
  let t1 = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.modify w.rvm t1 ~addr:a (Bytes.of_string "first");
  Rvm.end_transaction w.rvm t1 ~mode:Types.No_flush;
  let t2 = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.modify w.rvm t2 ~addr:(a + 100) (Bytes.of_string "second");
  Rvm.end_transaction w.rvm t2 ~mode:Types.Flush;
  (* Both records must be in the log, spooled one first. *)
  let tids = ref [] in
  Rvm_log.Log_manager.iter_live (Rvm.log_manager w.rvm) ~f:(fun ~off:_ rec_ ->
      tids := rec_.Rvm_log.Record.tid :: !tids);
  Alcotest.(check (list int)) "commit order" [ t1; t2 ] (List.rev !tids)

let test_spool_overflow_autoflushes () =
  let options =
    { Options.default with Options.spool_max_bytes = 1024 }
  in
  let w = make_world ~options () in
  let r = Rvm.map w.rvm ~seg:1 ~seg_off:0 ~len:(4 * ps) () in
  let a = r.Region.vaddr in
  for i = 0 to 9 do
    let tid = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
    Rvm.modify w.rvm tid ~addr:(a + (i * 300)) (Bytes.make 200 'x');
    Rvm.end_transaction w.rvm tid ~mode:Types.No_flush
  done;
  let q = Rvm.query w.rvm in
  check_bool "spool bounded" true (q.Rvm.spool_bytes <= 1024)

let test_multi_region_transaction () =
  let w = make_world ~segs:[ (1, 64 * 1024); (2, 64 * 1024) ] () in
  let r1 = Rvm.map w.rvm ~seg:1 ~seg_off:0 ~len:ps () in
  let r2 = Rvm.map w.rvm ~seg:2 ~seg_off:0 ~len:ps () in
  let tid = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.modify w.rvm tid ~addr:r1.Region.vaddr (Bytes.of_string "seg-one");
  Rvm.modify w.rvm tid ~addr:r2.Region.vaddr (Bytes.of_string "seg-two");
  Rvm.end_transaction w.rvm tid ~mode:Types.Flush;
  Rvm.truncate w.rvm;
  check_str "segment 1" "seg-one"
    (Bytes.to_string
       (Device.read_bytes (Hashtbl.find w.seg_devs 1) ~off:0 ~len:7));
  check_str "segment 2" "seg-two"
    (Bytes.to_string
       (Device.read_bytes (Hashtbl.find w.seg_devs 2) ~off:0 ~len:7))

let test_accessors () =
  let w = make_world () in
  let r = Rvm.map w.rvm ~seg:1 ~seg_off:0 ~len:ps () in
  let a = r.Region.vaddr in
  Rvm.set_u8 w.rvm ~addr:a 200;
  check_int "u8" 200 (Rvm.get_u8 w.rvm ~addr:a);
  Rvm.set_i32 w.rvm ~addr:(a + 8) (-77l);
  Alcotest.(check int32) "i32" (-77l) (Rvm.get_i32 w.rvm ~addr:(a + 8));
  Rvm.set_i64 w.rvm ~addr:(a + 16) 1234567890123L;
  Alcotest.(check int64) "i64" 1234567890123L (Rvm.get_i64 w.rvm ~addr:(a + 16));
  (match Rvm.region_of_addr w.rvm ~addr:(a + 100) with
  | Some r' -> check_int "region_of_addr" r.Region.vaddr r'.Region.vaddr
  | None -> Alcotest.fail "region_of_addr returned None");
  check_bool "unmapped addr" true
    (Option.is_none (Rvm.region_of_addr w.rvm ~addr:1))

let test_unmap_quiescent_only () =
  let w = make_world () in
  let r = Rvm.map w.rvm ~seg:1 ~seg_off:0 ~len:ps () in
  let tid = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.set_range w.rvm tid ~addr:r.Region.vaddr ~len:4;
  let raised =
    try
      Rvm.unmap w.rvm r;
      false
    with Types.Rvm_error _ -> true
  in
  check_bool "busy region can't unmap" true raised;
  Rvm.abort_transaction w.rvm tid;
  Rvm.unmap w.rvm r;
  check_bool "unmapped" false r.Region.mapped

let test_unmap_remap_roundtrip () =
  let w = make_world () in
  let r = Rvm.map w.rvm ~seg:1 ~seg_off:0 ~len:ps () in
  let tid = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.modify w.rvm tid ~addr:r.Region.vaddr (Bytes.of_string "survives unmap");
  Rvm.end_transaction w.rvm tid ~mode:Types.No_flush;
  Rvm.unmap w.rvm r;
  (* Remap elsewhere: committed (even no-flush) data must be there. *)
  let r2 = Rvm.map w.rvm ~seg:1 ~seg_off:0 ~len:ps () in
  check_str "committed image" "survives unmap"
    (Bytes.to_string (Rvm.load w.rvm ~addr:r2.Region.vaddr ~len:14))

(* The address space caches the region its last lookup found. Unmapping
   that region, and mapping another segment at the same address, must
   leave no lookup answered from the old region. *)
let test_remap_same_vaddr () =
  let w = make_world ~segs:[ (1, 8 * ps); (2, 8 * ps) ] () in
  Device.write_string (Hashtbl.find w.seg_devs 1) ~off:(ps + 16) "first";
  Device.write_string (Hashtbl.find w.seg_devs 2) ~off:16 "second";
  let vaddr = 64 * ps in
  let unmapped addr =
    try
      ignore (Rvm.load w.rvm ~addr ~len:1);
      false
    with Types.Rvm_error _ -> true
  in
  let r = Rvm.map w.rvm ~vaddr ~seg:1 ~seg_off:0 ~len:(2 * ps) () in
  check_str "first mapping" "first"
    (Bytes.to_string (Rvm.load w.rvm ~addr:(vaddr + ps + 16) ~len:5));
  Rvm.unmap w.rvm r;
  check_bool "unmapped address" true (unmapped (vaddr + ps + 16));
  let _ = Rvm.map w.rvm ~vaddr ~seg:2 ~seg_off:0 ~len:ps () in
  check_str "second mapping" "second"
    (Bytes.to_string (Rvm.load w.rvm ~addr:(vaddr + 16) ~len:6));
  check_bool "past the smaller mapping" true (unmapped (vaddr + ps + 16));
  check_bool "below every mapping" true (unmapped (vaddr - 1))

let test_terminate () =
  let w = make_world () in
  let r = Rvm.map w.rvm ~seg:1 ~seg_off:0 ~len:ps () in
  let tid = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.modify w.rvm tid ~addr:r.Region.vaddr (Bytes.of_string "bye");
  Rvm.end_transaction w.rvm tid ~mode:Types.No_flush;
  Rvm.terminate w.rvm;
  (* Spool was flushed on terminate. *)
  let raised =
    try
      ignore (Rvm.query w.rvm);
      false
    with Types.Rvm_error _ -> true
  in
  check_bool "terminated instance rejects calls" true raised

let test_terminate_with_active_txn_rejected () =
  let w = make_world () in
  let r = Rvm.map w.rvm ~seg:1 ~seg_off:0 ~len:ps () in
  let tid = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.set_range w.rvm tid ~addr:r.Region.vaddr ~len:1;
  let raised =
    try
      Rvm.terminate w.rvm;
      false
    with Types.Rvm_error _ -> true
  in
  check_bool "rejected" true raised;
  Rvm.abort_transaction w.rvm tid;
  Rvm.terminate w.rvm

let test_query () =
  let w = make_world () in
  let r = Rvm.map w.rvm ~seg:1 ~seg_off:0 ~len:ps () in
  let t1 = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  let t2 = Rvm.begin_transaction w.rvm ~mode:Types.No_restore in
  let q = Rvm.query w.rvm in
  check_int "two active" 2 (List.length q.Rvm.active_tids);
  check_bool "tids listed" true
    (List.mem t1 q.Rvm.active_tids && List.mem t2 q.Rvm.active_tids);
  check_int "regions" 1 q.Rvm.mapped_regions;
  Rvm.set_range w.rvm t1 ~addr:r.Region.vaddr ~len:1;
  Rvm.end_transaction w.rvm t1 ~mode:Types.Flush;
  Rvm.end_transaction w.rvm t2 ~mode:Types.Flush;
  check_int "none active" 0 (List.length (Rvm.query w.rvm).Rvm.active_tids)

let test_demand_map_mode () =
  (* The planned external-pager option: map charges nothing, contents are
     still the committed image, and first touches fault. *)
  let clock = Rvm_util.Clock.simulated () in
  let model = Rvm_util.Cost_model.dec5000 in
  let vm =
    Rvm_vm.Vm_sim.create ~clock ~model
      {
        Rvm_vm.Vm_sim.physical_pages = 64;
        page_size = ps;
        fault_disk = model.Rvm_util.Cost_model.data_disk;
        evict_disk = model.Rvm_util.Cost_model.data_disk;
        evict_in_background = true;
      }
  in
  let log_dev = Mem_device.create ~name:"log" ~size:(256 * 1024) () in
  Rvm.create_log log_dev;
  let seg_dev = Mem_device.create ~name:"seg" ~size:(64 * 1024) () in
  Device.write_string seg_dev ~off:0 "lazy image";
  let options = { Options.default with Options.map_mode = Options.Demand } in
  let rvm =
    Rvm.initialize ~options ~clock ~model ~vm ~log:log_dev
      ~resolve:(fun _ -> seg_dev)
      ()
  in
  let t0 = Rvm_util.Clock.now_us clock in
  let r = Rvm.map rvm ~seg:1 ~seg_off:0 ~len:(8 * ps) () in
  Alcotest.(check (float 0.)) "map is free" t0 (Rvm_util.Clock.now_us clock);
  check_int "nothing resident" 0 (Rvm_vm.Vm_sim.resident_pages vm);
  check_str "committed image available" "lazy image"
    (Bytes.to_string (Rvm.load rvm ~addr:r.Region.vaddr ~len:10));
  check_int "first touch faulted" 1 (Rvm_vm.Vm_sim.faults vm);
  check_bool "fault charged" true (Rvm_util.Clock.now_us clock > t0)

let test_set_options () =
  let w = make_world () in
  Rvm.set_options w.rvm (fun o ->
      { o with Options.truncation_threshold = 0.25 });
  Alcotest.(check (float 0.))
    "updated" 0.25
    (Rvm.options w.rvm).Options.truncation_threshold;
  let raised =
    try
      Rvm.set_options w.rvm (fun o ->
          { o with Options.truncation_threshold = 5.0 });
      false
    with Types.Rvm_error _ -> true
  in
  check_bool "invalid rejected" true raised

(* Every Statistics field is a view over a named registry counter: the
   snapshot and a direct registry read must agree field by field, and
   reset_stats must zero both sides. *)
let test_stats_match_registry () =
  let w = make_world () in
  let r = Rvm.map w.rvm ~seg:1 ~seg_off:0 ~len:(4 * ps) () in
  let a = r.Region.vaddr in
  let tid = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.modify w.rvm tid ~addr:a (Bytes.of_string "abc");
  Rvm.end_transaction w.rvm tid ~mode:Types.Flush;
  (* Two no-flush commits where the later subsumes the earlier, so the
     inter-transaction counters move too. *)
  let t2 = Rvm.begin_transaction w.rvm ~mode:Types.No_restore in
  Rvm.modify w.rvm t2 ~addr:(a + 64) (Bytes.of_string "xx");
  Rvm.end_transaction w.rvm t2 ~mode:Types.No_flush;
  let t3 = Rvm.begin_transaction w.rvm ~mode:Types.No_restore in
  Rvm.modify w.rvm t3 ~addr:(a + 64) (Bytes.of_string "yyy");
  Rvm.end_transaction w.rvm t3 ~mode:Types.No_flush;
  let t4 = Rvm.begin_transaction w.rvm ~mode:Types.Restore in
  Rvm.modify w.rvm t4 ~addr:(a + 128) (Bytes.of_string "zz");
  Rvm.abort_transaction w.rvm t4;
  Rvm.flush w.rvm;
  Rvm.truncate w.rvm;
  let s = Rvm.stats w.rvm in
  let g name =
    Rvm_obs.Counter.get (Rvm_obs.Registry.counter (Rvm.obs w.rvm) name)
  in
  check_int "txn.committed" s.Statistics.txns_committed (g "txn.committed");
  check_int "txn.aborted" s.Statistics.txns_aborted (g "txn.aborted");
  check_int "txn.set_range" s.Statistics.set_ranges (g "txn.set_range");
  check_int "log.bytes_logged" s.Statistics.bytes_logged (g "log.bytes_logged");
  check_int "log.bytes_spooled" s.Statistics.bytes_spooled
    (g "log.bytes_spooled");
  check_int "opt.intra.saved_bytes" s.Statistics.intra_saved
    (g "opt.intra.saved_bytes");
  check_int "opt.inter.saved_bytes" s.Statistics.inter_saved
    (g "opt.inter.saved_bytes");
  check_int "log.force.count" s.Statistics.forces (g "log.force.count");
  check_int "log.flush" s.Statistics.flushes (g "log.flush");
  check_int "truncation.epoch.count" s.Statistics.epoch_truncations
    (g "truncation.epoch.count");
  check_int "truncation.incremental.step.count" s.Statistics.incremental_steps
    (g "truncation.incremental.step.count");
  check_int "truncation.incremental.blocked" s.Statistics.incremental_blocked
    (g "truncation.incremental.blocked");
  check_int "recovery.count" s.Statistics.recoveries (g "recovery.count");
  check_int "opt.inter.records_dropped" s.Statistics.records_dropped
    (g "opt.inter.records_dropped");
  (* The workload genuinely moved the interesting counters. *)
  check_int "three commits" 3 s.Statistics.txns_committed;
  check_int "one abort" 1 s.Statistics.txns_aborted;
  check_bool "forced at least once" true (s.Statistics.forces > 0);
  check_bool "inter-opt dropped the subsumed record" true
    (s.Statistics.records_dropped >= 1);
  Rvm.reset_stats w.rvm;
  check_int "reset zeroes the snapshot" 0
    (Rvm.stats w.rvm).Statistics.txns_committed;
  check_int "reset zeroes the registry" 0 (g "txn.committed")

(* A no-flush commit allocates for the bytes it logs, not for the depth of
   the no-flush spool or the pages the transaction touched. Cycles of 64
   No_restore transactions, two 128-byte ranges each, committed No_flush
   with a Flush per cycle: the spool runs 0 to 63 deep and no commit
   subsumes another. About 36 words of payload per commit; 93 words per
   end_transaction and 142 per cycle measured (205 and 307 when the spans
   built attribute lists and the commit path closures, tuples and
   intermediate lists), and the bounds leave headroom for allocation
   differences between compiler versions. *)
let test_no_flush_commit_allocation () =
  let options = { Options.default with Options.auto_truncate = false } in
  let w = make_world ~options ~log_size:(1024 * 1024) () in
  let r = Rvm.map w.rvm ~seg:1 ~seg_off:0 ~len:(16 * ps) () in
  let data = Bytes.make 128 'x' in
  let end_words = ref 0. in
  let cycle () =
    for i = 0 to 63 do
      let base = r.Region.vaddr + (i * 1024) in
      let tid = Rvm.begin_transaction w.rvm ~mode:Types.No_restore in
      Rvm.set_range w.rvm tid ~addr:base ~len:128;
      Rvm.store w.rvm ~addr:base data;
      Rvm.set_range w.rvm tid ~addr:(base + 512) ~len:128;
      Rvm.store w.rvm ~addr:(base + 512) data;
      let w0 = Gc.minor_words () in
      Rvm.end_transaction w.rvm tid ~mode:Types.No_flush;
      end_words := !end_words +. (Gc.minor_words () -. w0)
    done;
    Rvm.flush w.rvm
  in
  for _ = 1 to 4 do
    cycle ()
  done;
  end_words := 0.;
  let cycles = 16 in
  let w0 = Gc.minor_words () in
  for _ = 1 to cycles do
    cycle ()
  done;
  let commits = float_of_int (64 * cycles) in
  let per_cycle = (Gc.minor_words () -. w0) /. commits in
  let per_end = !end_words /. commits in
  check_int "nothing subsumed" 0 (Rvm.stats w.rvm).Statistics.records_dropped;
  if per_end > 116. then
    Alcotest.failf "%.0f minor words per No_flush end_transaction (bound 116)"
      per_end;
  if per_cycle > 180. then
    Alcotest.failf
      "%.0f minor words per begin + 2 set_range/store + end + flush/64 \
       (bound 180)"
      per_cycle

let suite =
  [
    ("map.basic", `Quick, test_map_basic);
    ("map.committed-image", `Quick, test_map_loads_committed_image);
    ("map.overlap", `Quick, test_map_rejects_overlap);
    ("map.alignment", `Quick, test_map_alignment_rules);
    ("map.beyond-segment", `Quick, test_map_beyond_segment);
    ("txn.commit-durable", `Quick, test_commit_durable);
    ("txn.abort-restores", `Quick, test_abort_restores);
    ("txn.abort-overlap", `Quick, test_abort_partial_overlap);
    ("txn.abort-reused-arenas", `Quick, test_abort_reused_arenas);
    ("txn.undo-entries", `Quick, test_undo_entries);
    ("txn.no-restore", `Quick, test_no_restore_cannot_abort);
    ("txn.empty", `Quick, test_empty_transaction);
    ("txn.unknown-tid", `Quick, test_unknown_tid);
    ("txn.double-commit", `Quick, test_commit_twice_rejected);
    ("txn.range-bounds", `Quick, test_set_range_outside_region);
    ("txn.no-flush-spool", `Quick, test_no_flush_commit_is_spooled);
    ("txn.commit-order", `Quick, test_flush_commit_drains_spool_in_order);
    ("txn.spool-overflow", `Quick, test_spool_overflow_autoflushes);
    ("txn.multi-region", `Quick, test_multi_region_transaction);
    ("mem.accessors", `Quick, test_accessors);
    ("region.unmap-quiescent", `Quick, test_unmap_quiescent_only);
    ("region.unmap-remap", `Quick, test_unmap_remap_roundtrip);
    ("region.remap-same-vaddr", `Quick, test_remap_same_vaddr);
    ("lifecycle.terminate", `Quick, test_terminate);
    ("lifecycle.terminate-active", `Quick, test_terminate_with_active_txn_rejected);
    ("misc.query", `Quick, test_query);
    ("misc.set-options", `Quick, test_set_options);
    ("map.demand-mode", `Quick, test_demand_map_mode);
    ("stats.match-registry", `Quick, test_stats_match_registry);
    ("txn.no-flush-allocation", `Quick, test_no_flush_commit_allocation);
  ]
