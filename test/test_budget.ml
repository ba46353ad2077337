(* Allocation budgets per call on the engine's access and commit paths,
   and per request served through the scheduler.

   Allocation is the deterministic half of host cost: the same calls on the
   same data allocate the same minor words on every run. Each test states
   the words per call it measured (OCaml 5.1.1) and fails above a bound
   with headroom for other compiler versions. The engine worlds carry a
   paging simulator with every page resident, so each access also runs
   the page touch. *)

open Rvm_core
module Mem_device = Rvm_disk.Mem_device
module Clock = Rvm_util.Clock
module Cost_model = Rvm_util.Cost_model
module Vm_sim = Rvm_vm.Vm_sim
module Rds = Rvm_alloc.Rds
module Pbtree = Rvm_pds.Pbtree
module Ycsb = Rvm_workload.Ycsb
module Ycsb_run = Rvm_server.Ycsb_run
module Server = Rvm_server.Server
module Scheduler = Rvm_server.Scheduler
module Lock_mgr = Rvm_layers.Lock_mgr
module Rng = Rvm_util.Rng
module Log_manager = Rvm_log.Log_manager

let ps = 4096

(* Fail when [words] per call exceed [bound]. *)
let within what ~bound words =
  if words > bound then
    Alcotest.failf "%.1f minor words per %s (bound %.0f)" words what bound

(* Minor words per call of [f i] over [n] calls, after [n] warm-up calls
   (which grow whatever the calls grow once). *)
let words_per_call ~n f =
  for i = 0 to n - 1 do
    f i
  done;
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    f i
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* An engine on a simulated clock with a paging simulator large enough to
   hold every page, and one mapped region of [pages] pages (all resident
   after the map's sequential load). *)
let make_engine ?(pages = 128) () =
  let clock = Clock.simulated () in
  let model = Cost_model.dec5000 in
  let vm =
    Vm_sim.create ~clock ~model
      {
        Vm_sim.physical_pages = 4 * pages;
        page_size = ps;
        fault_disk = model.Cost_model.data_disk;
        evict_disk = model.Cost_model.data_disk;
        evict_in_background = true;
      }
  in
  let log = Mem_device.create ~name:"log" ~size:(4 * 1024 * 1024) () in
  Rvm.create_log log;
  let seg = Mem_device.create ~name:"seg" ~size:(pages * ps) () in
  let rvm =
    Rvm.initialize ~clock ~model ~vm ~log ~resolve:(fun _ -> seg) ()
  in
  let r = Rvm.map rvm ~seg:1 ~seg_off:0 ~len:(pages * ps) () in
  (rvm, r.Region.vaddr, vm)

(* begin_transaction alone, each transaction then committed empty: the
   transaction's record and its table entry, with the [txn.begin] event's
   attributes stored in the flight recorder's columns. 12.0 words
   measured; 35.0 when the event built a fresh attribute list. *)
let test_begin () =
  let rvm, _, _ = make_engine () in
  let words = ref 0. in
  let txn () =
    let w0 = Gc.minor_words () in
    let tid = Rvm.begin_transaction rvm ~mode:Types.No_restore in
    words := !words +. (Gc.minor_words () -. w0);
    Rvm.end_transaction rvm tid ~mode:Types.No_flush
  in
  for _ = 1 to 1024 do
    txn ()
  done;
  words := 0.;
  for _ = 1 to 4096 do
    txn ()
  done;
  within "begin_transaction" ~bound:15. (!words /. 4096.)

(* Sixteen set_range calls per transaction, 64 to 192 bytes each on its
   own 256-byte slot, committed No_flush with a Flush every 64
   transactions: the crash-recover loop's declarations. Words are counted
   around the set_range calls alone. *)
let set_range_words mode =
  let rvm, base, _ = make_engine () in
  let words = ref 0. and calls = ref 0 in
  let txn k =
    let tid = Rvm.begin_transaction rvm ~mode in
    for j = 0 to 15 do
      let addr = base + (256 * ((16 * (k mod 64)) + j)) in
      let len = 64 + (8 * ((k + j) mod 17)) in
      let w0 = Gc.minor_words () in
      Rvm.set_range rvm tid ~addr ~len;
      words := !words +. (Gc.minor_words () -. w0);
      incr calls
    done;
    Rvm.end_transaction rvm tid ~mode:Types.No_flush;
    if k mod 64 = 63 then Rvm.flush rvm
  in
  for k = 0 to 255 do
    txn k
  done;
  words := 0.;
  calls := 0;
  for k = 256 to 1279 do
    txn k
  done;
  !words /. float_of_int !calls

(* 6.6 words measured: the per-transaction state a region's first call
   creates and the interval array growing, spread over the calls; 8.6
   when each charge also boxed the clock's CPU total, 14.2 when every
   call was also recorded for the intra-optimization ablation. *)
let test_set_range_no_restore () =
  within "No_restore set_range" ~bound:9.
    (set_range_words Types.No_restore)

(* Restore mode also saves each call's old bytes, copied into the
   transaction's undo arena, which the engine reuses from one transaction
   to the next: 10.6 words measured. 46.6 when each save was a fresh
   copy, a saved-value record, its list cell and the closure that found
   the gaps. *)
let test_set_range_restore () =
  within "Restore set_range" ~bound:14. (set_range_words Types.Restore)

(* A 128-byte store: 4.0 words measured, the copy charge's boxed argument
   and the clock's new time; 6.0 when the charge boxed the CPU total
   too. *)
let test_store () =
  let rvm, base, _ = make_engine () in
  let data = Bytes.make 128 's' in
  within "store" ~bound:5.
    (words_per_call ~n:4096 (fun i ->
         Rvm.store rvm ~addr:(base + (128 * (i mod 1024))) data))

(* A 128-byte load allocates its result, 18 words, and nothing else. *)
let test_load () =
  let rvm, base, _ = make_engine () in
  within "load" ~bound:24.
    (words_per_call ~n:4096 (fun i ->
         ignore (Rvm.load rvm ~addr:(base + (128 * (i mod 1024))) ~len:128)))

(* read_into a caller's buffer: 0 words measured. *)
let test_read_into () =
  let rvm, base, _ = make_engine () in
  let buf = Bytes.create 128 in
  within "read_into" ~bound:1.
    (words_per_call ~n:4096 (fun i ->
         Rvm.read_into rvm ~addr:(base + (128 * (i mod 1024))) ~len:128 buf
           ~pos:0))

(* A touch of a resident page moves it to the front of the LRU list: 0
   words measured. *)
let test_vm_touch () =
  let _, base, vm = make_engine () in
  let first = base / ps in
  within "resident Vm_sim.touch" ~bound:1.
    (words_per_call ~n:4096 (fun i ->
         Vm_sim.touch vm ~page:(first + (i * 7 mod 128)) ~write:(i land 1 = 0)))

(* Cycles of 64 No_flush commits of two 128-byte ranges, each cycle
   drained by a Flush: words per drained record. 9.2 measured; 11.2 when
   each charge boxed the clock's CPU total; 29.1 with the spool reversed
   into a list, a tuple per pending LSN and per append, and the drain's
   spans built from lists and closures. *)
let test_flush () =
  let options = { Options.default with Options.auto_truncate = false } in
  let clock = Clock.simulated () in
  let log = Mem_device.create ~name:"log" ~size:(4 * 1024 * 1024) () in
  Rvm.create_log log;
  let seg = Mem_device.create ~name:"seg" ~size:(16 * ps) () in
  let rvm = Rvm.initialize ~options ~clock ~log ~resolve:(fun _ -> seg) () in
  let base = (Rvm.map rvm ~seg:1 ~seg_off:0 ~len:(16 * ps) ()).Region.vaddr in
  let data = Bytes.make 128 'f' in
  let flush_words = ref 0. in
  let cycle () =
    for i = 0 to 63 do
      let addr = base + (i * 1024) in
      let tid = Rvm.begin_transaction rvm ~mode:Types.No_restore in
      Rvm.modify rvm tid ~addr data;
      Rvm.modify rvm tid ~addr:(addr + 512) data;
      Rvm.end_transaction rvm tid ~mode:Types.No_flush
    done;
    let w0 = Gc.minor_words () in
    Rvm.flush rvm;
    flush_words := !flush_words +. (Gc.minor_words () -. w0)
  in
  for _ = 1 to 4 do
    cycle ()
  done;
  flush_words := 0.;
  for _ = 1 to 16 do
    cycle ()
  done;
  within "drained record" ~bound:12. (!flush_words /. float_of_int (16 * 64))

(* A Flush-mode commit of two 128-byte ranges: the record built, written
   and forced at once. Words are counted around [end_transaction] alone.
   95.0 words measured; 105.0 when each charge boxed the clock's CPU
   total; 315.0 when each span of the commit, its drain, write, force and
   sync built its attributes as a fresh list. *)
let test_end_flush () =
  let options = { Options.default with Options.auto_truncate = false } in
  let clock = Clock.simulated () in
  let log = Mem_device.create ~name:"log" ~size:(4 * 1024 * 1024) () in
  Rvm.create_log log;
  let seg = Mem_device.create ~name:"seg" ~size:(16 * ps) () in
  let rvm = Rvm.initialize ~options ~clock ~log ~resolve:(fun _ -> seg) () in
  let base = (Rvm.map rvm ~seg:1 ~seg_off:0 ~len:(16 * ps) ()).Region.vaddr in
  let data = Bytes.make 128 'f' in
  let words = ref 0. in
  let commit i =
    let addr = base + (i mod 64 * 1024) in
    let tid = Rvm.begin_transaction rvm ~mode:Types.No_restore in
    Rvm.modify rvm tid ~addr data;
    Rvm.modify rvm tid ~addr:(addr + 512) data;
    let w0 = Gc.minor_words () in
    Rvm.end_transaction rvm tid ~mode:Types.Flush;
    words := !words +. (Gc.minor_words () -. w0)
  in
  for i = 0 to 255 do
    commit i
  done;
  words := 0.;
  for i = 256 to 1279 do
    commit i
  done;
  within "Flush end_transaction" ~bound:120. (!words /. 1024.)

(* Recovery of 1 024 committed records of two 128-byte ranges each, read
   from the log and applied to the segment: words per applied record,
   counted around [recover] alone. 364.9 words measured. *)
let test_recovery () =
  let options = { Options.default with Options.auto_truncate = false } in
  let log = Mem_device.create ~name:"log" ~size:(4 * 1024 * 1024) () in
  Rvm.create_log log;
  let seg = Mem_device.create ~name:"seg" ~size:(16 * ps) () in
  let resolve _ = seg in
  let rvm = Rvm.initialize ~options ~log ~resolve () in
  let base = (Rvm.map rvm ~seg:1 ~seg_off:0 ~len:(16 * ps) ()).Region.vaddr in
  let data = Bytes.make 128 'r' in
  let records = 1024 in
  for i = 0 to records - 1 do
    let addr = base + (i mod 64 * 1024) in
    let tid = Rvm.begin_transaction rvm ~mode:Types.No_restore in
    Rvm.modify rvm tid ~addr data;
    Rvm.modify rvm tid ~addr:(addr + 512) data;
    Rvm.end_transaction rvm tid ~mode:Types.No_flush;
    if i mod 64 = 63 then Rvm.flush rvm
  done;
  let again = Rvm.attach ~options ~log ~resolve () in
  let w0 = Gc.minor_words () in
  Rvm.recover again;
  let words = Gc.minor_words () -. w0 in
  within "recovered record" ~bound:460. (words /. float_of_int records)

(* Opening an empty 8 MiB log: the scan's first chunk (256 KiB, 32 K
   words), the registry's handles and nothing the size of the device.
   Buffers that large are allocated in the major heap, so the words are
   minor and major ones, promotions counted once. 39 024.2 words
   measured; 1 055 406.1 when every open zero-filled a device-sized
   image. *)
let test_open_empty_log () =
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let log = Mem_device.create ~name:"log" ~size:(8 * 1024 * 1024) () in
  Log_manager.format log;
  let w0 = words () in
  (match Log_manager.open_log log with
  | Ok l -> assert (Log_manager.is_empty l)
  | Error e -> Alcotest.fail e);
  within "empty 8 MiB log open" ~bound:65_536. (words () -. w0)

(* --- the serving path's own layers --- *)

(* One lock cycle as a request makes it: an uncontended [wait_for] of a
   key no one holds, a re-grant to the same holder (a [Lock] step's
   upgrade), then [release_all]. The holder, its cell in the key's
   holder list, the key's cell in the owner's held list and the owner's
   entry in the held index: 13.0 words measured; 64.0 when each grant
   built its blockers through a closure, looked its key and holder up
   through options and rebuilt the holder list. *)
let test_lock_grant_release () =
  let lm = Lock_mgr.create () in
  let keys = Array.init 64 (fun i -> "k" ^ string_of_int i) in
  within "lock grant and release" ~bound:17.
    (words_per_call ~n:4096 (fun i ->
         let key = keys.(i mod 64) in
         ignore (Lock_mgr.wait_for lm ~owner:i ~key Lock_mgr.Update);
         ignore (Lock_mgr.wait_for lm ~owner:i ~key Lock_mgr.Exclusive);
         Lock_mgr.release_all lm ~owner:i))

(* A bounded draw: the generator's state is updated in place, 0 words
   measured; 6.0 when the state was a boxed [int64] field. *)
let test_rng_draw () =
  let rng = Rng.create ~seed:42L in
  within "Rng.int" ~bound:1.
    (words_per_call ~n:4096 (fun _ -> ignore (Rng.int rng 1000)))

(* YCSB's key for a record index, written digit by digit: the 14-byte
   string, 3.0 words measured; 46.7 through [Printf.sprintf]. *)
let test_ycsb_key () =
  within "Ycsb.key_of" ~bound:4.
    (words_per_call ~n:4096 (fun i -> ignore (Ycsb.key_of (i * 7919))))

(* Sorting a run's 20 000 latencies in place, comparing unboxed floats:
   0 words measured per sort; 1 879 484 (94 per element) with
   [Array.sort compare], which boxes both operands of every
   comparison. *)
let test_latency_sort () =
  let rng = Rng.create ~seed:9L in
  let samples = Array.init 20_000 (fun _ -> float_of_int (Rng.int rng 100_000) /. 3.) in
  let a = Array.make 20_000 0. in
  within "latency sort" ~bound:1.
    (words_per_call ~n:4 (fun _ ->
         Array.blit samples 0 a 0 20_000;
         Server.sort_floats a))

(* A foreground CPU charge of a constant: the CPU total is updated in
   place and only the new [now] is boxed, 2.0 words measured; 4.0 when
   the totals were boxed fields too. *)
let test_clock_charge () =
  let clock = Clock.simulated () in
  within "Clock.charge_cpu" ~bound:3.
    (words_per_call ~n:4096 (fun _ -> Clock.charge_cpu clock 25.))

(* --- the recoverable B-tree, resident --- *)

let tree_keys = 2_000
let tree_key i = Printf.sprintf "user%010d" (i * 7919 mod 100_000)

(* A 2 000-key tree at degree 8 (14-byte keys, inline; 64-byte values),
   bulk-loaded in key order into a heap every page of which is resident. *)
let make_tree () =
  let rvm, base, _ = make_engine ~pages:192 () in
  let tid = Rvm.begin_transaction rvm ~mode:Types.No_restore in
  let heap = Rds.init rvm tid ~base ~len:(192 * ps) in
  let tree = Pbtree.create rvm heap tid ~degree:8 in
  Rvm.end_transaction rvm tid ~mode:Types.Flush;
  let keys = Array.init tree_keys tree_key in
  Array.sort compare keys;
  Pbtree.load tree ~count:tree_keys (fun i -> (keys.(i), String.make 64 'v'));
  Rvm.flush rvm;
  (rvm, tree)

(* Probe keys, built before any measurement: present ones, in an order
   unrelated to the key order. *)
let probes = Array.init tree_keys (fun i -> tree_key (i * 31 mod tree_keys))
let probe i = probes.(i)

(* A point lookup allocates its result: the value string, its option and
   the leaf search's (index, hit) pair. 15 words measured. *)
let test_btree_get () =
  let _, tree = make_tree () in
  within "Pbtree.get" ~bound:20.
    (words_per_call ~n:tree_keys (fun i -> ignore (Pbtree.get tree ~key:(probe i))))

(* The descent YCSB makes to name a request's leaf lock: 0 words
   measured. *)
let test_btree_leaf_addr () =
  let _, tree = make_tree () in
  within "Pbtree.leaf_addr" ~bound:1.
    (words_per_call ~n:tree_keys (fun i ->
         ignore (Pbtree.leaf_addr tree ~key:(probe i))))

(* A YCSB update as the server runs it: a Restore transaction, one put
   rewriting a present key's value in its cell, a No_flush commit; a Flush
   every 64 keeps the spool short. 111.3 words measured; 150.3 while
   Restore's old values were fresh copies in a list and each charge
   boxed the clock's CPU total (313.1 before the commit path stopped
   allocating bookkeeping); replacing the value through a new cell and
   freeing the old measured 892.2. *)
let test_btree_update () =
  let rvm, tree = make_tree () in
  let value = String.make 64 'u' in
  within "update transaction" ~bound:140.
    (words_per_call ~n:tree_keys (fun i ->
         let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
         Pbtree.put tree tid ~key:(probe i) ~value;
         Rvm.end_transaction rvm tid ~mode:Types.No_flush;
         if i mod 64 = 63 then Rvm.flush rvm))

(* A YCSB insert as the server runs it: a Restore transaction, one put
   of a new key, a No_flush commit, a Flush every 64. The bulk-loaded
   nodes are full, so the inserts split leaves and internal nodes as they
   go. 455.8 words measured; 774.0 while Restore's old values were
   fresh copies in a list and each charge boxed the clock's CPU total. *)
let test_btree_insert () =
  let rvm, tree = make_tree () in
  let value = String.make 64 'i' in
  let next = ref tree_keys in
  within "insert transaction" ~bound:570.
    (words_per_call ~n:1000 (fun i ->
         let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
         Pbtree.put tree tid ~key:(tree_key !next) ~value;
         incr next;
         Rvm.end_transaction rvm tid ~mode:Types.No_flush;
         if i mod 64 = 63 then Rvm.flush rvm))

(* --- a request served through the scheduler --- *)

(* A YCSB read as the server serves it: mix C, a point read under its
   leaf's Shared lock, on a resident 2 000-record tree at 60 tps. The
   words are a request's marginal cost: a 4 000-request serve minus a
   2 000-request one, over the 2 000 requests between, so the serve's
   fixed costs (the scheduler, the serial-reference replay) cancel. *)
let ycsb_request_words mix =
  let serve requests =
    let cfg =
      {
        Ycsb_run.default_config with
        Ycsb_run.mix;
        records = 2_000;
        requests;
        load = Server.Open_loop 60.;
        mem_fraction = 0.;
      }
    in
    let w = Ycsb_run.build_world cfg in
    let w0 = Gc.minor_words () in
    let r = Ycsb_run.serve cfg w in
    let words = Gc.minor_words () -. w0 in
    if r.Ycsb_run.committed <> requests then
      Alcotest.failf "%d of %d requests committed" r.Ycsb_run.committed
        requests;
    words
  in
  let short = serve 2_000 in
  (serve 4_000 -. short) /. 2_000.

(* 83.3 words measured; 243.1 while the run's latencies were sorted by
   [Array.sort compare], keys went through [Printf] and each leaf's lock
   key was built per request; 388.0 before the scheduler's quantum, the
   lock grants and the clock's totals stopped allocating what they do not
   keep; run as a [Run] step inside an engine transaction that commits
   empty, the same read measured 577.7. *)
let test_read_request () =
  within "read-only request" ~bound:105. (ycsb_request_words Ycsb.C)

(* A YCSB E request, measured the same way: 95% scans of 1 to 20 entries
   under the tree's Shared lock, 5% inserts under its Exclusive lock. A
   scan reads its entries into the tree's scratch and keeps nothing.
   97.6 words measured; 490.9 when each scan built its entries as
   strings in a list, keys went through [Printf] and the run's latencies
   were sorted by [Array.sort compare]. *)
let test_scan_request () =
  within "YCSB E request" ~bound:122. (ycsb_request_words Ycsb.E)

(* A TPC-A request as the server serves it: payments and transfers, no
   lookups, on the default world at 40 tps. Each locks its accounts (and
   a payment its teller and branch), updates them in an engine
   transaction, appends its audit record and commits in a batch; the log
   wraps, so truncation's steps are in the cost too. The marginal cost of
   2 000 more requests, as for [read-request]: 431.6 words measured;
   952.7 before the scheduler's quantum, the lock grants, the plan's keys
   and buffers, Restore's old values and the clock's totals stopped
   allocating what they do not keep; 1292.8 before the engine's commit
   path and the scheduler's commit and batch-force spans stopped
   allocating bookkeeping. *)
let test_write_request () =
  let serve requests =
    let cfg = { Server.default_config with Server.requests; read_pct = 0 } in
    let w = Server.build_world cfg in
    let w0 = Gc.minor_words () in
    let tally = Scheduler.run (Server.scheduler_of cfg w) in
    let words = Gc.minor_words () -. w0 in
    if tally.Scheduler.committed <> requests then
      Alcotest.failf "%d of %d writes committed" tally.Scheduler.committed
        requests;
    words
  in
  let short = serve 2_000 in
  within "writing request" ~bound:540. ((serve 4_000 -. short) /. 2_000.)

let suite =
  [
    ("begin-transaction", `Quick, test_begin);
    ("set-range-no-restore", `Quick, test_set_range_no_restore);
    ("set-range-restore", `Quick, test_set_range_restore);
    ("store", `Quick, test_store);
    ("load", `Quick, test_load);
    ("read-into", `Quick, test_read_into);
    ("vm-touch-resident", `Quick, test_vm_touch);
    ("flush-per-record", `Quick, test_flush);
    ("end-flush", `Quick, test_end_flush);
    ("recovery-per-record", `Quick, test_recovery);
    ("btree-get", `Quick, test_btree_get);
    ("btree-leaf-addr", `Quick, test_btree_leaf_addr);
    ("btree-update", `Quick, test_btree_update);
    ("btree-insert", `Quick, test_btree_insert);
    ("lock-grant-release", `Quick, test_lock_grant_release);
    ("rng-draw", `Quick, test_rng_draw);
    ("clock-charge", `Quick, test_clock_charge);
    ("open-empty-log", `Quick, test_open_empty_log);
    ("ycsb-key", `Quick, test_ycsb_key);
    ("latency-sort", `Quick, test_latency_sort);
    ("read-request", `Quick, test_read_request);
    ("scan-request", `Quick, test_scan_request);
    ("write-request", `Quick, test_write_request);
  ]
