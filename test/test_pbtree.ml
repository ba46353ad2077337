(* Tests for the recoverable ordered map (Rvm_pds.Pbtree): B+-tree
   semantics at the smallest legal degree (so splits, borrows and merges
   all fire), abort rollback across structural changes, crash recovery,
   ordered scans, updates that never restructure and rewrite values in
   place, the set_range calls each write makes, the bottom-up loader, and
   a qcheck model check against Stdlib.Map, over inline and overflow keys
   and values that fit their cells or outgrow them, with mid-sequence
   crash-recover-reattach. *)

open Rvm_core
module Mem_device = Rvm_disk.Mem_device
module Crash_device = Rvm_disk.Crash_device
module Rds = Rvm_alloc.Rds
module Pbtree = Rvm_pds.Pbtree
module Rng = Rvm_util.Rng
module SMap = Map.Make (String)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_opt = Alcotest.(check (option string))
let ps = 4096
let heap_len = 64 * ps

let make_world ?(heap_len = heap_len) () =
  let log_dev = Mem_device.create ~name:"log" ~size:(4 * 1024 * 1024) () in
  Rvm.create_log log_dev;
  let seg_dev = Mem_device.create ~name:"seg" ~size:(1024 * 1024) () in
  let rvm = Rvm.initialize ~log:log_dev ~resolve:(fun _ -> seg_dev) () in
  let r = Rvm.map rvm ~seg:1 ~seg_off:0 ~len:heap_len () in
  let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
  let heap = Rds.init rvm tid ~base:r.Region.vaddr ~len:heap_len in
  Rvm.end_transaction rvm tid ~mode:Types.Flush;
  (rvm, heap)

let in_txn rvm f =
  let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
  let v = f tid in
  Rvm.end_transaction rvm tid ~mode:Types.Flush;
  v

let make_tree ?(degree = 2) ?heap_len () =
  let rvm, heap = make_world ?heap_len () in
  let t = in_txn rvm (fun tid -> Pbtree.create rvm heap tid ~degree) in
  (rvm, heap, t)

let contents t = List.rev (Pbtree.fold t ~init:[] ~f:(fun acc ~key ~value -> (key, value) :: acc))

let key_of i = Printf.sprintf "k%04d" i

let test_basic () =
  let rvm, heap, t = make_tree () in
  in_txn rvm (fun tid ->
      Pbtree.put t tid ~key:"banana" ~value:"1";
      Pbtree.put t tid ~key:"apple" ~value:"2";
      Pbtree.put t tid ~key:"cherry" ~value:"3");
  check_opt "apple" (Some "2") (Pbtree.get t ~key:"apple");
  check_opt "banana" (Some "1") (Pbtree.get t ~key:"banana");
  check_opt "cherry" (Some "3") (Pbtree.get t ~key:"cherry");
  check_opt "absent" None (Pbtree.get t ~key:"durian");
  check_bool "mem" true (Pbtree.mem t ~key:"apple");
  check_int "length" 3 (Pbtree.length t);
  check_int "degree" 2 (Pbtree.degree t);
  Alcotest.(check (list (pair string string)))
    "ordered"
    [ ("apple", "2"); ("banana", "1"); ("cherry", "3") ]
    (contents t);
  check_bool "removed" true (in_txn rvm (fun tid -> Pbtree.remove t tid ~key:"banana"));
  check_bool "absent remove" false
    (in_txn rvm (fun tid -> Pbtree.remove t tid ~key:"banana"));
  check_opt "gone" None (Pbtree.get t ~key:"banana");
  check_int "length after" 2 (Pbtree.length t);
  Pbtree.check t;
  Rds.check heap

(* Keys are ordered as [String.compare] orders them: unsigned bytes in
   order, then length. The probes compare inline keys in place, so keys
   with bytes past 0x7f, the empty key, and keys that are prefixes of one
   another must all land where a string comparison puts them, inline or
   in overflow cells. *)
let test_key_order () =
  let rvm, _, t = make_tree () in
  let rng = Rng.create ~seed:7L in
  let random_key () =
    String.init (Rng.int rng 20) (fun _ ->
        Char.chr (if Rng.int rng 2 = 0 then 0x7e + Rng.int rng 4 else Rng.int rng 256))
  in
  let keys =
    [ ""; "\x7f"; "\x80"; "\xff"; "a"; "a\x00"; "a\xff"; "ab"; String.make 15 '\xff';
      String.make 16 '\xff' ]
    @ List.init 200 (fun _ -> random_key ())
  in
  let keys = List.sort_uniq String.compare keys in
  in_txn rvm (fun tid ->
      List.iter (fun k -> Pbtree.put t tid ~key:k ~value:(String.escaped k)) keys);
  Alcotest.(check (list string)) "iteration order" keys (List.map fst (contents t));
  List.iter
    (fun k -> check_opt "found" (Some (String.escaped k)) (Pbtree.get t ~key:k))
    keys;
  check_opt "absent between" None (Pbtree.get t ~key:"a\x01");
  Pbtree.check t

let test_splits () =
  let rvm, heap, t = make_tree () in
  let n = 300 in
  (* Interleave ascending and descending inserts so splits land on both
     edges and in the middle. *)
  in_txn rvm (fun tid ->
      for i = 0 to (n / 2) - 1 do
        Pbtree.put t tid ~key:(key_of i) ~value:(string_of_int i);
        let j = n - 1 - i in
        Pbtree.put t tid ~key:(key_of j) ~value:(string_of_int j)
      done);
  check_int "length" n (Pbtree.length t);
  for i = 0 to n - 1 do
    check_opt (key_of i) (Some (string_of_int i)) (Pbtree.get t ~key:(key_of i))
  done;
  check_bool "splits happened" true ((Pbtree.stats t).Pbtree.splits > 0);
  let ks = List.map fst (contents t) in
  Alcotest.(check (list string)) "in order" (List.init n key_of) ks;
  Pbtree.check t;
  Rds.check heap

(* Fill, then remove everything in shuffled order so borrows and merges
   both fire; every cell must go back to the heap. *)
let drain ~key () =
  let rvm, heap, t = make_tree () in
  let empty = Rds.allocated_bytes heap in
  let n = 300 in
  in_txn rvm (fun tid ->
      for i = 0 to n - 1 do
        Pbtree.put t tid ~key:(key i) ~value:(string_of_int i)
      done);
  (* Remove in shuffled order so borrows and merges both fire. *)
  let rng = Rng.create ~seed:11L in
  let order = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  Array.iteri
    (fun at i ->
      check_bool "removed" true
        (in_txn rvm (fun tid -> Pbtree.remove t tid ~key:(key i)));
      if at mod 37 = 0 then Pbtree.check t)
    order;
  check_int "empty" 0 (Pbtree.length t);
  Alcotest.(check (list (pair string string))) "no contents" [] (contents t);
  let s = Pbtree.stats t in
  check_bool "merges happened" true (s.Pbtree.merges > 0);
  check_bool "borrows happened" true (s.Pbtree.borrows > 0);
  Pbtree.check t;
  Rds.check heap;
  (* Everything freed except the header and the one remaining root leaf. *)
  check_bool "heap drained" true (Rds.free_list_length heap <= 2);
  check_int "every cell freed" empty (Rds.allocated_bytes heap)

let test_merges = drain ~key:key_of

(* Every other key overflows its slot. Each separator owns its own cell,
   so the drain frees every overflow cell exactly once. *)
let test_overflow_keys_drain =
  drain ~key:(fun i ->
      if i mod 2 = 1 then key_of i ^ String.make 16 '+' else key_of i)

let test_replace () =
  let rvm, heap, t = make_tree () in
  in_txn rvm (fun tid -> Pbtree.put t tid ~key:"k" ~value:"short");
  in_txn rvm (fun tid ->
      Pbtree.put t tid ~key:"k" ~value:"a much longer replacement value");
  check_opt "replaced" (Some "a much longer replacement value")
    (Pbtree.get t ~key:"k");
  in_txn rvm (fun tid -> Pbtree.put t tid ~key:"k" ~value:"");
  check_opt "empty value" (Some "") (Pbtree.get t ~key:"k");
  check_int "length" 1 (Pbtree.length t);
  Pbtree.check t;
  Rds.check heap

let test_range_scan () =
  let rvm, _heap, t = make_tree () in
  in_txn rvm (fun tid ->
      for i = 0 to 99 do
        Pbtree.put t tid ~key:(key_of (2 * i)) ~value:(string_of_int (2 * i))
      done);
  let collect ?lo ?hi () =
    let acc = ref [] in
    Pbtree.range t ?lo ?hi ~f:(fun ~key ~value:_ -> acc := key :: !acc) ();
    List.rev !acc
  in
  Alcotest.(check (list string))
    "window [k0010, k0020)"
    [ key_of 10; key_of 12; key_of 14; key_of 16; key_of 18 ]
    (collect ~lo:(key_of 10) ~hi:(key_of 20) ());
  (* lo between keys starts at the next present key. *)
  Alcotest.(check (list string))
    "lo between keys"
    [ key_of 12; key_of 14 ]
    (collect ~lo:(key_of 11) ~hi:(key_of 16) ());
  check_int "unbounded is everything" 100 (List.length (collect ()));
  Alcotest.(check (list string)) "empty window" []
    (collect ~lo:(key_of 50) ~hi:(key_of 50) ());
  Alcotest.(check (list (pair string string)))
    "scan n from lo"
    [ (key_of 100, "100"); (key_of 102, "102"); (key_of 104, "104") ]
    (Pbtree.scan t ~lo:(key_of 99) ~n:3 ());
  check_int "scan past the end truncates" 2
    (List.length (Pbtree.scan t ~lo:(key_of 195) ~n:10 ()));
  check_int "scan n=0" 0 (List.length (Pbtree.scan t ~n:0 ()))

(* A degree-2 tree whose entries exercise every path of the walk: inline
   keys and overflow keys (over 15 bytes), empty values, and values that
   outgrew their first cell and moved. Insertion order is shuffled, so
   neighbouring entries sit in cells on different pages. *)
let walk_entries = 120

let walk_key i =
  if i mod 3 = 0 then Printf.sprintf "key-%04d-with-an-overflow-tail" i
  else Printf.sprintf "key-%04d" i

let fill_walk_tree rvm t =
  let order = Array.init walk_entries Fun.id in
  Rng.shuffle (Rng.create ~seed:11L) order;
  Array.iter
    (fun i ->
      in_txn rvm (fun tid ->
          Pbtree.put t tid ~key:(walk_key i)
            ~value:(String.make (i mod 7 * 40) (Char.chr (97 + (i mod 26))))))
    order;
  (* Every fifth value outgrows its cell and moves. *)
  for i = 0 to walk_entries - 1 do
    if i mod 5 = 0 then
      in_txn rvm (fun tid ->
          Pbtree.put t tid ~key:(walk_key i) ~value:(String.make 500 'm'))
  done

(* [scan_views] sees exactly the pairs [scan] returns, for every count up
   to 25 from every start: each present key, a key between two, and no
   lower bound. It stops as soon as [f] returns false. *)
let test_scan_views () =
  let rvm, _, t = make_tree () in
  fill_walk_tree rvm t;
  Pbtree.check t;
  let views ?lo n =
    let acc = ref [] in
    Pbtree.scan_views t ?lo ~n
      ~f:(fun ~key ~klen ~value ~vlen ->
        acc := (Bytes.sub_string key 0 klen, Bytes.sub_string value 0 vlen) :: !acc;
        true)
      ();
    List.rev !acc
  in
  let starts =
    None :: Some "" :: Some "zzz"
    :: List.concat_map
         (fun i -> [ Some (walk_key i); Some (walk_key i ^ "!") ])
         (List.init walk_entries Fun.id)
  in
  List.iter
    (fun lo ->
      for n = 0 to 25 do
        Alcotest.(check (list (pair string string)))
          (Printf.sprintf "from %s, n %d" (Option.value lo ~default:"the start") n)
          (Pbtree.scan t ?lo ~n ()) (views ?lo n)
      done)
    starts;
  let seen = ref 0 in
  Pbtree.scan_views t ~n:25
    ~f:(fun ~key:_ ~klen:_ ~value:_ ~vlen:_ ->
      incr seen;
      !seen < 3)
    ();
  check_int "stops when f returns false" 3 !seen

(* The walk's reads under paging: the same tree on a heap of 64 pages
   with 3 frames, then a seeded sequence of 150 scans of 1 to 20
   entries. The order of an entry's reads (pointer slot, value, key slot,
   overflow key) decides which pages the frames hold, so the fault and
   eviction counts pin it; both scans read through the one walk. *)
let paged_scan_counts scan =
  let clock = Rvm_util.Clock.simulated () in
  let model = Rvm_util.Cost_model.dec5000 in
  let vm =
    Rvm_vm.Vm_sim.create ~clock ~model
      {
        Rvm_vm.Vm_sim.physical_pages = 3;
        page_size = ps;
        fault_disk = model.Rvm_util.Cost_model.paging_disk;
        evict_disk = model.Rvm_util.Cost_model.paging_disk;
        evict_in_background = true;
      }
  in
  let log_dev = Mem_device.create ~name:"log" ~size:(4 * 1024 * 1024) () in
  Rvm.create_log log_dev;
  let seg_dev = Mem_device.create ~name:"seg" ~size:heap_len () in
  let rvm =
    Rvm.initialize ~clock ~model ~vm ~log:log_dev ~resolve:(fun _ -> seg_dev) ()
  in
  let r = Rvm.map rvm ~seg:1 ~seg_off:0 ~len:heap_len () in
  let t =
    in_txn rvm (fun tid ->
        let heap = Rds.init rvm tid ~base:r.Region.vaddr ~len:heap_len in
        Pbtree.create rvm heap tid ~degree:2)
  in
  fill_walk_tree rvm t;
  Rvm_vm.Vm_sim.reset_counters vm;
  let rng = Rng.create ~seed:5L in
  for _ = 1 to 150 do
    let lo = walk_key (Rng.int rng walk_entries) in
    scan t ~lo ~n:(1 + Rng.int rng 20)
  done;
  (Rvm_vm.Vm_sim.faults vm, Rvm_vm.Vm_sim.evictions vm)

let test_scan_read_order () =
  let pinned = (2166, 2166) in
  Alcotest.(check (pair int int)) "scan: faults, evictions" pinned
    (paged_scan_counts (fun t ~lo ~n -> ignore (Pbtree.scan t ~lo ~n ())));
  Alcotest.(check (pair int int)) "scan_views: faults, evictions" pinned
    (paged_scan_counts (fun t ~lo ~n ->
         Pbtree.scan_views t ~lo ~n
           ~f:(fun ~key:_ ~klen:_ ~value:_ ~vlen:_ -> true)
           ()))

let test_abort_rollback () =
  let rvm, heap, t = make_tree () in
  in_txn rvm (fun tid ->
      for i = 0 to 19 do
        Pbtree.put t tid ~key:(key_of i) ~value:"keep"
      done);
  let before = contents t in
  let splits_before = (Pbtree.stats t).Pbtree.splits in
  (* An aborted transaction full of structural damage: replacements,
     split-forcing inserts, merge-forcing removals. *)
  let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
  for i = 20 to 59 do
    Pbtree.put t tid ~key:(key_of i) ~value:"doomed"
  done;
  Pbtree.put t tid ~key:(key_of 3) ~value:"clobbered";
  for i = 0 to 9 do
    ignore (Pbtree.remove t tid ~key:(key_of i))
  done;
  Rvm.abort_transaction rvm tid;
  check_bool "aborted splits were real" true
    ((Pbtree.stats t).Pbtree.splits > splits_before);
  Alcotest.(check (list (pair string string))) "state rolled back" before (contents t);
  check_int "length restored" 20 (Pbtree.length t);
  Pbtree.check t;
  Rds.check heap

let test_crash_recovery () =
  let log_crash = Crash_device.create ~name:"log" ~size:(4 * 1024 * 1024) () in
  let seg_crash = Crash_device.create ~name:"seg" ~size:(1024 * 1024) () in
  Rvm.create_log (Crash_device.device log_crash);
  let resolve _ = Crash_device.device seg_crash in
  let rvm = Rvm.initialize ~log:(Crash_device.device log_crash) ~resolve () in
  let r = Rvm.map rvm ~seg:1 ~seg_off:0 ~len:heap_len () in
  let base = r.Region.vaddr in
  let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
  let heap = Rds.init rvm tid ~base ~len:heap_len in
  let t = Pbtree.create rvm heap tid ~degree:2 in
  Rvm.end_transaction rvm tid ~mode:Types.Flush;
  let taddr = Pbtree.address t in
  (* Committed state spans several splits. *)
  in_txn rvm (fun tid ->
      for i = 0 to 49 do
        Pbtree.put t tid ~key:(key_of i) ~value:(string_of_int i)
      done);
  (* Uncommitted structural churn, then crash. *)
  let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
  for i = 50 to 90 do
    Pbtree.put t tid ~key:(key_of i) ~value:"lost"
  done;
  ignore (Pbtree.remove t tid ~key:(key_of 0));
  Crash_device.crash log_crash;
  Crash_device.crash seg_crash;
  let rvm2 = Rvm.initialize ~log:(Crash_device.device log_crash) ~resolve () in
  ignore (Rvm.map rvm2 ~vaddr:base ~seg:1 ~seg_off:0 ~len:heap_len ());
  let heap2 = Rds.attach rvm2 ~base in
  let t2 = Pbtree.attach rvm2 heap2 ~addr:taddr in
  Pbtree.check t2;
  Rds.check heap2;
  check_int "committed keys recovered" 50 (Pbtree.length t2);
  for i = 0 to 49 do
    check_opt (key_of i) (Some (string_of_int i)) (Pbtree.get t2 ~key:(key_of i))
  done;
  check_opt "uncommitted key gone" None (Pbtree.get t2 ~key:(key_of 60))

let test_empty_and_attach_errors () =
  let rvm, heap, t = make_tree () in
  check_opt "empty get" None (Pbtree.get t ~key:"x");
  check_bool "empty remove" false (in_txn rvm (fun tid -> Pbtree.remove t tid ~key:"x"));
  check_int "empty scan" 0 (List.length (Pbtree.scan t ~n:5 ()));
  Pbtree.check t;
  (match Pbtree.attach rvm heap ~addr:(Pbtree.address t + 64) with
  | exception Types.Rvm_error _ -> ()
  | _ -> Alcotest.fail "attach off a tree header should raise");
  match in_txn rvm (fun tid -> Pbtree.create rvm heap tid ~degree:1) with
  | exception Types.Rvm_error _ -> ()
  | _ -> Alcotest.fail "degree 1 should be rejected"

(* A put on a present key replaces its value pointer and nothing else:
   no split, and every key's leaf stays where it was, even in a full leaf
   or under a full root. The server's leaf locks rely on it. *)
let updates_in_place what (rvm, heap, t) keys =
  let s = Pbtree.stats t in
  s.Pbtree.splits <- 0;
  let leaves = List.map (fun key -> Pbtree.leaf_addr t ~key) keys in
  in_txn rvm (fun tid ->
      List.iter (fun key -> Pbtree.put t tid ~key ~value:("new " ^ key)) keys);
  check_int (what ^ ": splits") 0 s.Pbtree.splits;
  List.iter2
    (fun key leaf ->
      check_int (what ^ ": leaf of " ^ key) leaf (Pbtree.leaf_addr t ~key);
      check_opt (what ^ ": value of " ^ key) (Some ("new " ^ key))
        (Pbtree.get t ~key))
    keys leaves;
  Pbtree.check t;
  Rds.check heap

let distinct_leaves t keys =
  List.length
    (List.sort_uniq compare (List.map (fun key -> Pbtree.leaf_addr t ~key) keys))

let test_update_never_splits () =
  (* Degree 2: three keys fill the root leaf. *)
  let ((rvm, _, t) as w) = make_tree () in
  in_txn rvm (fun tid ->
      List.iter (fun key -> Pbtree.put t tid ~key ~value:"0") [ "a"; "b"; "c" ]);
  updates_in_place "full root leaf" w [ "c"; "a"; "b" ];
  (* Ascending inserts of eight keys leave a root of three separators (full
     at degree 2) over four leaves. *)
  let ((rvm, _, t) as w) = make_tree () in
  let keys = List.init 8 key_of in
  in_txn rvm (fun tid ->
      List.iter (fun key -> Pbtree.put t tid ~key ~value:"0") keys);
  check_int "four leaves under the root" 4 (distinct_leaves t keys);
  updates_in_place "under a full root" w keys

(* --- the write path's set_range economy --- *)

let set_ranges rvm = (Rvm.stats rvm).Statistics.set_ranges
let spooled rvm = (Rvm.stats rvm).Statistics.bytes_spooled

(* set_range calls made by [f]. *)
let calls rvm f =
  let c0 = set_ranges rvm in
  let v = f () in
  (set_ranges rvm - c0, v)

(* A record's size: a 39-byte header and a 20-byte trailer around its
   ranges, each a 32-byte range header and its data. *)
let record_bytes ~ranges ~data = 39 + 20 + (32 * ranges) + data

(* Node bytes at degree [d]: header, key slots, pointer slots. *)
let node_bytes d = 32 + (16 * ((2 * d) - 1)) + (8 * 2 * d)

(* A 25-byte value sits in a cell with room for 32 bytes: a value of up to
   32 bytes is rewritten in its cell under one set_range, leaving the leaf
   (so the value pointer) and the heap as they were; a longer one gets a
   new cell and the old one is freed. A Restore abort puts a rewritten
   value back, and a flushed rewrite survives a crash. *)
let test_update_in_place () =
  let log_crash = Crash_device.create ~name:"log" ~size:(4 * 1024 * 1024) () in
  let seg_crash = Crash_device.create ~name:"seg" ~size:(1024 * 1024) () in
  Rvm.create_log (Crash_device.device log_crash);
  let resolve _ = Crash_device.device seg_crash in
  let rvm = Rvm.initialize ~log:(Crash_device.device log_crash) ~resolve () in
  let base = (Rvm.map rvm ~seg:1 ~seg_off:0 ~len:heap_len ()).Region.vaddr in
  let heap, t =
    in_txn rvm (fun tid ->
        let heap = Rds.init rvm tid ~base ~len:heap_len in
        (heap, Pbtree.create rvm heap tid ~degree:2))
  in
  in_txn rvm (fun tid ->
      for i = 0 to 9 do
        Pbtree.put t tid ~key:(key_of i) ~value:(String.make 25 'o')
      done);
  let key = key_of 4 in
  let leaf = Pbtree.leaf_addr t ~key in
  let node () = Rvm.load rvm ~addr:leaf ~len:(node_bytes 2) in
  let rewrite what value =
    let before = node () and allocated = Rds.allocated_bytes heap in
    let s0 = spooled rvm in
    let n, () =
      calls rvm (fun () ->
          let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
          Pbtree.put t tid ~key ~value;
          Rvm.end_transaction rvm tid ~mode:Types.No_flush)
    in
    check_int (what ^ ": one set_range") 1 n;
    check_int (what ^ ": one range, the cell")
      (record_bytes ~ranges:1 ~data:(8 + String.length value))
      (spooled rvm - s0);
    check_bool (what ^ ": leaf unchanged") true (Bytes.equal before (node ()));
    check_int (what ^ ": heap unchanged") allocated (Rds.allocated_bytes heap);
    check_opt (what ^ ": value") (Some value) (Pbtree.get t ~key)
  in
  rewrite "equal length" (String.make 25 'e');
  rewrite "shorter" "short";
  rewrite "fills the cell" (String.make 32 'f');
  let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
  Pbtree.put t tid ~key ~value:"doomed";
  Rvm.abort_transaction rvm tid;
  check_opt "abort restores the value" (Some (String.make 32 'f'))
    (Pbtree.get t ~key);
  (* 33 bytes outgrow the 40-byte cell: a 48-byte cell replaces it. *)
  let allocated = Rds.allocated_bytes heap in
  let longer = String.make 33 'l' in
  in_txn rvm (fun tid -> Pbtree.put t tid ~key ~value:longer);
  check_opt "longer value" (Some longer) (Pbtree.get t ~key);
  check_int "old cell freed, new one allocated" (allocated - 40 + 48)
    (Rds.allocated_bytes heap);
  Pbtree.check t;
  Rds.check heap;
  rewrite "after the move" "rewritten";
  Rvm.flush rvm;
  Crash_device.crash log_crash;
  Crash_device.crash seg_crash;
  let rvm2 = Rvm.initialize ~log:(Crash_device.device log_crash) ~resolve () in
  ignore (Rvm.map rvm2 ~vaddr:base ~seg:1 ~seg_off:0 ~len:heap_len ());
  let heap2 = Rds.attach rvm2 ~base in
  let t2 = Pbtree.attach rvm2 heap2 ~addr:(Pbtree.address t) in
  check_opt "rewritten value recovered" (Some "rewritten") (Pbtree.get t2 ~key);
  check_opt "neighbour intact" (Some (String.make 25 'o'))
    (Pbtree.get t2 ~key:(key_of 5));
  check_int "heap as before the crash" (Rds.allocated_bytes heap)
    (Rds.allocated_bytes heap2);
  Pbtree.check t2;
  Rds.check heap2

(* set_range calls per write, each declaring every change once. The
   degree-8 tree is the allocation budget's: 2 000 keys of 14 bytes with
   64-byte values, bulk-loaded, so every leaf and internal node is full.
   A key with a suffix sorts right after the key it extends. Declaring
   slot by slot and word by word, the same writes made 29 (the non-full
   leaf insert), 60 (the leaf split), 19 (the update), 32 (the merge) and
   19 (the borrow) calls. The load writes each node's key slots and
   pointer slots as two runs; declaring each slot alone, it made 17 270
   calls. *)
let test_set_range_calls () =
  let rvm, heap, t = make_tree ~degree:8 ~heap_len:(192 * ps) () in
  let keys =
    Array.init 2_000 (fun i -> Printf.sprintf "user%010d" (i * 7919 mod 100_000))
  in
  Array.sort compare keys;
  let n, () =
    calls rvm (fun () ->
        Pbtree.load t ~count:2_000 (fun i -> (keys.(i), String.make 64 'v')))
  in
  check_int "bulk load calls" 13_282 n;
  let value = String.make 64 'n' in
  let insert key =
    calls rvm (fun () -> in_txn rvm (fun tid -> Pbtree.put t tid ~key ~value))
  in
  let splits () = (Pbtree.stats t).Pbtree.splits in
  (* Into leaf 10: it splits, and so does every full node above it. *)
  let s0 = splits () in
  ignore (insert (keys.(153) ^ "a"));
  check_int "first insert splits the leaf and its parent" 2 (splits () - s0);
  (* The same leaf again, now half full: no split. *)
  let s0 = splits () in
  let n, () = insert (keys.(151) ^ "a") in
  check_int "no split" 0 (splits () - s0);
  check_bool (Printf.sprintf "non-full leaf insert: %d calls <= 13" n) true
    (n <= 13);
  (* Leaf 11, full, under the parent's half that now has room. *)
  let s0 = splits () in
  let n, () = insert (keys.(170) ^ "a") in
  check_int "a leaf split alone" 1 (splits () - s0);
  check_int "leaf-split insert calls" 27 n;
  (* A value of the same length, rewritten in its cell. *)
  let n, () =
    calls rvm (fun () ->
        in_txn rvm (fun tid -> Pbtree.put t tid ~key:keys.(500) ~value))
  in
  check_int "update calls" 1 n;
  Pbtree.check t;
  Rds.check heap;
  (* Degree 2, twenty keys inserted in ascending order. Removing the last
     key merges its leaf with its minimal sibling; removing k0009 then
     borrows from a sibling with a key to spare. *)
  let rvm, heap, t = make_tree () in
  in_txn rvm (fun tid ->
      for i = 0 to 19 do
        Pbtree.put t tid ~key:(key_of i) ~value:"v"
      done);
  let remove what i ~borrows ~merges =
    let s = Pbtree.stats t in
    let b0 = s.Pbtree.borrows and m0 = s.Pbtree.merges in
    let n, found =
      calls rvm (fun () ->
          in_txn rvm (fun tid -> Pbtree.remove t tid ~key:(key_of i)))
    in
    check_bool (what ^ ": removed") true found;
    check_int (what ^ ": borrows") borrows (s.Pbtree.borrows - b0);
    check_int (what ^ ": merges") merges (s.Pbtree.merges - m0);
    n
  in
  check_int "merging remove calls" 22 (remove "merge" 19 ~borrows:0 ~merges:1);
  check_int "borrowing remove calls" 14 (remove "borrow" 9 ~borrows:1 ~merges:0);
  Pbtree.check t;
  Rds.check heap

(* --- the bottom-up loader --- *)

(* Every third key is 25 bytes long, so loaded leaves and separators hold
   overflow keys too. *)
let load_key i = if i mod 3 = 0 then key_of i ^ String.make 20 '-' else key_of i
let load_entries n = Array.init n (fun i -> (load_key i, "v" ^ string_of_int i))

(* Entries per leaf, in key order. *)
let leaf_sizes t =
  let sizes = ref [] and leaf = ref 0 in
  Pbtree.iter t ~f:(fun ~key ~value:_ ->
      let a = Pbtree.leaf_addr t ~key in
      match !sizes with
      | k :: rest when a = !leaf -> sizes := (k + 1) :: rest
      | l ->
        leaf := a;
        sizes := 1 :: l);
  List.rev !sizes

let test_load_packed () =
  List.iter
    (fun (degree, n) ->
      let what = Printf.sprintf "degree %d, %d entries" degree n in
      let rvm, heap, t = make_tree ~degree () in
      let entries = load_entries n in
      Pbtree.load t ~count:n (Array.get entries);
      Alcotest.(check (list (pair string string)))
        (what ^ ": contents") (Array.to_list entries) (contents t);
      check_int (what ^ ": length") n (Pbtree.length t);
      Pbtree.check t;
      Rds.check heap;
      (* Every leaf is full but the last two, which share their entries so
         that each holds at least d-1. *)
      let sizes = leaf_sizes t in
      let leaves = List.length sizes in
      List.iteri
        (fun i k ->
          if i < leaves - 2 then check_int (what ^ ": packed leaf") ((2 * degree) - 1) k
          else if leaves > 1 then
            check_bool (what ^ ": last leaves hold d-1") true (k >= degree - 1))
        sizes;
      (* A loaded tree takes inserts, updates and removes like any other. *)
      in_txn rvm (fun tid ->
          Pbtree.put t tid ~key:(key_of 1 ^ "x") ~value:"inserted";
          Pbtree.put t tid ~key:(load_key 0) ~value:"updated";
          ignore (Pbtree.remove t tid ~key:(load_key (max 1 (n - 1)))));
      check_opt (what ^ ": updated") (Some "updated") (Pbtree.get t ~key:(load_key 0));
      Pbtree.check t;
      Rds.check heap)
    [ (2, 1); (2, 3); (2, 4); (2, 7); (2, 100); (3, 6); (3, 11); (3, 333); (8, 2000) ]

let committed rvm = (Rvm.stats rvm).Statistics.txns_committed

let test_load_batched () =
  let rvm, heap, t = make_tree ~degree:8 ~heap_len:(192 * ps) () in
  let n = 6_000 in
  let before = committed rvm in
  Pbtree.load t ~count:n (fun i -> (key_of i, ""));
  check_bool "several transactions" true (committed rvm - before >= 3);
  check_int "length" n (Pbtree.length t);
  check_opt "last" (Some "") (Pbtree.get t ~key:(key_of (n - 1)));
  Pbtree.check t;
  Rds.check heap

(* A load that dies after its first commit, then a crash: the tree
   recovers as it was, and only the blocks the load allocated remain. *)
let test_load_crash () =
  let log_crash = Crash_device.create ~name:"log" ~size:(4 * 1024 * 1024) () in
  let seg_crash = Crash_device.create ~name:"seg" ~size:(1024 * 1024) () in
  Rvm.create_log (Crash_device.device log_crash);
  let resolve _ = Crash_device.device seg_crash in
  let rvm = Rvm.initialize ~log:(Crash_device.device log_crash) ~resolve () in
  let base = (Rvm.map rvm ~seg:1 ~seg_off:0 ~len:heap_len ()).Region.vaddr in
  let heap, t =
    in_txn rvm (fun tid ->
        let heap = Rds.init rvm tid ~base ~len:heap_len in
        (heap, Pbtree.create rvm heap tid ~degree:2))
  in
  let allocated = Rds.allocated_bytes heap in
  let before = committed rvm in
  (match
     Pbtree.load t ~count:3_000 (fun i ->
         if i = 2_500 then raise Exit;
         (key_of i, "v"))
   with
  | () -> Alcotest.fail "the load should have stopped"
  | exception Exit -> ());
  check_bool "a load transaction committed" true (committed rvm - before >= 2);
  check_int "unchanged after the stopped load" 0 (Pbtree.length t);
  Pbtree.check t;
  (* Make the load's commits durable, then crash. *)
  Rvm.flush rvm;
  Crash_device.crash log_crash;
  Crash_device.crash seg_crash;
  let rvm2 = Rvm.initialize ~log:(Crash_device.device log_crash) ~resolve () in
  ignore (Rvm.map rvm2 ~vaddr:base ~seg:1 ~seg_off:0 ~len:heap_len ());
  let heap2 = Rds.attach rvm2 ~base in
  let t2 = Pbtree.attach rvm2 heap2 ~addr:(Pbtree.address t) in
  Pbtree.check t2;
  Rds.check heap2;
  check_int "recovered as it was" 0 (Pbtree.length t2);
  check_opt "no loaded key" None (Pbtree.get t2 ~key:(key_of 0));
  check_bool "the load's blocks leaked" true (Rds.allocated_bytes heap2 > allocated);
  (* The recovered tree loads again. *)
  Pbtree.load t2 ~count:50 (fun i -> (key_of i, "again"));
  check_int "reloaded" 50 (Pbtree.length t2);
  Pbtree.check t2;
  Rds.check heap2

let test_load_rejects () =
  let rvm, heap, t = make_tree () in
  (match Pbtree.load t ~count:10 (fun i -> (key_of (i mod 5), "v")) with
  | () -> Alcotest.fail "a repeated key was accepted"
  | exception Types.Rvm_error _ -> ());
  check_int "unchanged" 0 (Pbtree.length t);
  Pbtree.check t;
  Rds.check heap;
  in_txn rvm (fun tid -> Pbtree.put t tid ~key:"a" ~value:"1");
  match Pbtree.load t ~count:1 (fun _ -> ("b", "2")) with
  | () -> Alcotest.fail "a load into a non-empty tree was accepted"
  | exception Types.Rvm_error _ -> ()

(* --- qcheck model check (with crash-recover-reattach mid-sequence) ---

   Random interleaved put/remove/range/abort sequences against
   Stdlib.Map. Every [reattach_every] ops the handle is re-attached from
   its address (restart semantics); at the sequence midpoint the devices
   crash and the world is rebuilt from the log. *)

type mop =
  | Put of int * int
  | Remove of int
  | Range of int * int
  | Abort of int * int

(* Keys are drawn by index: an even index is a 5-byte key, and an odd one
   carries a suffix that makes it 15 to 21 bytes long. So the longest
   inline key and overflow keys interleave with short ones, and overflow
   cells run through splits, merges, borrows, aborts and the crash. *)
let model_key k =
  if k land 1 = 0 then key_of k else key_of k ^ String.make (10 + (k mod 7)) '.'

(* A value index names a value of 0 to 40 bytes, so a replace may fit its
   cell (rewritten in place) or outgrow it (a new cell, the old freed),
   and both paths run through splits, merges, aborts and the crash. *)
let model_value v =
  String.sub (Printf.sprintf "v%03d%s" v (String.make 40 '=')) 0 (v mod 41)

let mop_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun k v -> Put (k, v)) (int_bound 47) (int_bound 999));
        (3, map (fun k -> Remove k) (int_bound 47));
        (1, map2 (fun a b -> Range (a, b)) (int_bound 47) (int_bound 47));
        (1, map2 (fun k v -> Abort (k, v)) (int_bound 47) (int_bound 999));
      ])

let print_mop = function
  | Put (k, v) -> Printf.sprintf "Put(%d,%d)" k v
  | Remove k -> Printf.sprintf "Remove %d" k
  | Range (a, b) -> Printf.sprintf "Range(%d,%d)" a b
  | Abort (k, v) -> Printf.sprintf "Abort(%d,%d)" k v

let assert_equal_to_model t model =
  if Pbtree.length t <> SMap.cardinal model then
    QCheck.Test.fail_reportf "length %d <> model %d" (Pbtree.length t)
      (SMap.cardinal model);
  if contents t <> SMap.bindings model then
    QCheck.Test.fail_report "contents diverge from model";
  Pbtree.check t

let run_model_sequence ops =
  let log_crash = Crash_device.create ~name:"log" ~size:(8 * 1024 * 1024) () in
  let seg_crash = Crash_device.create ~name:"seg" ~size:(1024 * 1024) () in
  Rvm.create_log (Crash_device.device log_crash);
  let resolve _ = Crash_device.device seg_crash in
  let rvm = ref (Rvm.initialize ~log:(Crash_device.device log_crash) ~resolve ()) in
  let r = Rvm.map !rvm ~seg:1 ~seg_off:0 ~len:heap_len () in
  let base = r.Region.vaddr in
  let tid = Rvm.begin_transaction !rvm ~mode:Types.Restore in
  let heap = ref (Rds.init !rvm tid ~base ~len:heap_len) in
  let t0 = Pbtree.create !rvm !heap tid ~degree:2 in
  Rvm.end_transaction !rvm tid ~mode:Types.Flush;
  let taddr = Pbtree.address t0 in
  let t = ref t0 in
  let reattach () = t := Pbtree.attach !rvm !heap ~addr:taddr in
  let crash_recover () =
    Crash_device.crash log_crash;
    Crash_device.crash seg_crash;
    rvm := Rvm.initialize ~log:(Crash_device.device log_crash) ~resolve ();
    ignore (Rvm.map !rvm ~vaddr:base ~seg:1 ~seg_off:0 ~len:heap_len ());
    heap := Rds.attach !rvm ~base;
    reattach ()
  in
  let model = ref SMap.empty in
  let total = List.length ops in
  let kof = model_key and vof = model_value in
  List.iteri
    (fun at op ->
      (match op with
      | Put (k, v) ->
        in_txn !rvm (fun tid -> Pbtree.put !t tid ~key:(kof k) ~value:(vof v));
        model := SMap.add (kof k) (vof v) !model
      | Remove k ->
        let got = in_txn !rvm (fun tid -> Pbtree.remove !t tid ~key:(kof k)) in
        if got <> SMap.mem (kof k) !model then
          QCheck.Test.fail_reportf "remove %s disagrees with model" (kof k);
        model := SMap.remove (kof k) !model
      | Range (a, b) ->
        let lo = kof (min a b) and hi = kof (max a b) in
        let got = ref [] in
        Pbtree.range !t ~lo ~hi ~f:(fun ~key ~value -> got := (key, value) :: !got) ();
        let want =
          SMap.bindings
            (SMap.filter (fun k _ -> k >= lo && k < hi) !model)
        in
        if List.rev !got <> want then
          QCheck.Test.fail_reportf "range [%s,%s) diverges" lo hi
      | Abort (k, v) ->
        let tid = Rvm.begin_transaction !rvm ~mode:Types.Restore in
        Pbtree.put !t tid ~key:(kof k) ~value:(vof v);
        ignore (Pbtree.remove !t tid ~key:(kof ((k + 7) mod 48)));
        Rvm.abort_transaction !rvm tid);
      if at = total / 2 then begin
        crash_recover ();
        assert_equal_to_model !t !model
      end
      else if at mod 13 = 12 then begin
        reattach ();
        assert_equal_to_model !t !model
      end)
    ops;
  assert_equal_to_model !t !model;
  Rds.check !heap;
  true

let prop_model =
  QCheck.Test.make ~count:25 ~name:"pbtree matches Map under random ops"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_mop ops))
       QCheck.Gen.(list_size (int_range 40 160) mop_gen))
    run_model_sequence

let suite =
  [
    ("btree.basic", `Quick, test_basic);
    ("btree.key-order", `Quick, test_key_order);
    ("btree.splits", `Quick, test_splits);
    ("btree.merges", `Quick, test_merges);
    ("btree.replace", `Quick, test_replace);
    ("btree.range-scan", `Quick, test_range_scan);
    ("btree.scan-views", `Quick, test_scan_views);
    ("btree.scan-read-order", `Quick, test_scan_read_order);
    ("btree.abort", `Quick, test_abort_rollback);
    ("btree.crash", `Quick, test_crash_recovery);
    ("btree.empty-attach", `Quick, test_empty_and_attach_errors);
    ("btree.update-never-splits", `Quick, test_update_never_splits);
    ("btree.update-in-place", `Quick, test_update_in_place);
    ("btree.set-range-calls", `Quick, test_set_range_calls);
    ("btree.overflow-keys-drain", `Quick, test_overflow_keys_drain);
    ("btree.load-packed", `Quick, test_load_packed);
    ("btree.load-batched", `Quick, test_load_batched);
    ("btree.load-crash", `Quick, test_load_crash);
    ("btree.load-rejects", `Quick, test_load_rejects);
    QCheck_alcotest.to_alcotest prop_model;
  ]
