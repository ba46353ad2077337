(* Tests for the recoverable dynamic storage allocator (Rds): allocation,
   free/coalescing, transactional rollback, crash persistence, invariants,
   and a qcheck comparison with the allocator's previous edits, which must
   lay the heap out the same with fewer set_range calls. *)

open Rvm_core
module Mem_device = Rvm_disk.Mem_device
module Crash_device = Rvm_disk.Crash_device
module Rds = Rvm_alloc.Rds
module Rng = Rvm_util.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ps = 4096

let make_world ?(len = 16 * ps) () =
  let log_dev = Mem_device.create ~name:"log" ~size:(512 * 1024) () in
  Rvm.create_log log_dev;
  let seg_dev = Mem_device.create ~name:"seg" ~size:(256 * 1024) () in
  let rvm = Rvm.initialize ~log:log_dev ~resolve:(fun _ -> seg_dev) () in
  let r = Rvm.map rvm ~seg:1 ~seg_off:0 ~len () in
  (rvm, r.Region.vaddr)

let with_heap ?(len = 16 * ps) f =
  let rvm, base = make_world ~len () in
  let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
  let h = Rds.init rvm tid ~base ~len in
  Rvm.end_transaction rvm tid ~mode:Types.Flush;
  f rvm h

let in_txn rvm f =
  let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
  let v = f tid in
  Rvm.end_transaction rvm tid ~mode:Types.Flush;
  v

let test_alloc_basic () =
  with_heap (fun rvm h ->
      let p = in_txn rvm (fun tid -> Rds.alloc h tid ~size:100) in
      check_bool "in heap" true (p > Rds.base h && p < Rds.base h + Rds.heap_len h);
      check_bool "usable" true (Rds.usable_size h p >= 100);
      check_bool "accounted" true (Rds.allocated_bytes h >= 100);
      Rds.check h)

let test_alloc_distinct () =
  with_heap (fun rvm h ->
      let ptrs =
        in_txn rvm (fun tid ->
            List.init 20 (fun _ -> Rds.alloc h tid ~size:64))
      in
      let sorted = List.sort_uniq compare ptrs in
      check_int "all distinct" 20 (List.length sorted);
      (* Payloads must not overlap. *)
      let rec overlaps = function
        | a :: (b :: _ as rest) -> (a + 64 > b) || overlaps rest
        | _ -> false
      in
      check_bool "no overlap" false (overlaps (List.sort compare ptrs));
      Rds.check h)

let test_free_and_reuse () =
  with_heap (fun rvm h ->
      let p1 = in_txn rvm (fun tid -> Rds.alloc h tid ~size:200) in
      in_txn rvm (fun tid -> Rds.free h tid p1);
      check_int "all free again" 0 (Rds.allocated_bytes h);
      let p2 = in_txn rvm (fun tid -> Rds.alloc h tid ~size:200) in
      check_int "space reused" p1 p2;
      Rds.check h)

let test_coalescing () =
  with_heap (fun rvm h ->
      let ps' =
        in_txn rvm (fun tid -> List.init 3 (fun _ -> Rds.alloc h tid ~size:100))
      in
      (* Free in an order that exercises both next- and prev-coalescing. *)
      (match ps' with
      | [ a; b; c ] ->
        in_txn rvm (fun tid -> Rds.free h tid a);
        in_txn rvm (fun tid -> Rds.free h tid c);
        in_txn rvm (fun tid -> Rds.free h tid b)
      | _ -> Alcotest.fail "expected 3 pointers");
      check_int "coalesced to one block" 1 (Rds.block_count h);
      Rds.check h)

let test_free_list_length () =
  with_heap (fun rvm h ->
      check_int "fresh heap: one free block" 1 (Rds.free_list_length h);
      let ptrs =
        in_txn rvm (fun tid -> List.init 5 (fun _ -> Rds.alloc h tid ~size:64))
      in
      check_int "tail block only" 1 (Rds.free_list_length h);
      (* Free alternating blocks: each is an island, so the list grows. *)
      List.iteri
        (fun i p -> if i mod 2 = 0 then in_txn rvm (fun tid -> Rds.free h tid p))
        ptrs;
      check_int "fragmented" 3 (Rds.free_list_length h);
      (* Freeing the rest coalesces everything back into one block. *)
      List.iteri
        (fun i p -> if i mod 2 = 1 then in_txn rvm (fun tid -> Rds.free h tid p))
        ptrs;
      check_int "coalesced" 1 (Rds.free_list_length h);
      Rds.check h)

let test_double_free_rejected () =
  with_heap (fun rvm h ->
      let p = in_txn rvm (fun tid -> Rds.alloc h tid ~size:64) in
      in_txn rvm (fun tid -> Rds.free h tid p);
      let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
      let raised =
        try
          Rds.free h tid p;
          false
        with Types.Rvm_error _ -> true
      in
      check_bool "double free" true raised;
      Rvm.abort_transaction rvm tid)

let test_foreign_pointer_rejected () =
  with_heap (fun rvm h ->
      let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
      let raised =
        try
          Rds.free h tid (Rds.base h + 12345);
          false
        with Types.Rvm_error _ -> true
      in
      check_bool "foreign pointer" true raised;
      Rvm.abort_transaction rvm tid)

let test_out_of_memory () =
  with_heap ~len:(2 * ps) (fun rvm h ->
      let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
      let raised =
        try
          ignore (Rds.alloc h tid ~size:(4 * ps));
          false
        with Types.Rvm_error _ -> true
      in
      check_bool "oom" true raised;
      Rvm.abort_transaction rvm tid)

let test_abort_rolls_back_allocation () =
  with_heap (fun rvm h ->
      let before_blocks = Rds.block_count h in
      let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
      ignore (Rds.alloc h tid ~size:128);
      ignore (Rds.alloc h tid ~size:256);
      Rvm.abort_transaction rvm tid;
      check_int "allocation undone" 0 (Rds.allocated_bytes h);
      check_int "block structure restored" before_blocks (Rds.block_count h);
      Rds.check h)

let test_abort_rolls_back_free () =
  with_heap (fun rvm h ->
      let p = in_txn rvm (fun tid -> Rds.alloc h tid ~size:128) in
      let allocated = Rds.allocated_bytes h in
      let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
      Rds.free h tid p;
      Rvm.abort_transaction rvm tid;
      check_int "free undone" allocated (Rds.allocated_bytes h);
      Rds.check h;
      (* The block is still allocated and can be freed for real. *)
      in_txn rvm (fun tid -> Rds.free h tid p);
      Rds.check h)

let test_attach_after_restart () =
  let log_crash = Crash_device.create ~name:"log" ~size:(512 * 1024) () in
  let seg_crash = Crash_device.create ~name:"seg" ~size:(256 * 1024) () in
  Rvm.create_log (Crash_device.device log_crash);
  let resolve _ = Crash_device.device seg_crash in
  let rvm = Rvm.initialize ~log:(Crash_device.device log_crash) ~resolve () in
  let r = Rvm.map rvm ~seg:1 ~seg_off:0 ~len:(16 * ps) () in
  let base = r.Region.vaddr in
  let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
  let h = Rds.init rvm tid ~base ~len:(16 * ps) in
  let p = Rds.alloc h tid ~size:64 in
  Rvm.end_transaction rvm tid ~mode:Types.Flush;
  in_txn rvm (fun tid ->
      Rvm.set_range rvm tid ~addr:p ~len:9;
      Rvm.store_string rvm ~addr:p "persisted");
  (* Crash and restart. *)
  Crash_device.crash log_crash;
  Crash_device.crash seg_crash;
  let rvm2 = Rvm.initialize ~log:(Crash_device.device log_crash) ~resolve () in
  ignore (Rvm.map rvm2 ~vaddr:base ~seg:1 ~seg_off:0 ~len:(16 * ps) ());
  let h2 = Rds.attach rvm2 ~base in
  Rds.check h2;
  check_bool "allocation survived" true (Rds.allocated_bytes h2 >= 64);
  Alcotest.(check string)
    "data survived" "persisted"
    (Bytes.to_string (Rvm.load rvm2 ~addr:p ~len:9))

let test_attach_garbage_rejected () =
  let rvm, base = make_world () in
  let raised =
    try
      ignore (Rds.attach rvm ~base);
      false
    with Types.Rvm_error _ -> true
  in
  check_bool "no heap signature" true raised

let test_random_workload_invariants () =
  with_heap ~len:(32 * ps) (fun rvm h ->
      let rng = Rng.create ~seed:17L in
      let live = ref [] in
      for round = 1 to 60 do
        in_txn rvm (fun tid ->
            (* A few allocations... *)
            for _ = 1 to 1 + Rng.int rng 5 do
              let size = 8 + Rng.int rng 600 in
              match Rds.alloc h tid ~size with
              | p -> live := (p, size) :: !live
              | exception Types.Rvm_error _ -> ()
            done;
            (* ...and a few frees. *)
            for _ = 1 to Rng.int rng 4 do
              match !live with
              | [] -> ()
              | _ ->
                let i = Rng.int rng (List.length !live) in
                let p, _ = List.nth !live i in
                live := List.filteri (fun j _ -> j <> i) !live;
                Rds.free h tid p
            done);
        if round mod 10 = 0 then Rds.check h
      done;
      Rds.check h;
      (* Free everything: the heap must coalesce back to a single block. *)
      in_txn rvm (fun tid -> List.iter (fun (p, _) -> Rds.free h tid p) !live);
      check_int "fully coalesced" 1 (Rds.block_count h);
      check_int "nothing allocated" 0 (Rds.allocated_bytes h);
      Rds.check h)

(* --- the reworked allocator against the one it replaced ---

   [Reference] is the allocator as it was before its free-list edits were
   merged into fewer set_range calls: every word declared on its own, a
   split block unlinked and its tail re-inserted, a coalesced block
   unlinked and re-inserted. The layout constants are Rds's. Fed the same
   requests, the two must choose the same blocks and leave the same
   bytes. *)
module Reference = struct
  let hdr_free = 16
  let hdr_allocated = 24
  let heap_header = 32
  let overhead = 16
  let min_block = 32

  type t = { rvm : Rvm.t; base : int; len : int }

  let getw t addr = Int64.to_int (Rvm.get_i64 t.rvm ~addr)

  let setw t tid addr v =
    Rvm.set_range t.rvm tid ~addr ~len:8;
    Rvm.set_i64 t.rvm ~addr (Int64.of_int v)

  let size_of_tag tag = tag land lnot 7
  let allocated_tag tag = tag land 1 <> 0
  let footer_addr b size = b + size - 8

  let write_tags t tid b ~size ~allocated =
    let tag = size lor if allocated then 1 else 0 in
    setw t tid b tag;
    setw t tid (footer_addr b size) tag

  let next_free t b = getw t (b + 8)
  let prev_free t b = getw t (b + 16)
  let free_head t = getw t (t.base + hdr_free)
  let set_free_head t tid v = setw t tid (t.base + hdr_free) v
  let first_block t = t.base + heap_header
  let heap_end t = t.base + t.len

  let add_allocated t tid delta =
    setw t tid (t.base + hdr_allocated) (getw t (t.base + hdr_allocated) + delta)

  let insert_free t tid b =
    let rec find prev cur =
      if cur = 0 || cur > b then (prev, cur) else find cur (next_free t cur)
    in
    let prev, next = find 0 (free_head t) in
    setw t tid (b + 8) next;
    setw t tid (b + 16) prev;
    if prev = 0 then set_free_head t tid b else setw t tid (prev + 8) b;
    if next <> 0 then setw t tid (next + 16) b

  let remove_free t tid b =
    let prev = prev_free t b and next = next_free t b in
    if prev = 0 then set_free_head t tid next else setw t tid (prev + 8) next;
    if next <> 0 then setw t tid (next + 16) prev

  let alloc t tid ~size =
    let need = max min_block (((size + 7) land lnot 7) + overhead) in
    let rec fit b =
      if b = 0 then raise Not_found
      else if size_of_tag (getw t b) >= need then b
      else fit (next_free t b)
    in
    let b = fit (free_head t) in
    let bsize = size_of_tag (getw t b) in
    remove_free t tid b;
    let used =
      if bsize - need >= min_block then begin
        let rest = b + need in
        write_tags t tid rest ~size:(bsize - need) ~allocated:false;
        insert_free t tid rest;
        need
      end
      else bsize
    in
    write_tags t tid b ~size:used ~allocated:true;
    add_allocated t tid (used - overhead);
    b + 8

  let free t tid p =
    let b = p - 8 in
    let size = size_of_tag (getw t b) in
    add_allocated t tid (overhead - size);
    let b, size =
      let nb = b + size in
      if nb < heap_end t && not (allocated_tag (getw t nb)) then begin
        remove_free t tid nb;
        (b, size + size_of_tag (getw t nb))
      end
      else (b, size)
    in
    let b, size =
      if b > first_block t && not (allocated_tag (getw t (b - 8))) then begin
        let psize = size_of_tag (getw t (b - 8)) in
        let pb = b - psize in
        remove_free t tid pb;
        (pb, size + psize)
      end
      else (b, size)
    in
    write_tags t tid b ~size ~allocated:false;
    insert_free t tid b
end

type heap_op = Alloc of int | Free of int

let print_heap_op = function
  | Alloc n -> Printf.sprintf "Alloc %d" n
  | Free i -> Printf.sprintf "Free %d" i

(* Allocations of 1 to 300 bytes, and frees of the [i mod live]-th live
   block, in transactions of up to four operations. *)
let heap_ops_gen =
  QCheck.Gen.(
    list_size (int_range 20 120)
      (frequency
         [
           (3, map (fun n -> Alloc (1 + n)) (int_bound 299));
           (2, map (fun i -> Free i) (int_bound 1000));
         ]))

let same_layout ops =
  let len = 8 * ps in
  let world () =
    let rvm, base = make_world ~len () in
    let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
    let h = Rds.init rvm tid ~base ~len in
    Rvm.end_transaction rvm tid ~mode:Types.Flush;
    (rvm, base, h)
  in
  let rvm, base, h = world () in
  let rrvm, rbase, _ = world () in
  if base <> rbase then QCheck.Test.fail_report "heaps at different addresses";
  let reference = { Reference.rvm = rrvm; base; len } in
  let calls () = (Rvm.stats rvm).Statistics.set_ranges in
  let live = ref [] in
  let step tid rtid = function
    | Alloc size -> (
      let c0 = calls () in
      match
        ( (try Some (Rds.alloc h tid ~size) with Types.Rvm_error _ -> None),
          try Some (Reference.alloc reference rtid ~size) with Not_found -> None )
      with
      | Some p, Some q ->
        if p <> q then QCheck.Test.fail_reportf "alloc %d: %#x <> %#x" size p q;
        if calls () - c0 > 6 then
          QCheck.Test.fail_reportf "alloc made %d set_range calls" (calls () - c0);
        live := !live @ [ p ]
      | None, None -> ()
      | _ -> QCheck.Test.fail_reportf "alloc %d: only one heap is full" size)
    | Free i -> (
      match !live with
      | [] -> ()
      | l ->
        let p = List.nth l (i mod List.length l) in
        live := List.filter (( <> ) p) l;
        let c0 = calls () in
        Rds.free h tid p;
        if calls () - c0 > 5 then
          QCheck.Test.fail_reportf "free made %d set_range calls" (calls () - c0);
        Reference.free reference rtid p)
  in
  let rec txns = function
    | [] -> ()
    | ops ->
      let now = List.filteri (fun i _ -> i < 4) ops in
      let rest = List.filteri (fun i _ -> i >= 4) ops in
      let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
      let rtid = Rvm.begin_transaction rrvm ~mode:Types.Restore in
      List.iter (step tid rtid) now;
      Rvm.end_transaction rvm tid ~mode:Types.No_flush;
      Rvm.end_transaction rrvm rtid ~mode:Types.No_flush;
      txns rest
  in
  txns ops;
  Rds.check h;
  if not (Bytes.equal (Rvm.load rvm ~addr:base ~len) (Rvm.load rrvm ~addr:base ~len))
  then QCheck.Test.fail_report "heap images differ";
  true

let prop_same_layout =
  QCheck.Test.make ~count:200 ~name:"rds.same-layout"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_heap_op ops))
       heap_ops_gen)
    same_layout

let suite =
  [
    ("alloc.basic", `Quick, test_alloc_basic);
    ("alloc.distinct", `Quick, test_alloc_distinct);
    ("alloc.free-reuse", `Quick, test_free_and_reuse);
    ("alloc.coalescing", `Quick, test_coalescing);
    ("alloc.free-list-length", `Quick, test_free_list_length);
    ("alloc.double-free", `Quick, test_double_free_rejected);
    ("alloc.foreign-pointer", `Quick, test_foreign_pointer_rejected);
    ("alloc.oom", `Quick, test_out_of_memory);
    ("alloc.abort-alloc", `Quick, test_abort_rolls_back_allocation);
    ("alloc.abort-free", `Quick, test_abort_rolls_back_free);
    ("alloc.restart", `Quick, test_attach_after_restart);
    ("alloc.attach-garbage", `Quick, test_attach_garbage_rejected);
    ("alloc.random-invariants", `Quick, test_random_workload_invariants);
    QCheck_alcotest.to_alcotest prop_same_layout;
  ]
