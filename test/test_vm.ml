(* Unit tests for Rvm_vm: page math, page vector (Figure 7), LRU, and the
   paging simulator. *)

open Rvm_vm
module Clock = Rvm_util.Clock
module Cost_model = Rvm_util.Cost_model

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ps = 4096

let test_page_math () =
  check_bool "aligned" true (Page.is_aligned ~page_size:ps 8192);
  check_bool "unaligned" false (Page.is_aligned ~page_size:ps 8193);
  check_int "page_of" 2 (Page.page_of ~page_size:ps 8192);
  check_int "page_of end" 2 (Page.page_of ~page_size:ps 12287);
  check_int "base" 8192 (Page.page_base ~page_size:ps 2);
  check_int "round up" 8192 (Page.round_up ~page_size:ps 4097);
  check_int "round up exact" 4096 (Page.round_up ~page_size:ps 4096);
  check_int "round down" 4096 (Page.round_down ~page_size:ps 8191)

let test_pages_spanning () =
  let span off len = Page.pages_spanning ~page_size:ps ~off ~len in
  Alcotest.(check (pair int int)) "within one" (0, 1) (span 0 100);
  Alcotest.(check (pair int int)) "exact page" (1, 1) (span 4096 4096);
  Alcotest.(check (pair int int)) "straddle" (0, 2) (span 4000 200);
  Alcotest.(check (pair int int)) "empty" (1, 0) (span 4096 0);
  let pages = ref [] in
  Page.iter_pages ~page_size:ps ~off:4000 ~len:9000 ~f:(fun p ->
      pages := p :: !pages);
  Alcotest.(check (list int)) "iter" [ 0; 1; 2; 3 ] (List.rev !pages)

let test_page_table () =
  let pt = Page_table.create ~pages:4 in
  Page_table.incr_uncommitted pt 2;
  Page_table.incr_uncommitted pt 2;
  check_int "refcount" 2 (Page_table.uncommitted pt 2);
  check_bool "any uncommitted" true (Page_table.any_uncommitted pt);
  Page_table.decr_uncommitted pt 2;
  Page_table.decr_uncommitted pt 2;
  check_bool "drained" false (Page_table.any_uncommitted pt);
  Alcotest.check_raises "underflow"
    (Invalid_argument "Page_table.decr_uncommitted: underflow") (fun () ->
      Page_table.decr_uncommitted pt 2)

let test_page_table_reserve () =
  let pt = Page_table.create ~pages:2 in
  check_bool "first reserve" true (Page_table.reserve pt 1);
  check_bool "second reserve fails" false (Page_table.reserve pt 1);
  Page_table.release pt 1;
  check_bool "after release" true (Page_table.reserve pt 1)

let test_lru_order () =
  let l = Lru.create () in
  List.iter (Lru.touch l) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "mru order" [ 3; 2; 1 ] (Lru.to_list_mru_first l);
  Lru.touch l 1;
  Alcotest.(check (list int)) "after touch" [ 1; 3; 2 ] (Lru.to_list_mru_first l);
  Alcotest.(check (option int)) "lru is 2" (Some 2) (Lru.peek_lru l);
  Alcotest.(check (option int)) "evict 2" (Some 2) (Lru.evict_lru l);
  Alcotest.(check (option int)) "evict 3" (Some 3) (Lru.evict_lru l);
  Alcotest.(check (option int)) "evict 1" (Some 1) (Lru.evict_lru l);
  Alcotest.(check (option int)) "empty" None (Lru.evict_lru l)

let test_lru_remove () =
  let l = Lru.create () in
  List.iter (Lru.touch l) [ 1; 2; 3 ];
  Lru.remove l 2;
  check_int "size" 2 (Lru.size l);
  Lru.remove l 99 (* absent: no-op *);
  Alcotest.(check (list int)) "order kept" [ 3; 1 ] (Lru.to_list_mru_first l)

(* Random touches, removes and evictions against a list model, most
   recently used first: the same order after every step, and the same
   victims. *)
type lru_op = Touch of int | Remove of int | Evict

let prop_lru_model =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 200)
        (frequency
           [
             (5, map (fun k -> Touch k) (int_bound 15));
             (2, map (fun k -> Remove k) (int_bound 15));
             (2, return Evict);
           ]))
  in
  let print =
    QCheck.Print.list (function
      | Touch k -> Printf.sprintf "touch %d" k
      | Remove k -> Printf.sprintf "remove %d" k
      | Evict -> "evict")
  in
  QCheck.Test.make ~name:"lru agrees with a list model" ~count:300
    (QCheck.make ~print gen) (fun ops ->
      let l = Lru.create () in
      let model = ref [] in
      let last = function [] -> None | m -> Some (List.nth m (List.length m - 1)) in
      List.for_all
        (fun op ->
          let victim_ok =
            match op with
            | Touch k ->
              Lru.touch l k;
              model := k :: List.filter (( <> ) k) !model;
              true
            | Remove k ->
              Lru.remove l k;
              model := List.filter (( <> ) k) !model;
              true
            | Evict ->
              let expect = last !model in
              (match expect with
              | Some k -> model := List.filter (( <> ) k) !model
              | None -> ());
              Lru.evict_lru l = expect
          in
          victim_ok
          && Lru.to_list_mru_first l = !model
          && Lru.size l = List.length !model
          && Lru.peek_lru l = last !model
          && List.for_all (Lru.mem l) !model)
        ops)

let mk_vm ?(frames = 4) () =
  let clock = Clock.simulated () in
  let model = Cost_model.dec5000 in
  let config =
    {
      Vm_sim.physical_pages = frames;
      page_size = ps;
      fault_disk = model.Cost_model.paging_disk;
      evict_disk = model.Cost_model.paging_disk;
      evict_in_background = true;
    }
  in
  (Vm_sim.create ~clock ~model config, clock)

let test_vm_fault_once () =
  let vm, clock = mk_vm () in
  Vm_sim.touch vm ~page:0 ~write:false;
  check_int "one fault" 1 (Vm_sim.faults vm);
  check_bool "fault costs time" true (Clock.now_us clock > 0.);
  let t = Clock.now_us clock in
  Vm_sim.touch vm ~page:0 ~write:false;
  check_int "hit is free" 1 (Vm_sim.faults vm);
  Alcotest.(check (float 0.)) "no extra time" t (Clock.now_us clock)

let test_vm_eviction_lru () =
  let vm, _ = mk_vm ~frames:2 () in
  Vm_sim.touch vm ~page:1 ~write:false;
  Vm_sim.touch vm ~page:2 ~write:false;
  Vm_sim.touch vm ~page:3 ~write:false;
  (* page 1 was LRU. *)
  check_bool "1 evicted" false (Vm_sim.is_resident vm ~page:1);
  check_bool "2 resident" true (Vm_sim.is_resident vm ~page:2);
  check_bool "3 resident" true (Vm_sim.is_resident vm ~page:3);
  check_int "one eviction" 1 (Vm_sim.evictions vm)

let test_vm_dirty_pageout () =
  let vm, _ = mk_vm ~frames:1 () in
  Vm_sim.touch vm ~page:1 ~write:true;
  Vm_sim.touch vm ~page:2 ~write:false;
  check_int "dirty eviction paged out" 1 (Vm_sim.pageouts vm);
  Vm_sim.touch vm ~page:3 ~write:false;
  check_int "clean eviction free" 1 (Vm_sim.pageouts vm)

let test_vm_pin_protects () =
  let vm, _ = mk_vm ~frames:2 () in
  Vm_sim.pin vm ~page:1;
  Vm_sim.touch vm ~page:2 ~write:false;
  Vm_sim.touch vm ~page:3 ~write:false;
  Vm_sim.touch vm ~page:4 ~write:false;
  check_bool "pinned stays" true (Vm_sim.is_resident vm ~page:1);
  Vm_sim.unpin vm ~page:1;
  Vm_sim.touch vm ~page:5 ~write:false;
  Vm_sim.touch vm ~page:6 ~write:false;
  check_bool "unpinned can go" false (Vm_sim.is_resident vm ~page:1)

let test_vm_pin_nests () =
  let vm, _ = mk_vm () in
  Vm_sim.pin vm ~page:1;
  Vm_sim.pin vm ~page:1;
  Vm_sim.unpin vm ~page:1;
  check_bool "still pinned" true (Vm_sim.is_resident vm ~page:1);
  Vm_sim.unpin vm ~page:1;
  Alcotest.check_raises "unpin underflow"
    (Invalid_argument "Vm_sim.unpin: page not pinned") (fun () ->
      Vm_sim.unpin vm ~page:1)

let test_vm_load_sequential () =
  let vm, clock = mk_vm ~frames:3 () in
  Vm_sim.load_sequential vm ~first:0 ~count:10;
  check_int "no faults charged" 0 (Vm_sim.faults vm);
  check_bool "charged io" true (Clock.io_us clock > 0.);
  (* Only the tail of the range fits. *)
  check_int "resident limited" 3 (Vm_sim.resident_pages vm);
  check_bool "tail resident" true (Vm_sim.is_resident vm ~page:9);
  check_bool "head not resident" false (Vm_sim.is_resident vm ~page:0)

let test_vm_hit_rate_locality () =
  (* Same trace volume, different locality: the localized pattern must fault
     less than the uniform one. This is the mechanism behind Figure 8. *)
  let run pattern =
    let vm, _ = mk_vm ~frames:50 () in
    let rng = Rvm_util.Rng.create ~seed:1L in
    for _ = 1 to 5000 do
      let page =
        match pattern with
        | `Uniform -> Rvm_util.Rng.int rng 200
        | `Localized ->
          if Rvm_util.Rng.int rng 100 < 70 then Rvm_util.Rng.int rng 10
          else Rvm_util.Rng.int rng 200
      in
      Vm_sim.touch vm ~page ~write:false
    done;
    Vm_sim.faults vm
  in
  let uniform = run `Uniform and localized = run `Localized in
  check_bool
    (Printf.sprintf "localized (%d) < uniform (%d)" localized uniform)
    true
    (localized < uniform)

let suite =
  [
    ("page.math", `Quick, test_page_math);
    ("page.spanning", `Quick, test_pages_spanning);
    ("page-table.bits", `Quick, test_page_table);
    ("page-table.reserve", `Quick, test_page_table_reserve);
    ("lru.order", `Quick, test_lru_order);
    ("lru.remove", `Quick, test_lru_remove);
    QCheck_alcotest.to_alcotest prop_lru_model;
    ("vm.fault-once", `Quick, test_vm_fault_once);
    ("vm.eviction-lru", `Quick, test_vm_eviction_lru);
    ("vm.dirty-pageout", `Quick, test_vm_dirty_pageout);
    ("vm.pin", `Quick, test_vm_pin_protects);
    ("vm.pin-nests", `Quick, test_vm_pin_nests);
    ("vm.load-sequential", `Quick, test_vm_load_sequential);
    ("vm.locality", `Quick, test_vm_hit_rate_locality);
  ]
