(* End-to-end tests for the YCSB harness: determinism, serial-reference
   equality on every mix, read-modify-writes on one hot leaf, and paging
   pressure wired through vm_sim. *)

module Ycsb = Rvm_workload.Ycsb
module Ycsb_run = Rvm_server.Ycsb_run
module Server = Rvm_server.Server
module Rds = Rvm_alloc.Rds
module Pbtree = Rvm_pds.Pbtree

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let base =
  {
    Ycsb_run.default_config with
    Ycsb_run.records = 2_000;
    requests = 200;
    load = Server.Open_loop 60.;
    mem_fraction = 0.;
  }

(* Every mix open loop, plus a closed-loop row: sessions re-issue only as
   their previous request completes, a second arrival path through the
   same harness. *)
let test_mixes_serial_equal () =
  List.iter
    (fun (mix, load) ->
      let r = Ycsb_run.run { base with Ycsb_run.mix; load } in
      let name = Ycsb.mix_name mix ^ " " ^ Server.load_name load in
      check_bool (name ^ " serial equal") true r.Ycsb_run.serial_equal;
      check_int
        (name ^ " all requests accounted")
        base.Ycsb_run.requests
        (r.Ycsb_run.committed + r.Ycsb_run.shed);
      check_bool (name ^ " made progress") true (r.Ycsb_run.committed > 0))
    (List.map (fun mix -> (mix, base.Ycsb_run.load)) [ Ycsb.A; B; C; D; E; F ]
    @ [ (Ycsb.F, Server.Closed_loop { sessions = 8; think_us = 5_000. }) ])

let test_determinism () =
  let cfg = { base with Ycsb_run.mix = Ycsb.F } in
  let a = Ycsb_run.run cfg and b = Ycsb_run.run cfg in
  check_int "committed" a.Ycsb_run.committed b.Ycsb_run.committed;
  check_int "aborts" a.Ycsb_run.aborts b.Ycsb_run.aborts;
  check_bool "duration" true (a.Ycsb_run.duration_us = b.Ycsb_run.duration_us);
  check_bool "latency p99" true
    (a.Ycsb_run.p99_latency_us = b.Ycsb_run.p99_latency_us)

let test_rmw_hot_leaf () =
  (* A tiny hot key population forces concurrent read-modify-writes onto
     the same leaf. Each takes the leaf in Update, so a second RMW queues
     at its first lock instead of deadlocking at the upgrade: every one
     commits without an abort, and the serial check holds. *)
  let r =
    Ycsb_run.run
      {
        base with
        Ycsb_run.mix = Ycsb.F;
        records = 50;
        requests = 300;
        load = Server.Open_loop 400.;
        max_queue = 300;
      }
  in
  check_int "every request committed" 300 r.Ycsb_run.committed;
  check_int "no aborts" 0 r.Ycsb_run.aborts;
  check_bool "serial equal" true r.Ycsb_run.serial_equal

let test_inserts_grow_tree () =
  let r =
    Ycsb_run.run
      { base with Ycsb_run.mix = Ycsb.D; records = 500; requests = 400 }
  in
  check_bool "population grew" true (r.Ycsb_run.tree_length > 500);
  check_bool "inserts split nodes" true (r.Ycsb_run.splits > 0);
  check_bool "serial equal" true r.Ycsb_run.serial_equal

let test_paging_pressure () =
  (* With frames at a quarter of the heap's pages, the Zipf-cold tail of
     the key population must fault back in during the run. *)
  let r =
    Ycsb_run.run
      {
        base with
        Ycsb_run.mix = Ycsb.C;
        records = 20_000;
        requests = 200;
        mem_fraction = 0.25;
      }
  in
  check_bool "faults charged" true (r.Ycsb_run.vm_faults > 0);
  check_bool "serial equal" true r.Ycsb_run.serial_equal

(* Mix C only reads: no request begins an engine transaction, so the
   engine commits none while serving, spools no commit record and never
   forces the log, and every read still commits and replays serially. *)
let test_read_only_mix_forces_nothing () =
  let cfg = { base with Ycsb_run.mix = Ycsb.C } in
  let w = Ycsb_run.build_world cfg in
  let txns () =
    (Rvm_core.Rvm.stats w.Ycsb_run.rvm).Rvm_core.Statistics.txns_committed
  in
  let before = txns () in
  let r = Ycsb_run.serve cfg w in
  check_int "engine transactions committed while serving" 0
    (txns () - before);
  check_bool "none per committed request" true
    (r.Ycsb_run.engine_txns_per_commit = 0.);
  check_int "log syncs while serving" 0 r.Ycsb_run.log_syncs;
  check_int "force batches" 0 r.Ycsb_run.batches;
  check_int "every request committed" base.Ycsb_run.requests
    r.Ycsb_run.committed;
  check_bool "serial equal" true r.Ycsb_run.serial_equal

(* An engine commit's [req.root] span names its request through YCSB's
   label. On mix F only the read-modify-writes write: the reads begin no
   engine transaction, so every span is a read-modify-write's, one per
   engine commit. *)
let test_trace_labels () =
  let cfg = { base with Ycsb_run.mix = Ycsb.F } in
  let w = Ycsb_run.build_world cfg in
  Rvm_obs.Registry.set_trace_capacity w.Ycsb_run.obs 65536;
  let txns () =
    (Rvm_core.Rvm.stats w.Ycsb_run.rvm).Rvm_core.Statistics.txns_committed
  in
  let before = txns () in
  let r = Ycsb_run.serve cfg w in
  let kinds =
    List.filter_map
      (fun (e : Rvm_obs.Registry.span_event) ->
        if e.scope = "req.root" then Some (List.assoc_opt "kind" e.attrs)
        else None)
      (Rvm_obs.Registry.events w.Ycsb_run.obs)
  in
  check_bool "read-modify-writes committed" true (kinds <> []);
  check_int "one req.root per engine commit" (txns () - before)
    (List.length kinds);
  List.iter
    (fun kind ->
      check_bool "kind is ycsb-rmw" true
        (kind = Some (Rvm_obs.Trace.String "ycsb-rmw")))
    kinds;
  check_bool "serial equal" true r.Ycsb_run.serial_equal

let test_world_gauges () =
  let r, w = Ycsb_run.run_with_world { base with Ycsb_run.mix = Ycsb.A } in
  check_bool "run ok" true r.Ycsb_run.serial_equal;
  (* Heap occupancy is published into the registry for stats surfaces. *)
  let counters = Rvm_obs.Registry.counters w.Ycsb_run.obs in
  let get name = List.assoc_opt name counters in
  check_bool "allocated gauge" true
    (get "rds.allocated.bytes" = Some (Rds.allocated_bytes w.Ycsb_run.heap));
  check_bool "free-list gauge" true
    (get "rds.free.list.length"
    = Some (Rds.free_list_length w.Ycsb_run.heap));
  (* And the world's tree is still structurally sound. *)
  Pbtree.check w.Ycsb_run.tree;
  Rds.check w.Ycsb_run.heap

let suite =
  [
    ("ycsb_run.mixes-serial-equal", `Quick, test_mixes_serial_equal);
    ("ycsb_run.determinism", `Quick, test_determinism);
    ("ycsb_run.rmw-hot-leaf-no-aborts", `Quick, test_rmw_hot_leaf);
    ("ycsb_run.inserts-grow-tree", `Quick, test_inserts_grow_tree);
    ("ycsb_run.paging-pressure", `Quick, test_paging_pressure);
    ( "ycsb_run.read-only-mix-forces-nothing",
      `Quick,
      test_read_only_mix_forces_nothing );
    ("ycsb_run.trace-labels", `Quick, test_trace_labels);
    ("ycsb_run.world-gauges", `Quick, test_world_gauges);
  ]
