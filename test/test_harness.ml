(* Shape tests for the evaluation harness: the headline relations of the
   paper must hold on every build (these are the regression guards for the
   calibration in lib/harness and the two engines' cost structures). *)

module Experiment = Rvm_harness.Experiment
module Table1 = Rvm_harness.Table1
module Tpca = Rvm_workload.Tpca
module Server = Rvm_server.Server
module Ycsb_run = Rvm_server.Ycsb_run

let check_bool = Alcotest.(check bool)

let run ~engine ~accounts ~pattern =
  Experiment.tpca_run ~measure:1500 ~engine ~accounts ~pattern ~seed:5L ()

let small = List.nth Experiment.account_steps 0 (* 12.5% *)
let large = List.nth Experiment.account_steps 13 (* 175% *)

let test_sequential_disk_bound () =
  (* Both systems sit near the log-force bound sequentially, at every
     size; the theoretical max is 57.4 txn/s. *)
  List.iter
    (fun engine ->
      List.iter
        (fun accounts ->
          let r = run ~engine ~accounts ~pattern:Tpca.Sequential in
          check_bool
            (Printf.sprintf "%s seq @%d = %.1f in [42, 52]"
               (Experiment.engine_name engine)
               accounts r.Experiment.tps)
            true
            (r.Experiment.tps > 42. && r.Experiment.tps < 52.))
        [ small; large ])
    [ Experiment.Rvm; Experiment.Camelot ]

let test_rvm_beats_camelot () =
  (* "In spite of the fact that RVM is not integrated with VM, it is able
     to outperform Camelot over a broad range of workloads." *)
  List.iter
    (fun pattern ->
      List.iter
        (fun accounts ->
          let rvm = run ~engine:Experiment.Rvm ~accounts ~pattern in
          let cam = run ~engine:Experiment.Camelot ~accounts ~pattern in
          check_bool
            (Printf.sprintf "RVM %.1f > Camelot %.1f (%s @%d)"
               rvm.Experiment.tps cam.Experiment.tps
               (Tpca.pattern_name pattern) accounts)
            true
            (rvm.Experiment.tps > cam.Experiment.tps))
        [ small; large ])
    [ Tpca.Sequential; Tpca.Random; Tpca.Localized ]

let test_rvm_random_knee () =
  (* RVM random: flat at low ratios, serious degradation past the knee. *)
  let lo = run ~engine:Experiment.Rvm ~accounts:small ~pattern:Tpca.Random in
  let hi = run ~engine:Experiment.Rvm ~accounts:large ~pattern:Tpca.Random in
  check_bool "no paging at 12.5%" true (lo.Experiment.faults = 0);
  check_bool "paging at 175%" true (hi.Experiment.faults > 500);
  check_bool
    (Printf.sprintf "drop %.1f -> %.1f exceeds 30%%" lo.Experiment.tps
       hi.Experiment.tps)
    true
    (hi.Experiment.tps < 0.7 *. lo.Experiment.tps)

let test_camelot_locality_sensitive_early () =
  (* At 12.5% (no paging) Camelot already separates by pattern; RVM does
     not (section 7.1.2's "puzzled by Camelot's behavior"). *)
  let c_seq = run ~engine:Experiment.Camelot ~accounts:small ~pattern:Tpca.Sequential in
  let c_rnd = run ~engine:Experiment.Camelot ~accounts:small ~pattern:Tpca.Random in
  let r_seq = run ~engine:Experiment.Rvm ~accounts:small ~pattern:Tpca.Sequential in
  let r_rnd = run ~engine:Experiment.Rvm ~accounts:small ~pattern:Tpca.Random in
  check_bool
    (Printf.sprintf "camelot gap %.1f vs %.1f > 8%%" c_seq.Experiment.tps
       c_rnd.Experiment.tps)
    true
    (c_rnd.Experiment.tps < 0.92 *. c_seq.Experiment.tps);
  check_bool
    (Printf.sprintf "rvm flat: %.1f vs %.1f within 3%%" r_seq.Experiment.tps
       r_rnd.Experiment.tps)
    true
    (Float.abs (r_rnd.Experiment.tps -. r_seq.Experiment.tps)
    < 0.03 *. r_seq.Experiment.tps)

let test_cpu_ratio () =
  (* "RVM typically requires about half the CPU usage of Camelot." *)
  let rvm = run ~engine:Experiment.Rvm ~accounts:small ~pattern:Tpca.Sequential in
  let cam = run ~engine:Experiment.Camelot ~accounts:small ~pattern:Tpca.Sequential in
  let ratio = rvm.Experiment.cpu_ms_per_txn /. cam.Experiment.cpu_ms_per_txn in
  check_bool
    (Printf.sprintf "cpu ratio %.2f in [0.3, 0.65]" ratio)
    true
    (ratio > 0.3 && ratio < 0.65)

let test_paper_reference_data () =
  (* The embedded Table 1 reference matches the paper's corner values. *)
  let get e p i = Option.get (Table1.paper_tps e p i) in
  Alcotest.(check (float 1e-9)) "rvm seq first" 48.6
    (get Experiment.Rvm Tpca.Sequential 0);
  Alcotest.(check (float 1e-9)) "rvm rand last" 27.4
    (get Experiment.Rvm Tpca.Random 13);
  Alcotest.(check (float 1e-9)) "cam rand last" 17.9
    (get Experiment.Camelot Tpca.Random 13);
  Alcotest.(check (float 1e-9)) "cam local first" 44.5
    (get Experiment.Camelot Tpca.Localized 0);
  check_bool "out of range" true
    (Table1.paper_tps Experiment.Rvm Tpca.Sequential 14 = None)

let test_table2_all_rows_close () =
  (* Every Table 2 row within tolerance of the paper. *)
  let results = Rvm_harness.Table2.run () in
  List.iter
    (fun (r : Rvm_workload.Coda.result) ->
      let p = r.Rvm_workload.Coda.profile.Rvm_workload.Coda.paper in
      let name = r.Rvm_workload.Coda.profile.Rvm_workload.Coda.name in
      check_bool
        (Printf.sprintf "%s total %.1f ~ %.1f" name
           r.Rvm_workload.Coda.total_pct p.Rvm_workload.Coda.p_total_pct)
        true
        (Float.abs
           (r.Rvm_workload.Coda.total_pct -. p.Rvm_workload.Coda.p_total_pct)
        < 5.0))
    results

(* Nothing outside a world holds its memory devices, so a dropped world
   is garbage like any other value and needs no release. Each builder
   runs once to warm whatever the process caches, then [rounds] more
   times with every world dropped; the live heap after a full major
   collection may grow by at most [slack_words] (256 KiB) over those
   rounds. A TPC-A run that kept its 4 MiB log would exceed it 64 times
   over. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let test_worlds_collected () =
  let rounds = 4 and slack_words = 32 * 1024 in
  let collected name build =
    build ();
    let before = live_words () in
    for _ = 1 to rounds do
      build ()
    done;
    let grown = live_words () - before in
    check_bool
      (Printf.sprintf "%s: live heap grew %d words over %d worlds" name grown
         rounds)
      true (grown <= slack_words)
  in
  collected "Experiment.tpca_run" (fun () ->
      ignore
        (Experiment.tpca_run ~warmup:50 ~measure:200
           ~truncation_mode:Rvm_core.Types.Incremental ~engine:Experiment.Rvm
           ~accounts:small ~pattern:Tpca.Random ~seed:5L ()));
  collected "Server.run_with_world" (fun () ->
      ignore
        (Server.run_with_world
           { Server.default_config with Server.requests = 100 }));
  collected "Ycsb_run.run_with_world" (fun () ->
      ignore
        (Ycsb_run.run_with_world
           {
             Ycsb_run.default_config with
             Ycsb_run.records = 1_000;
             requests = 100;
           }));
  collected "Crash.run" (fun () -> ignore (Test_check.run_tiny ()))

let suite =
  [
    ("shape.sequential-bound", `Slow, test_sequential_disk_bound);
    ("shape.rvm-beats-camelot", `Slow, test_rvm_beats_camelot);
    ("shape.rvm-random-knee", `Slow, test_rvm_random_knee);
    ("shape.camelot-locality", `Slow, test_camelot_locality_sensitive_early);
    ("shape.cpu-ratio", `Slow, test_cpu_ratio);
    ("shape.paper-data", `Quick, test_paper_reference_data);
    ("shape.table2", `Slow, test_table2_all_rows_close);
    ("memory.worlds-collected", `Quick, test_worlds_collected);
  ]
