let () =
  Alcotest.run "rvm"
    [
      ("util", Test_util.suite);
      ("obs", Test_obs.suite);
      ("trace", Test_trace.suite);
      ("disk", Test_disk.suite);
      ("log", Test_log.suite);
      ("vm", Test_vm.suite);
      ("rvm", Test_rvm.suite);
      ("recovery", Test_recovery.suite);
      ("truncation", Test_truncation.suite);
      ("optimization", Test_optimization.suite);
      ("alloc", Test_alloc.suite);
      ("seg", Test_seg.suite);
      ("layers", Test_layers.suite);
      ("camelot", Test_camelot.suite);
      ("workload", Test_workload.suite);
      ("props", Test_props.suite);
      ("check", Test_check.suite);
      ("check-golden", Test_check_golden.suite);
      ("shard", Test_shard.suite);
      ("shard-check", Test_shard_check.suite);
      ("elr-check", Test_elr_check.suite);
      ("harness", Test_harness.suite);
      ("pbtree", Test_pbtree.suite);
      ("ycsb", Test_ycsb.suite);
      ("ycsb_run", Test_ycsb_run.suite);
      ("server", Test_server.suite);
      ("timeseries", Test_timeseries.suite);
      ("monitor", Test_monitor.suite);
      ("cli", Test_cli.suite);
      ("gate", Test_gate.suite);
      ("bench-artifacts", Test_bench_artifacts.suite);
      ("budget", Test_budget.suite);
    ]
