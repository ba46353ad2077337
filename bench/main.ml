(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (section 7), the ablations, and Bechamel micro-benchmarks of
   the engine's hot paths.

     dune exec bench/main.exe            — everything (quick settings)
     dune exec bench/main.exe -- table1  — one artifact
     dune exec bench/main.exe -- full    — paper-scale trial counts

   Both [all] and [full] regenerate every tracked BENCH_*.json in one
   process: [all] takes about 90 s and peaks near 1.7 GB, most of it
   [ycsb]'s 10^6-record worlds (BENCH_YCSB_RECORDS sets fewer). [table1]
   alone peaks near 140 MB.

   The artifacts are named in [artifacts], at the end. Each only writes
   its artifact: `rvmutl benchdiff` (the table in Rvm_obs.Gate) is the one
   gate that decides whether a BENCH_*.json passes. *)

module Harness = Rvm_harness

let run_table1_family ~trials ~measure =
  let data = Harness.Table1.run ~trials ~measure () in
  Harness.Table1.print_table1 data;
  Harness.Table1.print_figure8 data;
  Harness.Table1.print_figure9 data;
  let path = "BENCH_table1.json" in
  Rvm_obs.Json.write_file ~path (Harness.Table1.to_json data);
  Printf.printf "wrote %s\n%!" path

let run_table2 () = Harness.Table2.print (Harness.Table2.run ())

(* --- Bechamel micro-benchmarks: real time on the host, one test per hot
   path. These measure the implementation itself, not the simulated 1993
   hardware. --- *)

(* Bechamel's [Toolkit.Instance.minor_allocated] reads [Gc.quick_stat],
   whose minor-word count OCaml 5 advances only at a minor collection, so
   a short run reads as zero words. [Gc.minor_words] counts every word
   allocated so far. *)
module Minor_words = struct
  type witness = unit

  let label () = "minor-words"
  let unit () = "words"
  let make () = ()
  let load () = ()
  let unload () = ()
  let get () = Gc.minor_words ()
end

let micro () =
  let open Bechamel in
  let open Toolkit in
  let mk_world () =
    let log_dev = Rvm_disk.Mem_device.create ~size:(8 * 1024 * 1024) () in
    Rvm_core.Rvm.create_log log_dev;
    let seg_dev = Rvm_disk.Mem_device.create ~size:(4 * 1024 * 1024) () in
    let rvm =
      Rvm_core.Rvm.initialize ~log:log_dev ~resolve:(fun _ -> seg_dev) ()
    in
    let base = 16 * 4096 in
    ignore
      (Rvm_core.Rvm.map rvm ~vaddr:base ~seg:1 ~seg_off:0 ~len:(1024 * 1024) ());
    (rvm, base)
  in
  let rvm, base = mk_world () in
  let counter = ref 0 in
  let test_commit =
    Test.make ~name:"txn-commit-flush"
      (Staged.stage (fun () ->
           incr counter;
           let tid =
             Rvm_core.Rvm.begin_transaction rvm ~mode:Rvm_core.Types.Restore
           in
           let addr = base + (!counter mod 2000 * 400) in
           Rvm_core.Rvm.set_range rvm tid ~addr ~len:256;
           Rvm_core.Rvm.store rvm ~addr (Bytes.make 256 'x');
           Rvm_core.Rvm.end_transaction rvm tid ~mode:Rvm_core.Types.Flush))
  in
  let rvm2, base2 = mk_world () in
  let counter2 = ref 0 in
  let test_noflush =
    Test.make ~name:"txn-commit-noflush"
      (Staged.stage (fun () ->
           incr counter2;
           let tid =
             Rvm_core.Rvm.begin_transaction rvm2 ~mode:Rvm_core.Types.No_restore
           in
           let addr = base2 + (!counter2 mod 2000 * 400) in
           Rvm_core.Rvm.set_range rvm2 tid ~addr ~len:256;
           Rvm_core.Rvm.store rvm2 ~addr (Bytes.make 256 'x');
           Rvm_core.Rvm.end_transaction rvm2 tid ~mode:Rvm_core.Types.No_flush;
           if !counter2 mod 64 = 0 then Rvm_core.Rvm.flush rvm2))
  in
  let rvm3, base3 = mk_world () in
  let tid3 = Rvm_core.Rvm.begin_transaction rvm3 ~mode:Rvm_core.Types.Restore in
  let counter3 = ref 0 in
  let test_set_range =
    Test.make ~name:"set-range-256B"
      (Staged.stage (fun () ->
           incr counter3;
           Rvm_core.Rvm.set_range rvm3 tid3
             ~addr:(base3 + (!counter3 mod 3000 * 300))
             ~len:256))
  in
  let enc_record =
    Rvm_log.Record.commit ~seqno:9 ~tid:7
      [ { Rvm_log.Record.seg = 1; off = 4096; data = Bytes.make 256 'r' } ]
  in
  let test_encode =
    Test.make ~name:"record-encode-256B"
      (Staged.stage (fun () -> ignore (Rvm_log.Record.encode enc_record)))
  in
  let encoded = Rvm_log.Record.encode enc_record in
  let test_decode =
    Test.make ~name:"record-decode-256B"
      (Staged.stage (fun () -> ignore (Rvm_log.Record.decode encoded ~pos:0)))
  in
  let iv = Rvm_util.Intervals.create () in
  let counter4 = ref 0 in
  let test_intervals =
    Test.make ~name:"intervals-add"
      (Staged.stage (fun () ->
           incr counter4;
           if !counter4 mod 4096 = 0 then Rvm_util.Intervals.clear iv;
           Rvm_util.Intervals.add iv ~lo:(!counter4 * 7 mod 100_000) ~len:64))
  in
  (* A 64-record drain of ~352 B records, forced: byte-granular dirty
     tracking (sector 1), as on every log stack. *)
  let drain_len = 22 * 1024 in
  let sim_dev =
    Rvm_disk.Stack.with_latency ~clock:(Rvm_util.Clock.simulated ())
      ~disk:Rvm_util.Cost_model.dec5000.Rvm_util.Cost_model.log_disk ()
      (Rvm_disk.Mem_device.of_bytes (Bytes.make (64 * drain_len) '\000'))
  in
  let drain_buf = Bytes.make drain_len 'd' in
  let counter5 = ref 0 in
  let test_drain =
    Test.make ~name:"sim-drain-22KiB-sync"
      (Staged.stage (fun () ->
           incr counter5;
           sim_dev.Rvm_disk.Device.write
             ~off:(!counter5 mod 64 * drain_len)
             ~buf:drain_buf ~pos:0 ~len:drain_len;
           sim_dev.Rvm_disk.Device.sync ()))
  in
  (* TPC-A's lock table: ~1.1k keys ever locked, three held per commit. *)
  let module L = Rvm_layers.Lock_mgr in
  let lm = L.create () in
  let lock_keys = Array.init 1100 (fun i -> "k" ^ string_of_int i) in
  Array.iter (fun key -> ignore (L.try_acquire lm ~owner:0 ~key L.Shared)) lock_keys;
  L.release_all lm ~owner:0;
  let counter6 = ref 0 in
  let test_release =
    Test.make ~name:"lock-release-all-1.1k-keys"
      (Staged.stage (fun () ->
           incr counter6;
           let owner = !counter6 in
           for j = 0 to 2 do
             let key = lock_keys.((owner * 7 + (j * 367)) mod 1100) in
             ignore (L.try_acquire lm ~owner ~key L.Exclusive)
           done;
           L.stamp_held lm ~owner (owner, owner);
           L.release_all lm ~owner))
  in
  let module Tr = Rvm_obs.Trace in
  let tr = Tr.create ~capacity:512 () in
  for i = 1 to 512 do
    Tr.enter tr ~now:(float_of_int i) "fill";
    ignore (Tr.exit tr ~now:(float_of_int i))
  done;
  let test_trace =
    Test.make ~name:"trace-enter-exit-full-ring"
      (Staged.stage (fun () ->
           Tr.enter tr ~now:1. "span";
           ignore (Tr.exit tr ~now:2.)))
  in
  let tests =
    Test.make_grouped ~name:"rvm" ~fmt:"%s %s"
      [
        test_commit; test_noflush; test_set_range; test_encode; test_decode;
        test_intervals; test_drain; test_release; test_trace;
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  (* Host time and words allocated on the minor heap, each an OLS estimate
     per run. *)
  let clock = Instance.monotonic_clock in
  let words =
    Measure.instance (module Minor_words) (Measure.register (module Minor_words))
  in
  let instances = [ clock; words ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw_results = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  let results = Analyze.merge ols instances results in
  let estimate instance name =
    match
      Option.bind (Hashtbl.find_opt results (Measure.label instance))
        (fun per_test -> Hashtbl.find_opt per_test name)
    with
    | Some r -> (
      match Analyze.OLS.estimates r with Some [ est ] -> Some est | _ -> None)
    | None -> None
  in
  let names =
    Hashtbl.fold (fun name _ acc -> name :: acc)
      (Hashtbl.find results (Measure.label clock))
      []
    |> List.sort compare
  in
  let cell = function Some v -> Printf.sprintf "%10.1f" v | None -> "         -" in
  print_endline "\n== Micro-benchmarks (host time and minor words per operation) ==";
  Printf.printf "  %-28s %10s %10s\n" "" "ns/op" "words/op";
  List.iter
    (fun name ->
      Printf.printf "  %-28s %s %s\n" name (cell (estimate clock name))
        (cell (estimate words name)))
    names;
  flush stdout;
  let module J = Rvm_obs.Json in
  let num = function None -> J.Null | Some v -> J.Float v in
  let entries =
    List.map
      (fun name ->
        J.Obj
          [
            ("name", J.String name);
            ("ns_per_op", num (estimate clock name));
            ("words_per_op", num (estimate words name));
          ])
      names
  in
  let path = "BENCH_micro.json" in
  J.write_file ~path
    (J.Obj
       [
         ("artifact", J.String "micro");
         ("unit", J.String "ns/op, minor words/op");
         ("results", J.List entries);
       ]);
  Printf.printf "wrote %s\n%!" path

(* [txns] 256-byte commits through a fresh engine on [log_dev]: every one
   flushed when [batch] is 1, else no-flush commits with every [batch]th
   flushing the group. Returns the engine, not yet terminated (shutdown's
   final force is not per-transaction cost), and the log's device writes
   and syncs during the loop. *)
let commit_loop ~log_dev ~seg_dev ~txns ~batch =
  Rvm_core.Rvm.create_log log_dev;
  let rvm =
    Rvm_core.Rvm.initialize ~log:log_dev ~resolve:(fun _ -> seg_dev) ()
  in
  let base = 16 * 4096 in
  ignore
    (Rvm_core.Rvm.map rvm ~vaddr:base ~seg:1 ~seg_off:0 ~len:(512 * 1024) ());
  let payload = Bytes.make 256 'g' in
  let st = log_dev.Rvm_disk.Device.stats in
  let w0 = st.Rvm_disk.Device.writes and s0 = st.Rvm_disk.Device.syncs in
  for i = 1 to txns do
    let tid =
      Rvm_core.Rvm.begin_transaction rvm ~mode:Rvm_core.Types.No_restore
    in
    let addr = base + (i mod 1000 * 320) in
    Rvm_core.Rvm.set_range rvm tid ~addr ~len:256;
    Rvm_core.Rvm.store rvm ~addr payload;
    Rvm_core.Rvm.end_transaction rvm tid
      ~mode:
        (if batch > 1 && i mod batch <> 0 then Rvm_core.Types.No_flush
         else Rvm_core.Types.Flush)
  done;
  (rvm, st.Rvm_disk.Device.writes - w0, st.Rvm_disk.Device.syncs - s0)

(* --- server: the transaction-server saturation sweep ---

   Offered load crossed with commit batching, everything on the simulated
   clock: a seeded run is byte-reproducible, so the JSON artifact is
   diffable across machines. The interesting shape: batched rows show
   strictly fewer device syncs per committed transaction than unbatched
   rows at equal load, and shedding appears only beyond the admission
   limit. *)

let server () =
  let module S = Rvm_server.Server in
  let module J = Rvm_obs.Json in
  let base = { S.default_config with S.requests = 400 } in
  let results =
    List.concat_map
      (fun tps ->
        List.map
          (fun batch_max ->
            S.run { base with S.load = S.Open_loop tps; batch_max })
          [ 1; 8 ])
      [ 10.; 20.; 40.; 80.; 160. ]
  in
  print_endline "\n== Transaction server saturation sweep ==";
  Format.printf "%a@?" S.pp_table results;
  let path = "BENCH_server.json" in
  J.write_file ~path
    (J.Obj
       [
         ("artifact", J.String "server");
         ("accounts", J.Int base.S.accounts);
         ("zipf_s", J.Float base.S.zipf_s);
         ("transfer_pct", J.Int base.S.transfer_pct);
         ("requests", J.Int base.S.requests);
         ("seed", J.Int (Int64.to_int base.S.seed));
         ("results", J.List (List.map S.result_to_json results));
       ]);
  Printf.printf "wrote %s\n%!" path

(* --- shards: the multi-log scaling sweep ---

   Shard counts crossed with offered TPC-A load, group commit on, on the
   simulated clock. Each shard owns a log device, so saturated throughput
   is bounded by how many log forces the engine can overlap; the artifact
   records committed throughput, syncs per committed transaction and the
   cross-shard abort rate at every point, plus the headline scaling ratio
   (peak 4-shard throughput over peak single-shard throughput). *)

let shards () =
  let module S = Rvm_server.Server in
  let module J = Rvm_obs.Json in
  let base =
    {
      S.default_config with
      S.requests = 600;
      (* Deep group commit and a queue deep enough to saturate: the sweep
         is about the committed-throughput ceiling, not admission. 10% of
         requests are two-account transfers, so cross-shard parallel
         commits are always in the mix (the JSON carries their rate). *)
      S.batch_max = 64;
      S.transfer_pct = 10;
      S.max_inflight = 64;
      S.max_queue = 1000;
    }
  in
  let loads = [ 160.; 320.; 640.; 1280.; 2560. ] in
  let shard_counts = [ 1; 2; 4 ] in
  let results =
    List.concat_map
      (fun n ->
        List.map
          (fun l -> S.run { base with S.shards = n; S.load = S.Open_loop l })
          loads)
      shard_counts
  in
  print_endline "\n== Sharded multi-log scaling sweep ==";
  Format.printf "%a@?" S.pp_table results;
  let peak n =
    List.fold_left
      (fun acc r ->
        if r.S.cfg.S.shards = n then max acc r.S.throughput_tps else acc)
      0. results
  in
  let p1 = peak 1 in
  let scaling n = if p1 > 0. then peak n /. p1 else nan in
  List.iter
    (fun n -> Printf.printf "  %d shards: peak %.0f tps (%.2fx)\n%!" n (peak n) (scaling n))
    shard_counts;
  let path = "BENCH_shards.json" in
  J.write_file ~path
    (J.Obj
       [
         ("artifact", J.String "shards");
         ("accounts", J.Int base.S.accounts);
         ("zipf_s", J.Float base.S.zipf_s);
         ("transfer_pct", J.Int base.S.transfer_pct);
         ("requests", J.Int base.S.requests);
         ("batch_max", J.Int base.S.batch_max);
         ("seed", J.Int (Int64.to_int base.S.seed));
         ("results", J.List (List.map S.result_to_json results));
         ( "scaling",
           J.Obj
             [
               ("peak_tps_1", J.Float (peak 1));
               ("peak_tps_2", J.Float (peak 2));
               ("peak_tps_4", J.Float (peak 4));
               ("speedup_2x", J.Float (scaling 2));
               ("speedup_4x", J.Float (scaling 4));
             ] );
       ]);
  Printf.printf "wrote %s\n%!" path

(* --- contention: early lock release under hot-key skew ---

   The tentpole sweep for the ELR commit pipeline: account-key skew
   crossed with {ELR off, ELR on}, closed-loop load so throughput is
   contention-bound rather than arrival-bound, 20% snapshot lookups in
   the mix. ELR-off is the classic pipeline (locks ride until the batch
   force — every hot-key successor stalls for a device sync); ELR-on
   releases at commit-spool and defers only the ack. The headline claims
   at the contention point (s >= 0.99) — strictly fewer deadlock aborts,
   >= 1.5x committed throughput, read-only p99 below write p99 — are
   bounds in Rvm_obs.Gate, checked by `rvmutl benchdiff`. One seed can
   flip an abort comparison by luck, so the sweep also reruns both arms
   on seeds 1-20 at s = 0.99 and 1.2 (80 runs of 600 requests) and
   records each seed's abort rates; the gate compares their means. *)

let contention () =
  let module S = Rvm_server.Server in
  let module J = Rvm_obs.Json in
  let base =
    {
      S.default_config with
      (* 50 accounts under deep batching is the regime the pipeline was
         built for: the hot keys are hot enough that lock-hold time —
         not arrival rate — is the throughput ceiling, and the baseline's
         force-released herd (a whole batch of waiters waking into their
         upgrade steps at once) is what drives its deadlock rate. *)
      S.accounts = 50;
      requests = 600;
      (* Closed loop: sessions re-issue as soon as their previous request
         acks, so faster commits turn directly into more throughput —
         an open loop would just drain the same arrival schedule early. *)
      load = S.Closed_loop { sessions = 24; think_us = 500. };
      batch_max = 16;
      transfer_pct = 30;
      read_pct = 20;
      max_inflight = 24;
      max_queue = 1000;
    }
  in
  let skews = [ 0.6; 0.8; 0.99; 1.2 ] in
  let results =
    List.concat_map
      (fun zipf_s ->
        List.map
          (fun elr -> S.run { base with S.zipf_s; S.elr })
          [ false; true ])
      skews
  in
  print_endline "\n== Contention sweep: early lock release vs. skew ==";
  Format.printf "%a@?" S.pp_table results;
  let cell ~zipf_s ~elr =
    List.find
      (fun r -> r.S.cfg.S.zipf_s = zipf_s && r.S.cfg.S.elr = elr)
      results
  in
  List.iter
    (fun s ->
      let off = cell ~zipf_s:s ~elr:false and on = cell ~zipf_s:s ~elr:true in
      Printf.printf
        "  s=%-4g  tps %6.0f -> %6.0f (%.2fx)  abort-rate %.3f -> %.3f  \
         read-p99 %6.0f us vs write-p99 %6.0f us\n%!"
        s off.S.throughput_tps on.S.throughput_tps
        (on.S.throughput_tps /. off.S.throughput_tps)
        off.S.abort_rate on.S.abort_rate on.S.read_p99_latency_us
        on.S.p99_latency_us)
    skews;
  let sweep =
    List.concat_map
      (fun zipf_s ->
        List.map
          (fun seed ->
            let rate elr =
              (S.run { base with S.zipf_s; elr; seed = Int64.of_int seed })
                .S.abort_rate
            in
            (seed, zipf_s, rate true, rate false))
          (List.init 20 (fun i -> i + 1)))
      [ 0.99; 1.2 ]
  in
  List.iter
    (fun s ->
      let cells = List.filter (fun (_, z, _, _) -> z = s) sweep in
      let n = float_of_int (List.length cells) in
      let mean f = List.fold_left (fun acc c -> acc +. f c) 0. cells /. n in
      Printf.printf
        "  s=%-4g  seeds 1-20: ELR aborts less in %d of %d, mean abort-rate \
         %.4f -> %.4f\n%!"
        s
        (List.length (List.filter (fun (_, _, on, off) -> on < off) cells))
        (List.length cells)
        (mean (fun (_, _, _, off) -> off))
        (mean (fun (_, _, on, _) -> on)))
    [ 0.99; 1.2 ];
  let path = "BENCH_contention.json" in
  J.write_file ~path
    (J.Obj
       [
         ("artifact", J.String "contention");
         ("accounts", J.Int base.S.accounts);
         ("requests", J.Int base.S.requests);
         ("transfer_pct", J.Int base.S.transfer_pct);
         ("read_pct", J.Int base.S.read_pct);
         ("batch_max", J.Int base.S.batch_max);
         ( "sessions",
           J.Int
             (match base.S.load with
             | S.Closed_loop { sessions; _ } -> sessions
             | S.Open_loop _ -> 0) );
         ("seed", J.Int (Int64.to_int base.S.seed));
         ("results", J.List (List.map S.result_to_json results));
         ( "seed_sweep",
           J.List
             (List.map
                (fun (seed, zipf_s, on, off) ->
                  J.Obj
                    [
                      ("seed", J.Int seed);
                      ("zipf_s", J.Float zipf_s);
                      ("elr_abort_rate", J.Float on);
                      ("elr_off_abort_rate", J.Float off);
                    ])
                sweep) );
       ]);
  Printf.printf "wrote %s\n%!" path

(* --- truncation: background reclamation vs. the pause pathology ---

   One long TPC-A run per arm, all timing simulated, log small enough to
   wrap many times. Three arms: "background" (the scheduler's quantum-loop
   truncator slot — the point of the refactor), "inline" (the classic
   commit-path trigger: the crossing transaction pays the whole sweep, the
   Camelot pathology the paper attacks), and "disabled" (a log so large
   occupancy never reaches the threshold — the no-truncation floor the
   headline p99 ratio, bounded at 1.25x in Rvm_obs.Gate, compares
   against). *)

let truncation () =
  let module S = Rvm_server.Server in
  let module H = Rvm_obs.Histogram in
  let module J = Rvm_obs.Json in
  let requests = 100_000 in
  let load = 160. in
  let small_log = 4 * 1024 * 1024 in
  let huge_log = 256 * 1024 * 1024 in
  print_endline "\n== Background truncation: p99 vs. the pause pathology ==";
  let arm (name, log_size, background) =
    let cfg =
      {
        S.default_config with
        S.requests;
        S.load = S.Open_loop load;
        S.batch_max = 8;
        S.max_inflight = 16;
        S.max_queue = 200;
        S.log_size;
        S.background_truncation = background;
      }
    in
    let w = S.build_world cfg in
    let r = S.reduce cfg w (S.serve w (S.scheduler_of cfg w)) in
    let p99 = r.S.p99_latency_us in
    let bytes =
      Array.fold_left
        (fun acc d ->
          acc + d.Rvm_disk.Device.stats.Rvm_disk.Device.bytes_written)
        0 w.S.log_devs
    in
    let wraps = float_of_int bytes /. float_of_int log_size in
    let hist name =
      List.assoc_opt name (Rvm_obs.Registry.histograms w.S.obs)
    in
    let pauses, pause_max_us, pause_p99_us =
      match hist "truncation.pause.us" with
      | Some h when H.count h > 0 ->
        (H.count h, H.max_value h, H.percentile h 99.)
      | _ -> (0, 0., 0.)
    in
    let steps =
      match hist "truncation.steps.per.quantum" with
      | Some h -> int_of_float (H.sum h)
      | None -> 0
    in
    Printf.printf
      "  %-10s %6d committed %4d shed  p99 %8.0f us  wraps %5.1f  \
       pauses %4d (max %.0f us)  steps %d\n%!"
      name r.S.committed r.S.shed p99 wraps pauses pause_max_us steps;
    ( p99,
      J.Obj
        [
          ("arm", J.String name);
          ("log_size", J.Int log_size);
          ("background_truncation", J.Bool background);
          ("committed", J.Int r.S.committed);
          ("shed", J.Int r.S.shed);
          ("p99_latency_us", J.Float p99);
          ("log_wraps", J.Float wraps);
          ("truncation_pauses", J.Int pauses);
          ("truncation_pause_max_us", J.Float pause_max_us);
          ("truncation_pause_p99_us", J.Float pause_p99_us);
          ("truncation_steps", J.Int steps);
        ] )
  in
  let arms =
    List.map arm
      [
        ("background", small_log, true);
        ("inline", small_log, false);
        ("disabled", huge_log, true);
      ]
  in
  let p99_on = fst (List.nth arms 0) and p99_off = fst (List.nth arms 2) in
  let ratio = if p99_off > 0. then p99_on /. p99_off else nan in
  Printf.printf "  p99 background/disabled ratio %.3f\n%!" ratio;
  let path = "BENCH_truncation.json" in
  J.write_file ~path
    (J.Obj
       [
         ("artifact", J.String "truncation");
         ("requests", J.Int requests);
         ("offered_tps", J.Float load);
         ("arms", J.List (List.map snd arms));
         ("p99_ratio_background_over_disabled", J.Float ratio);
         ("gate_max_ratio", J.Float 1.25);
       ]);
  Printf.printf "wrote %s\n%!" path

(* --- ycsb: the recoverable ordered map as a storage engine ---

   The YCSB mixes A-F over the B-tree in the Rds heap, each mix bulk-loaded
   with the same key population and served through the scheduler at a fixed
   offered load, with vm_sim paging pressure (a quarter of the heap
   resident). Simulated clock + fixed seed = byte-reproducible JSON. Each
   row carries its serial-reference verdict: whether the mix's final tree
   equals a replay of its committed operations in commit order. A false
   verdict fails the artifact's bound in Rvm_obs.Gate. The default
   population is the paper-scale 10^6 keys, bulk-loaded bottom-up for
   each mix; BENCH_YCSB_RECORDS=20000 gives a quick run. *)

let ycsb () =
  let module Y = Rvm_server.Ycsb_run in
  let module S = Rvm_server.Server in
  let module W = Rvm_workload.Ycsb in
  let module J = Rvm_obs.Json in
  let getenv_int name default =
    match Sys.getenv_opt name with Some s -> int_of_string s | None -> default
  in
  let records = getenv_int "BENCH_YCSB_RECORDS" 1_000_000 in
  let requests = getenv_int "BENCH_YCSB_REQUESTS" 400 in
  let base =
    {
      Y.default_config with
      Y.records;
      requests;
      load = S.Open_loop 80.;
      batch_max = 8;
    }
  in
  let mixes = [ W.A; W.B; W.C; W.D; W.E; W.F ] in
  Printf.printf "\n== YCSB sweep: mixes A-F over %d records ==\n%!" records;
  let results = List.map (fun mix -> Y.run { base with Y.mix }) mixes in
  Format.printf "%a@?" Y.pp_table results;
  let path = "BENCH_ycsb.json" in
  J.write_file ~path
    (J.Obj
       [
         ("artifact", J.String "ycsb");
         ("records", J.Int records);
         ("requests", J.Int requests);
         ("value_len", J.Int base.Y.value_len);
         ("degree", J.Int base.Y.degree);
         ("mem_fraction", J.Float base.Y.mem_fraction);
         ("seed", J.Int (Int64.to_int base.Y.seed));
         ("results", J.List (List.map Y.result_to_json results));
       ]);
  Printf.printf "wrote %s\n%!" path

(* --- baseline: device efficiency of the engine commit path ---

   Writes and syncs per committed transaction for every-commit flush and
   64-commit groups, on memory devices, so host speed is irrelevant. Then
   the recovery of the grouped case's log and segment images: bytes read
   from the log against its live bytes, segment bytes written, and
   simulated seconds in all and per phase; and the same for the grouped
   pattern on two shards, per log. No other artifact measures the
   engine's own device traffic; `rvmutl benchdiff` gates
   BENCH_baseline.json like every other artifact. *)

let copy d = Rvm_disk.Mem_device.(of_bytes (snapshot d))

let live_bytes log_dev =
  match Rvm_log.Log_manager.open_log (copy log_dev) with
  | Ok lm -> Rvm_log.Log_manager.used_bytes lm
  | Error e -> failwith e

(* A copy of a log and of a segment image behind the dec5000 latency
   stacks on [clock]. The data disk writes back whole 4 KiB pages, as the
   repo benchmark's crash-recover stack does. *)
let recovery_stacks ~clock ~log_dev ~seg_dev =
  let module Cm = Rvm_util.Cost_model in
  ( Rvm_disk.Stack.with_latency ~clock ~disk:Cm.dec5000.Cm.log_disk ()
      (copy log_dev),
    Rvm_disk.Stack.with_latency ~seek_fraction:0.08 ~sector:4096 ~clock
      ~disk:Cm.dec5000.Cm.data_disk () (copy seg_dev) )

(* Recover copies of the two images on a fresh simulated clock. *)
let recovery_row ~log_dev ~seg_dev =
  let module J = Rvm_obs.Json in
  let module Cm = Rvm_util.Cost_model in
  let live = live_bytes log_dev in
  let clock = Rvm_util.Clock.simulated () in
  let log, seg = recovery_stacks ~clock ~log_dev ~seg_dev in
  let obs = Rvm_obs.Registry.create () in
  ignore
    (Rvm_core.Rvm.initialize ~clock ~model:Cm.dec5000 ~obs ~log
       ~resolve:(fun _ -> seg) ());
  let count name =
    Rvm_obs.Counter.get (Rvm_obs.Registry.counter obs name)
  in
  let span_s name =
    Rvm_obs.Histogram.sum (Rvm_obs.Registry.histogram obs (name ^ ".us"))
    /. 1e6
  in
  let read = count "disk.log.bytes_read" in
  let sim_s = Rvm_util.Clock.now_us clock /. 1e6 in
  Printf.printf "  recovery %d log bytes read for %d live, %.4f s simulated\n%!"
    read live sim_s;
  J.Obj
    [
      ("log_bytes_read", J.Int read);
      ("live_log_bytes", J.Int live);
      ("seg_bytes_written", J.Int (count "disk.seg.bytes_written"));
      ("recovery_sim_s", J.Float sim_s);
      ("open_sim_s", J.Float (span_s "log.open"));
      ("plan_sim_s", J.Float (span_s "recovery.plan"));
      ("apply_sim_s", J.Float (span_s "recovery.apply"));
      ("reset_sim_s", J.Float (span_s "recovery.reset"));
    ]

(* The same recovery on two shards. The grouped pattern runs on a
   2-shard engine whose every tenth commit is cross-shard, then one more
   no-flush cross-shard commit is made durable by a flushed commit on each
   shard, so recovery has resolutions to append. Copies of the crash
   images (nothing is terminated) recover through [Multi.initialize]:
   each log's reads against its live bytes, and the whole recovery's
   segment bytes and simulated seconds. *)
let sharded_recovery_row ~txns ~batch =
  let module J = Rvm_obs.Json in
  let module Multi = Rvm_shard.Multi in
  let module T = Rvm_core.Types in
  let mem size = Rvm_disk.Mem_device.create ~size () in
  let logs = Array.init 2 (fun _ -> mem (8 * 1024 * 1024)) in
  let segs = Array.init 2 (fun _ -> mem (1024 * 1024)) in
  Multi.create_logs logs;
  let routing = Rvm_shard.Routing.of_table ~shards:2 [ (1, 0); (2, 1) ] in
  let m =
    Multi.initialize ~routing ~logs ~resolve:(fun id -> segs.(id - 1)) ()
  in
  let base =
    Array.init 2 (fun s ->
        (Multi.map m ~seg:(s + 1) ~seg_off:0 ~len:(512 * 1024) ())
          .Rvm_core.Region.vaddr)
  in
  let payload = Bytes.make 256 'g' in
  let commit i shards ~mode =
    let g = Multi.begin_transaction m ~mode:T.No_restore in
    List.iter
      (fun s -> Multi.modify m g ~addr:(base.(s) + (i mod 1000 * 320)) payload)
      shards;
    Multi.end_transaction m g ~mode
  in
  for i = 1 to txns do
    commit i (if i mod 10 = 0 then [ 0; 1 ] else [ i mod 2 ]) ~mode:T.No_flush;
    if i mod batch = 0 then Multi.flush m
  done;
  commit 0 [ 0; 1 ] ~mode:T.No_flush;
  commit 1 [ 0 ] ~mode:T.Flush;
  commit 2 [ 1 ] ~mode:T.Flush;
  let live = Array.map live_bytes logs in
  let clock = Rvm_util.Clock.simulated () in
  let stacks =
    Array.map2 (fun log_dev seg_dev -> recovery_stacks ~clock ~log_dev ~seg_dev)
      logs segs
  in
  let obs = Rvm_obs.Registry.create () in
  ignore
    (Multi.initialize ~clock ~model:Rvm_util.Cost_model.dec5000 ~obs ~routing
       ~logs:(Array.map fst stacks)
       ~resolve:(fun id -> snd stacks.(id - 1))
       ());
  let read =
    Array.map
      (fun ((log : Rvm_disk.Device.t), _) ->
        log.Rvm_disk.Device.stats.Rvm_disk.Device.bytes_read)
      stacks
  in
  let sim_s = Rvm_util.Clock.now_us clock /. 1e6 in
  Array.iteri
    (fun i r ->
      Printf.printf "  shard %d recovery %d log bytes read for %d live\n%!" i r
        live.(i))
    read;
  Printf.printf "  2-shard recovery %.4f s simulated\n%!" sim_s;
  J.Obj
    [
      ( "logs",
        J.List
          (Array.to_list
             (Array.mapi
                (fun i r ->
                  J.Obj
                    [
                      ("log_bytes_read", J.Int r);
                      ("live_log_bytes", J.Int live.(i));
                    ])
                read)) );
      ( "seg_bytes_written",
        J.Int
          (Rvm_obs.Counter.get
             (Rvm_obs.Registry.counter obs "disk.seg.bytes_written")) );
      ("recovery_sim_s", J.Float sim_s);
    ]

let baseline () =
  let module J = Rvm_obs.Json in
  let txns = 2000 in
  let grouped = ref None in
  let cases =
    List.map
      (fun (name, batch) ->
        let log_dev = Rvm_disk.Mem_device.create ~size:(8 * 1024 * 1024) () in
        let seg_dev = Rvm_disk.Mem_device.create ~size:(1024 * 1024) () in
        let rvm, writes, syncs = commit_loop ~log_dev ~seg_dev ~txns ~batch in
        Rvm_core.Rvm.terminate rvm;
        if batch > 1 then grouped := Some (log_dev, seg_dev);
        let per n = float_of_int n /. float_of_int txns in
        Printf.printf "  %-8s %.4f writes/txn  %.4f syncs/txn\n%!" name
          (per writes) (per syncs);
        ( name,
          J.Obj
            [
              ("device_writes_per_txn", J.Float (per writes));
              ("device_syncs_per_txn", J.Float (per syncs));
            ] ))
      [ ("flush", 1); ("grouped", 64) ]
  in
  let log_dev, seg_dev = Option.get !grouped in
  let recovery = recovery_row ~log_dev ~seg_dev in
  let sharded_recovery = sharded_recovery_row ~txns ~batch:64 in
  let path = "BENCH_baseline.json" in
  J.write_file ~path
    (J.Obj
       [
         ("artifact", J.String "baseline");
         ("txns", J.Int txns);
         ( "metrics",
           J.Obj
             (cases
             @ [
                 ("recovery", recovery);
                 ("sharded_recovery", sharded_recovery);
               ]) );
       ]);
  Printf.printf "wrote %s\n%!" path

(* Every artifact, in the order [all] and [full] run them in one
   process, under the names that select it alone; [trials] and [measure]
   size the table1 family. [micro] runs last, and not for tidiness:
   Bechamel compacts the heap before every sample, and on OCaml 5.1 the
   automatic major GC then stays idle for a long time: the table1
   family run after [micro] peaked at 5.1 GB with no major collection,
   against 141 MB without it (EXPERIMENTS.md). *)
let artifacts ~trials ~measure =
  [
    ([ "table2" ], run_table2);
    ( [ "ablation-truncation" ],
      fun () -> Harness.Ablation.truncation_modes () );
    ([ "ablation-opt" ], Harness.Ablation.optimizations);
    ([ "ablation-modes" ], Harness.Ablation.commit_modes);
    ([ "ablation-startup" ], Harness.Ablation.startup_latency);
    ([ "server" ], server);
    ([ "shards" ], shards);
    ([ "contention" ], contention);
    ([ "truncation" ], truncation);
    ([ "ycsb" ], ycsb);
    ([ "baseline" ], baseline);
    ( [ "table1"; "fig8"; "fig9" ],
      fun () -> run_table1_family ~trials ~measure );
    ([ "micro" ], micro);
  ]

let () =
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let run_all ~trials ~measure =
    List.iter (fun (_, run) -> run ()) (artifacts ~trials ~measure)
  in
  match what with
  | "all" -> run_all ~trials:2 ~measure:2500
  | "full" -> run_all ~trials:5 ~measure:8000
  | name -> (
    let listed = artifacts ~trials:3 ~measure:3000 in
    match List.find_opt (fun (names, _) -> List.mem name names) listed with
    | Some (_, run) -> run ()
    | None ->
      Printf.eprintf "unknown artifact %S (try: all, full, %s)\n" name
        (String.concat ", " (List.concat_map fst listed));
      exit 2)
