(* The crash-point explorer, exercised as part of the tier-1 suite.

   Three angles: (1) exhaustive exploration of generated ≤20-op workloads
   across several seeds must report zero contract violations on the real
   implementation; (2) the enumeration itself must cover every write/sync
   boundary and give every straddling write at least 4 torn variants — the
   coverage the safety net promises future perf PRs; (3) mutation
   detection: seeding a deliberate recovery bug (skipping log record
   verification) must produce violations, and the shrinker must reduce the
   witness workload to a handful of ops. *)

open Rvm_core
module Explorer = Rvm_check.Explorer
module Workload = Rvm_check.Workload
module Shrink = Rvm_check.Shrink
module Model = Rvm_check.Model
module Crash = Rvm_check.Crash
module Record = Rvm_log.Record
module Rng = Rvm_util.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let config ?(exhaustive = true) ?(sector = 512) ?(mode = Types.Epoch) () =
  {
    Explorer.default_config with
    Explorer.core =
      { Explorer.default_config.Explorer.core with Crash.exhaustive; sector };
    truncation_mode = mode;
  }

let gen ~seed ~ops = Workload.generate ~rng:(Rng.create ~seed) ~ops ~shards:1 ()

let assert_clean outcome =
  if outcome.Crash.violations <> [] then
    Alcotest.failf "explorer found violations:@.%s" (Crash.summary outcome)

let test_honest_epoch () =
  List.iter
    (fun seed ->
      let ops = gen ~seed ~ops:20 in
      let outcome = Explorer.run ~config:(config ()) ops in
      assert_clean outcome;
      check_bool "explored torn variants" true
        (outcome.Crash.torn_variants > 0))
    [ 1L; 2L; 3L; 4L; 5L ]

let test_honest_incremental () =
  List.iter
    (fun seed ->
      let ops = gen ~seed ~ops:20 in
      assert_clean
        (Explorer.run ~config:(config ~mode:Types.Incremental ()) ops))
    [ 1L; 2L; 3L ]

let test_honest_small_sector () =
  (* 64-byte sectors make nearly every log record straddle, so torn-record
     rejection is exercised hard. *)
  let ops = gen ~seed:7L ~ops:20 in
  assert_clean (Explorer.run ~config:(config ~sector:64 ()) ops)

(* The buffered tail turns many small appends into few big drain writes, so
   tearing a drain write can cut several records at once — the crash shape
   a per-record write path never produces. The run must hold the
   commit-prefix contract, and must actually batch: fewer log-device
   writes than records committed. *)
let test_honest_group_commit () =
  List.iter
    (fun seed ->
      let ops = gen ~seed ~ops:20 in
      let o = Explorer.run ~config:(config ~sector:64 ()) ops in
      assert_clean o;
      let log_writes =
        List.length
          (List.filter
             (fun (w : Crash.write_point) -> w.Crash.dev = "log")
             o.Crash.write_points)
      in
      check_bool
        (Printf.sprintf "%d log writes < %d committed records" log_writes
           o.Crash.commits)
        true
        (log_writes < o.Crash.commits))
    [ 11L; 12L ]

(* Mid-truncation exploration: workloads carry [Step] ops that advance the
   background truncator one bounded unit at a time, with commits landing
   between steps while a reclamation run is suspended. The explorer then
   crashes at every device event those steps issue (torn variants
   included) — every truncator step boundary is a crash point. Both modes
   must hold the commit-prefix contract, and the run must prove the steps
   actually did device work: with [auto_truncate] off, the only segment
   writes in the workload run come from truncation applying pages. *)
let test_honest_mid_truncation () =
  List.iter
    (fun (mode, seed) ->
      let cfg =
        {
          (config ~mode ()) with
          Explorer.mid_truncation = true;
          log_size = 16 * 1024;
        }
      in
      let ops =
        Workload.generate ~mid_truncation:true
          ~rng:(Rng.create ~seed)
          ~ops:20 ~shards:1 ()
      in
      check_bool "generator emitted Step ops" true
        (List.exists
           (function Workload.Step _ -> true | _ -> false)
           ops);
      let o = Explorer.run ~config:cfg ops in
      assert_clean o;
      check_bool "truncation steps wrote segment pages" true
        (List.exists
           (fun (w : Crash.write_point) -> w.Crash.dev = "seg")
           o.Crash.write_points))
    [
      (Types.Epoch, 3L);
      (Types.Epoch, 5L);
      (Types.Incremental, 3L);
      (Types.Incremental, 7L);
    ]

(* Crafted mid-truncation workload: fill past the (tiny) threshold, then
   alternate single truncator steps with fresh flush-mode commits so every
   commit after the first Step lands inside a suspended reclamation run.
   Crashing anywhere — including torn inside the pages the truncator
   writes — must still recover every flushed commit. *)
let test_mid_truncation_interleaved_commits () =
  let commit off c =
    Workload.Commit
      { shard = 0; ranges = [ (off, 300, c) ]; mode = Types.Flush }
  in
  let ops =
    [
      commit 0 'A';
      commit 512 'B';
      Workload.Step 1;
      commit 1024 'C';
      Workload.Step 1;
      commit 1536 'D';
      Workload.Step 2;
      commit 0 'E';
      Workload.Step 3;
      Workload.Flush;
    ]
  in
  List.iter
    (fun mode ->
      let cfg =
        {
          (config ~mode ()) with
          Explorer.mid_truncation = true;
          log_size = 16 * 1024;
        }
      in
      let o = Explorer.run ~config:cfg ops in
      assert_clean o;
      check_bool "steps performed segment writes" true
        (List.exists
           (fun (w : Crash.write_point) -> w.Crash.dev = "seg")
           o.Crash.write_points))
    [ Types.Epoch; Types.Incremental ]

(* Acceptance: for a 20-op generated workload the explorer enumerates every
   write/sync boundary, and every straddling write of at least 5 bytes gets
   at least 4 torn variants. *)
let test_enumeration_coverage () =
  let cfg = config () in
  let ops = gen ~seed:1L ~ops:20 in
  let o = Explorer.run ~config:cfg ops in
  check_int "one crash point per event boundary" (o.Crash.events + 1)
    o.Crash.boundaries;
  check_int "every write event accounted for" o.Crash.writes
    (List.length o.Crash.write_points);
  let straddling = ref 0 in
  List.iter
    (fun (w : Crash.write_point) ->
      let sector = cfg.Explorer.core.Crash.sector in
      let straddles = w.Crash.off + w.Crash.len > (w.Crash.off / sector + 1) * sector in
      if straddles && w.Crash.len >= 5 then begin
        incr straddling;
        if w.Crash.variants < 4 then
          Alcotest.failf "write %d (%s, off %d, len %d) got only %d torn variants"
            w.Crash.event w.Crash.dev w.Crash.off w.Crash.len
            w.Crash.variants
      end
      else if not straddles then
        check_int "single-sector writes are atomic" 0 w.Crash.variants)
    o.Crash.write_points;
  check_bool "workload produced straddling writes" true (!straddling > 0);
  check_int "torn variants sum over writes" o.Crash.torn_variants
    (List.fold_left
       (fun a (w : Crash.write_point) -> a + w.Crash.variants)
       0 o.Crash.write_points)

let test_torn_positions () =
  let pos = Crash.torn_positions ~sector:512 ~exhaustive:true ~max_per_write:12 in
  check_int "aligned single sector is atomic" 0
    (List.length (pos ~off:0 ~len:512));
  check_int "unaligned but within one sector is atomic" 0
    (List.length (pos ~off:100 ~len:300));
  (* 1200 bytes at 512: boundaries at 512 and 1024, topped up to >= 4. *)
  let p = pos ~off:512 ~len:1200 in
  check_bool "straddling write gets >= 4" true (List.length p >= 4);
  List.iter
    (fun k -> check_bool "interior" true (k > 0 && k < 1200))
    p;
  check_bool "sector boundaries included" true
    (List.mem 512 p && List.mem 1024 p);
  (* Capping keeps at least 4 and stays sorted/unique. *)
  let capped =
    Crash.torn_positions ~sector:16 ~exhaustive:false ~max_per_write:6
      ~off:0 ~len:1024
  in
  check_bool "capped size" true (List.length capped <= 6);
  check_bool "capped still >= 4" true (List.length capped >= 4)

let test_model_prefixes () =
  let m = Model.create ~shards:1 ~region_len:16 in
  Model.commit m ~shard:0 [ (0, Bytes.of_string "AAAA") ];
  Model.commit m ~shard:0 [ (2, Bytes.of_string "BB") ];
  check_int "commits" 2 (Model.entries m 0);
  let matches ~durable img =
    Model.matches m { Model.counts = [| durable |]; ids = [] } [| img |]
  in
  let img = Bytes.make 16 '\000' in
  Bytes.blit_string "AABB" 0 img 0 4;
  check_bool "full prefix" true (matches ~durable:0 img);
  Bytes.blit_string "AAAA" 0 img 0 4;
  check_bool "prefix below durable floor rejected" false
    (matches ~durable:2 img);
  check_bool "prefix above floor accepted" true (matches ~durable:0 img);
  Bytes.set img 9 'X';
  check_bool "partial state matches nothing" false (matches ~durable:0 img)

(* Seed a deliberate recovery bug — decode accepting unverified (torn)
   records — and demonstrate that the explorer catches it and the shrinker
   produces a small counterexample. *)
let test_mutation_detected () =
  (* 64-byte sectors so the ~300-byte commit records straddle and get torn
     inside their range data, where skipped verification turns a vanishing
     torn append into silently applied garbage. *)
  let cfg = config ~sector:64 ()
  and ops =
    [
      Workload.Commit
        { shard = 0; ranges = [ (0, 200, 'A') ]; mode = Types.Flush };
      Workload.Commit
        { shard = 0; ranges = [ (64, 200, 'B') ]; mode = Types.Flush };
      Workload.Commit
        { shard = 0; ranges = [ (32, 200, 'C') ]; mode = Types.Flush };
    ]
  in
  (* The real implementation passes this workload... *)
  assert_clean (Explorer.run ~config:cfg ops);
  Record.with_unverified (fun () ->
      (* ... and the mutant does not. *)
      let o = Explorer.run ~config:cfg ops in
      check_bool "mutation detected" true (o.Crash.violations <> []);
      let shrunk =
        Shrink.minimize ~edits:Explorer.edits
          ~check:(Explorer.violates ~config:cfg)
          ops
      in
      check_bool "shrunk workload still violates" true
        (Explorer.violates ~config:cfg shrunk);
      check_bool
        (Printf.sprintf "counterexample has %d op(s) <= 5"
           (List.length shrunk))
        true
        (List.length shrunk <= 5))

(* A counterexample must arrive with its flight-recorder tail: the spans
   the engine closed just before the fatal crash point, so the report shows
   what the system was doing, not just which device event it died at. *)
let test_violation_tail () =
  let cfg = config ~sector:64 ()
  and ops =
    [
      Workload.Commit
        { shard = 0; ranges = [ (0, 200, 'A') ]; mode = Types.Flush };
      Workload.Commit
        { shard = 0; ranges = [ (64, 200, 'B') ]; mode = Types.Flush };
      Workload.Commit
        { shard = 0; ranges = [ (32, 200, 'C') ]; mode = Types.Flush };
      Workload.Commit
        { shard = 0; ranges = [ (96, 200, 'D') ]; mode = Types.Flush };
    ]
  in
  Record.with_unverified (fun () ->
      let o = Explorer.run ~config:cfg ops in
      check_bool "violations found" true (o.Crash.violations <> []);
      check_bool "a violation carries a full 16-span tail" true
        (List.exists
           (fun v -> List.length v.Crash.tail >= 16)
           o.Crash.violations);
      let v =
        List.hd
          (List.sort
             (fun a b ->
               compare (List.length b.Crash.tail)
                 (List.length a.Crash.tail))
             o.Crash.violations)
      in
      (* Tail spans come from the engine run that produced the crash
         image: commit spans for the workload's transactions. *)
      check_bool "tail includes engine spans" true
        (List.exists
           (fun s -> s.Rvm_obs.Trace.scope = "txn.commit")
           v.Crash.tail);
      let rendered = Format.asprintf "%a" Crash.pp_violation v in
      let contains needle =
        let nl = String.length needle and hl = String.length rendered in
        let rec go i =
          i + nl <= hl && (String.sub rendered i nl = needle || go (i + 1))
        in
        go 0
      in
      check_bool "report renders the flight recorder" true
        (contains "flight recorder");
      check_bool "report renders commit spans" true (contains "txn.commit"))

(* The same workload explored twice yields the identical outcome — the
   determinism the seed-based CLI reproduction relies on. *)
let test_deterministic () =
  let ops = gen ~seed:9L ~ops:15 in
  let o1 = Explorer.run ~config:(config ()) ops
  and o2 = Explorer.run ~config:(config ()) ops in
  check_int "events" o1.Crash.events o2.Crash.events;
  check_int "boundaries" o1.Crash.boundaries o2.Crash.boundaries;
  check_int "torn variants" o1.Crash.torn_variants o2.Crash.torn_variants;
  check_int "recoveries" o1.Crash.recoveries o2.Crash.recoveries;
  check_int "violations" 0
    (List.length o1.Crash.violations + List.length o2.Crash.violations)

(* The explorer's correctness rests on the recorded trace being a function
   of the workload alone. Interposing extra combinator layers (a stats
   pass-through and a disarmed fault layer) between the trace wrapper and
   the store must leave the event sequence bit-for-bit identical. *)
let test_trace_through_combinators () =
  let module Mem_device = Rvm_disk.Mem_device in
  let module Trace_device = Rvm_disk.Trace_device in
  let module Stack = Rvm_disk.Stack in
  let run_traced ~layers =
    let log_mem = Mem_device.create ~name:"eq-log" ~size:(64 * 1024) () in
    let seg_mem = Mem_device.create ~name:"eq-seg" ~size:8192 () in
    Rvm.create_log log_mem;
    let recorder = Trace_device.create_recorder () in
    let tlog = Trace_device.wrap recorder (Stack.compose layers log_mem) in
    let tseg = Trace_device.wrap recorder (Stack.compose layers seg_mem) in
    let rvm =
      Rvm.reinitialize ~log:(Trace_device.device tlog)
        ~resolve:(fun _ -> Trace_device.device tseg)
        ()
    in
    let region = Rvm.map rvm ~seg:1 ~seg_off:0 ~len:8192 () in
    let base = region.Region.vaddr in
    for i = 0 to 5 do
      let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
      Rvm.set_range rvm tid ~addr:(base + (i * 512)) ~len:64;
      Rvm.store rvm ~addr:(base + (i * 512)) (Bytes.make 64 (Char.chr (65 + i)));
      Rvm.end_transaction rvm tid
        ~mode:(if i mod 2 = 0 then Types.Flush else Types.No_flush)
    done;
    Rvm.flush rvm;
    Rvm.truncate rvm;
    Trace_device.events recorder
  in
  let plain = run_traced ~layers:[] in
  let stacked =
    let obs = Rvm_obs.Registry.create () in
    run_traced
      ~layers:
        [ Stack.with_faults (Stack.faults ()); Stack.with_stats ~obs () ]
  in
  check_int "same event count" (Array.length plain) (Array.length stacked);
  check_bool "identical traces through combinator layers" true
    (plain = stacked)

(* --- the B-tree structural explorer --- *)

module Btree_check = Rvm_check.Btree_check

let test_btree_clean_and_covered () =
  let o = Btree_check.run () in
  (if o.Crash.violations <> [] then
     let v = List.hd o.Crash.violations in
     Alcotest.failf "btree explorer: %d violations; first at upto=%d torn=%s: %s"
       (List.length o.Crash.violations)
       v.Crash.crash.Crash.upto
       (match v.Crash.crash.Crash.torn with
       | Some t -> string_of_int t
       | None -> "-")
       v.Crash.reason);
  check_bool "covered splits" true (Crash.counter o "splits" > 0);
  check_bool "covered merges" true (Crash.counter o "merges" > 0);
  check_bool "covered borrows" true (Crash.counter o "borrows" > 0);
  check_bool "torn variants enumerated" true (o.Crash.torn_variants > 0);
  check_int "boundary per event plus start" (o.Crash.events + 1)
    o.Crash.boundaries;
  check_bool "durable prefix advanced" true (Crash.counter o "known durable" > 0);
  check_bool "commits recorded" true (o.Crash.commits >= 8)

let test_btree_deterministic () =
  let a = Btree_check.run () and b = Btree_check.run () in
  check_int "events" a.Crash.events b.Crash.events;
  check_int "recoveries" a.Crash.recoveries b.Crash.recoveries;
  check_int "torn variants" a.Crash.torn_variants
    b.Crash.torn_variants

let test_btree_small_sector () =
  (* A smaller atomicity unit multiplies torn variants; the tree must
     still recover whole everywhere. *)
  let o =
    Btree_check.run
      ~config:
        {
          Btree_check.core =
            { Btree_check.default_config.Btree_check.core with Crash.sector = 64 };
        }
      ()
  in
  check_int "clean at sector 64" 0 (List.length o.Crash.violations);
  check_bool "more torn variants" true (o.Crash.torn_variants > 100)

(* Seeded recovery bug (torn records accepted unverified) under 64-byte
   sectors: the B-tree explorer must flag it, a violation must carry the
   flight-recorder tail of the engine run, and the op list the core
   shrinker returns must still violate. *)
let test_btree_mutation_detected () =
  let config =
    {
      Btree_check.core =
        { Btree_check.default_config.Btree_check.core with Crash.sector = 64 };
    }
  in
  Record.with_unverified (fun () ->
      let o = Btree_check.run ~config () in
      check_bool "mutation detected" true (o.Crash.violations <> []);
      check_bool "a violation carries a tail with txn.commit" true
        (List.exists
           (fun v ->
             List.exists
               (fun s -> s.Rvm_obs.Trace.scope = "txn.commit")
               v.Crash.tail)
           o.Crash.violations);
      let shrunk =
        Shrink.minimize
          ~check:(Btree_check.violates ~config)
          Btree_check.default_ops
      in
      check_bool "shrunk workload still violates" true
        (Btree_check.violates ~config shrunk))

(* A sector size of zero is rejected up front by every explorer, not
   discovered as a division by zero mid-enumeration. *)
let test_sector_validated () =
  let zero (c : Crash.config) = { c with Crash.sector = 0 } in
  let raises name f =
    match f () with
    | (_ : Crash.outcome) -> Alcotest.failf "%s accepted sector 0" name
    | exception Invalid_argument _ -> ()
  in
  raises "Explorer" (fun () ->
      Explorer.run
        ~config:
          {
            Explorer.default_config with
            Explorer.core = zero Explorer.default_config.Explorer.core;
          }
        [ Workload.Flush ]);
  raises "Explorer on 2 shards" (fun () ->
      let config = Explorer.for_shards 2 in
      Explorer.run
        ~config:{ config with Explorer.core = zero config.Explorer.core }
        [ Workload.Flush ]);
  raises "Elr_check" (fun () ->
      let module Ec = Rvm_check.Elr_check in
      Ec.run
        ~config:
          { Ec.default_config with Ec.core = zero Ec.default_config.Ec.core }
        ());
  raises "Btree_check" (fun () ->
      Btree_check.run
        ~config:
          { Btree_check.core = zero Btree_check.default_config.Btree_check.core }
        ())

(* The smallest complete subsystem on the crash core, and the worked
   example of its API. The world builder makes and formats its devices,
   traces them, runs flush-mode commits that each stamp their sequence
   number into byte 0 of the region, and checkpoints durability; recovery
   reads byte 0 back; the oracle demands a committed value no older than
   the last durable checkpoint. *)
let tiny_world rig =
  let module Mem_device = Rvm_disk.Mem_device in
  let log_mem = Mem_device.create ~name:"tiny-log" ~size:(16 * 1024) () in
  let seg_mem = Mem_device.create ~name:"tiny-seg" ~size:4096 () in
  Rvm.create_log log_mem;
  let log = Crash.trace rig ~label:"log" log_mem in
  let seg = Crash.trace rig ~label:"seg" seg_mem in
  let rvm =
    Rvm.reinitialize ~obs:(Crash.obs rig) ~log ~resolve:(fun _ -> seg) ()
  in
  let base = (Rvm.map rvm ~seg:1 ~seg_off:0 ~len:4096 ()).Region.vaddr in
  for i = 1 to 3 do
    let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
    Rvm.modify rvm tid ~addr:base (Bytes.make 1 (Char.chr i));
    Rvm.end_transaction rvm tid ~mode:Types.Flush;
    Crash.durable rig i
  done;
  let recover images =
    let rvm =
      Rvm.reinitialize ~log:images.(0) ~resolve:(fun _ -> images.(1)) ()
    in
    let r = Rvm.map rvm ~seg:1 ~seg_off:0 ~len:4096 () in
    Char.code (Bytes.get (Rvm.load rvm ~addr:r.Region.vaddr ~len:1) 0)
  in
  let oracle (crash : Crash.crash_point) v =
    let required = Crash.required rig ~upto:crash.Crash.upto in
    if v >= required && v <= 3 then None
    else Some (Printf.sprintf "recovered commit %d, required %d" v required)
  in
  { Crash.recover; oracle; commits = 3; counters = [] }

let run_tiny () =
  Crash.run
    { Crash.sector = 512; exhaustive = true; max_torn_per_write = 12 }
    tiny_world

let test_tiny_subsystem () =
  let o = run_tiny () in
  if o.Crash.violations <> [] then
    Alcotest.failf "tiny subsystem: %s" (Crash.summary o);
  check_int "boundary per event plus start" (o.Crash.events + 1)
    o.Crash.boundaries

let suite =
  [
    ("explorer.honest-epoch", `Quick, test_honest_epoch);
    ("explorer.honest-incremental", `Quick, test_honest_incremental);
    ("explorer.honest-small-sector", `Quick, test_honest_small_sector);
    ("explorer.honest-group-commit", `Quick, test_honest_group_commit);
    ("explorer.honest-mid-truncation", `Quick, test_honest_mid_truncation);
    ( "explorer.mid-truncation-interleaved-commits",
      `Quick,
      test_mid_truncation_interleaved_commits );
    ("explorer.enumeration-coverage", `Quick, test_enumeration_coverage);
    ("explorer.torn-positions", `Quick, test_torn_positions);
    ("explorer.model-prefixes", `Quick, test_model_prefixes);
    ("explorer.mutation-detected", `Quick, test_mutation_detected);
    ("explorer.violation-tail", `Quick, test_violation_tail);
    ("explorer.deterministic", `Quick, test_deterministic);
    ("explorer.trace-through-combinators", `Quick, test_trace_through_combinators);
    ("btree.clean-and-covered", `Quick, test_btree_clean_and_covered);
    ("btree.deterministic", `Quick, test_btree_deterministic);
    ("btree.small-sector", `Quick, test_btree_small_sector);
    ("btree.mutation-detected", `Quick, test_btree_mutation_detected);
    ("crash.sector-validated", `Quick, test_sector_validated);
    ("crash.tiny-subsystem", `Quick, test_tiny_subsystem);
  ]
