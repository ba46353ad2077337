(* The early-lock-release crash explorer.

   A real server world (ELR scheduler, lock manager and its commit stamps,
   admission) runs a seeded TPC-A mix over recorder-wrapped devices; every
   crash boundary and torn-write variant is replayed through recovery and
   checked against the scheduler's own spool/ack records. Zero
   counterexamples is the acceptance bar for the ELR pipeline — in
   particular for crashes that land mid-batch, after a commit's locks
   released but before its force, where a scheduler that acked at spool
   time (or a lookup that exposed unforced state) would be caught by the
   ack-dependency check. *)

module Elr_check = Rvm_check.Elr_check
module Crash = Rvm_check.Crash

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let assert_clean o =
  if o.Crash.violations <> [] then
    Alcotest.failf "ELR explorer found violations:@.%a" Crash.pp_outcome o

(* Single shard, default mix: the run must actually exercise the machinery
   the checks exist for — early releases, snapshot reads, torn writes —
   and every crash point must recover clean. Crash boundaries strictly
   inside an open batch (between a commit's spool and its force) are
   covered by construction: every device event of the force itself is a
   boundary, and acked-but-undurable state at any of them is a violation. *)
let test_exhaustive_single_shard () =
  let o = Elr_check.run () in
  assert_clean o;
  check_bool "commits explored" true (o.Crash.commits > 0);
  check_bool "lookups explored" true (Crash.counter o "snapshot reads" > 0);
  check_bool "early releases happened" true (Crash.counter o "early releases" > 0);
  check_bool "torn variants explored" true (o.Crash.torn_variants > 0);
  check_int "boundaries = events + 1"
    (o.Crash.events + 1)
    o.Crash.boundaries

(* Two shards: transfers whose accounts route to different shards commit
   by parallel commit, so crash points now fall between one shard's
   intent force and the other's — the ELR ack-dependency rule must hold
   across those inter-shard boundaries too (the global durable horizon
   only advances when every participant's force lands). Seeds 11, 16, 20
   and 37 schedule a single-shard successor onto an account a batched
   cross-shard transfer just wrote: had the transfer released its locks
   at spool time, a crash between its two shards' forces would abort it
   while the successor's record, carrying the transfer's credit,
   survived. *)
let test_exhaustive_two_shards () =
  List.iter
    (fun seed ->
      let o =
        Elr_check.run
          ~config:{ Elr_check.default_config with Elr_check.shards = 2; seed }
          ()
      in
      assert_clean o;
      check_bool "cross-shard commits explored" true
        (Crash.counter o "cross-shard" > 0);
      check_bool "early releases happened" true
        (Crash.counter o "early releases" > 0))
    [ 7L; 11L; 16L; 20L; 37L ]

(* The same hazard on three and four shards, at seeds where it shows. *)
let test_three_and_four_shards () =
  List.iter
    (fun (shards, seed) ->
      let o =
        Elr_check.run
          ~config:{ Elr_check.default_config with Elr_check.shards; seed }
          ()
      in
      assert_clean o;
      check_bool "cross-shard commits explored" true
        (Crash.counter o "cross-shard" > 0))
    [ (3, 7L); (3, 11L); (3, 18L); (4, 4L); (4, 15L); (4, 22L) ]

(* A couple more seeds so the explored interleavings aren't one lucky
   schedule; non-exhaustive torn sampling keeps it quick. [batch_max = 1]
   explores the unbatched commit path, where every commit forces the log
   and its locks drop only after the force, on one and two shards. *)
let test_more_seeds () =
  List.iter
    (fun (seed, shards, batch_max) ->
      let cfg =
        {
          Elr_check.default_config with
          Elr_check.seed;
          shards;
          batch_max;
          requests = 16;
          core =
            {
              Elr_check.default_config.Elr_check.core with
              Crash.max_torn_per_write = 2;
            };
        }
      in
      let o = Elr_check.run ~config:cfg () in
      assert_clean o;
      check_bool "commits explored" true (o.Crash.commits > 0);
      check_bool "lookups explored" true (Crash.counter o "snapshot reads" > 0);
      check_bool "early releases only when batched" (batch_max > 1)
        (Crash.counter o "early releases" > 0))
    [ (11L, 1, 4); (12L, 2, 4); (13L, 2, 4); (7L, 1, 1); (7L, 2, 1) ]

(* Seeded recovery bug (torn records accepted unverified) under 64-byte
   sectors: the real pipeline recovers clean, the mutant must be caught. *)
let test_mutation_detected () =
  let config =
    {
      Elr_check.default_config with
      Elr_check.core =
        { Elr_check.default_config.Elr_check.core with Crash.sector = 64 };
    }
  in
  assert_clean (Elr_check.run ~config ());
  Rvm_log.Record.with_unverified (fun () ->
      let o = Elr_check.run ~config () in
      check_bool "mutation detected" true (o.Crash.violations <> []))

(* Check (a) on its own, over hand-made acks: write 1 acked at event 5,
   write 2 at event 9 having observed writer 1, lookup 3 at event 12
   having observed writer 2, and lookup 4, which observed nothing. A crash
   before an ack asks nothing of it; after, the acked write and every
   writer an acked request observed (a write's as well as a lookup's) must
   have survived. A lookup never survives itself and need not. *)
let test_ack_check () =
  let acks =
    [
      { Elr_check.a_id = 1; a_wrote = true; a_deps = []; a_event = 5 };
      { Elr_check.a_id = 2; a_wrote = true; a_deps = [ 1 ]; a_event = 9 };
      { Elr_check.a_id = 3; a_wrote = false; a_deps = [ 2 ]; a_event = 12 };
      { Elr_check.a_id = 4; a_wrote = false; a_deps = []; a_event = 12 };
    ]
  in
  let verdict ~upto survivors =
    Elr_check.ack_violation acks ~upto ~survived:(fun id ->
        List.mem id survivors)
  in
  let clean what ~upto survivors =
    match verdict ~upto survivors with
    | None -> ()
    | Some reason -> Alcotest.failf "%s: %s" what reason
  in
  let caught what ~upto survivors =
    check_bool what true (Option.is_some (verdict ~upto survivors))
  in
  clean "nothing acked yet" ~upto:4 [];
  caught "acked write 1 lost" ~upto:5 [];
  clean "write 1 survived" ~upto:8 [ 1 ];
  caught "write 2 observed lost writer 1" ~upto:9 [ 2 ];
  caught "acked write 2 lost" ~upto:9 [ 1 ];
  clean "both writes survived" ~upto:11 [ 1; 2 ];
  caught "lookup 3 observed lost writer 2" ~upto:12 [ 1 ];
  clean "every write survived" ~upto:12 [ 1; 2 ]

(* Each shard's audit trail holds two slots per account of that shard, so
   4 shards over 24 accounts give 12-slot trails. Seed 23 anchors 13 of
   its 24 writes on shard 0: the trail wraps, an overwritten slot no
   longer names its writer, and membership read back from the trails
   would be wrong. The run must refuse, naming the shard, rather than
   report a false violation. *)
let test_trail_wrap_rejected () =
  let config =
    {
      Elr_check.default_config with
      Elr_check.shards = 4;
      accounts = 24;
      requests = 24;
      seed = 23L;
    }
  in
  match Elr_check.run ~config () with
  | o ->
    Alcotest.failf "a wrapped audit trail was explored:@.%a" Crash.pp_outcome o
  | exception Invalid_argument msg ->
    let names = "shard 0 drew 13" in
    let n = String.length names in
    let rec go i =
      i + n <= String.length msg && (String.sub msg i n = names || go (i + 1))
    in
    check_bool (Printf.sprintf "%S names the shard and its draws" msg) true
      (go 0)

let test_deterministic () =
  let o1 = Elr_check.run () and o2 = Elr_check.run () in
  check_int "events" o1.Crash.events o2.Crash.events;
  check_int "recoveries" o1.Crash.recoveries o2.Crash.recoveries;
  check_int "commits" o1.Crash.commits o2.Crash.commits;
  check_int "reads"
    (Crash.counter o1 "snapshot reads")
    (Crash.counter o2 "snapshot reads")

let suite =
  [
    ( "elr-explorer.exhaustive-single-shard",
      `Quick,
      test_exhaustive_single_shard );
    ("elr-explorer.exhaustive-two-shards", `Quick, test_exhaustive_two_shards);
    ("elr-explorer.more-seeds", `Quick, test_more_seeds);
    ("elr-explorer.mutation-detected", `Quick, test_mutation_detected);
    ("elr-explorer.ack-check", `Quick, test_ack_check);
    ("elr-explorer.deterministic", `Quick, test_deterministic);
    ("elr-explorer.three-and-four-shards", `Quick, test_three_and_four_shards);
    ("elr-explorer.trail-wrap-rejected", `Quick, test_trail_wrap_rejected);
  ]
