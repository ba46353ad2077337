(* The sharded crash-point explorer and the multi-log qcheck properties.

   Exhaustive exploration at 2 and 3 shards must find zero counterexamples
   on the real implementation — crash points cover every boundary in the
   global write/sync order, in particular the inter-shard boundaries
   inside a parallel-commit round where only some participants' intents
   (or the staged record) are durable. A seeded recovery mutant must be
   caught, with a flight-recorder tail on the violation and a small
   shrunk witness. The qcheck properties then randomize what the
   deterministic tests fix: shard counts, routing tables and transaction
   arrival orders never hang and agree with a serial reference, and
   randomly crash-truncated multi-log images recover to a commit-prefix
   state per shard. Sharded recovery is itself crash-checked: a crash at
   any of its own device events must recover as if it never happened. *)

open Rvm_core
module Explorer = Rvm_check.Explorer
module Workload = Rvm_check.Workload
module Crash = Rvm_check.Crash
module Shrink = Rvm_check.Shrink
module Record = Rvm_log.Record
module Routing = Rvm_shard.Routing
module Multi = Rvm_shard.Multi
module Mem_device = Rvm_disk.Mem_device
module Rng = Rvm_util.Rng
module Clock = Rvm_util.Clock

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let config ?(shards = 2) ?(exhaustive = true) ?(sector = 512)
    ?(mode = Types.Epoch) () =
  let defaults = Explorer.for_shards shards in
  {
    defaults with
    Explorer.core = { defaults.Explorer.core with Crash.exhaustive; sector };
    truncation_mode = mode;
  }

let gen ~seed ~ops ~shards =
  Workload.generate ~rng:(Rng.create ~seed) ~ops ~shards ()

let assert_clean outcome =
  if outcome.Crash.violations <> [] then
    Alcotest.failf "shard explorer found violations:@.%a"
      Crash.pp_outcome outcome

(* Acceptance: exhaustive exploration at 2 shards, several seeds, zero
   counterexamples, and the workloads actually exercised cross-shard
   commits and torn writes. *)
let test_exhaustive_2shards () =
  List.iter
    (fun seed ->
      let ops = gen ~seed ~ops:10 ~shards:2 in
      let o = Explorer.run ~config:(config ~shards:2 ()) ops in
      assert_clean o;
      check_bool "cross-shard txns explored" true (Crash.counter o "cross-shard" > 0);
      check_bool "torn variants explored" true
        (o.Crash.torn_variants > 0))
    [ 1L; 2L; 3L ]

let test_exhaustive_3shards () =
  List.iter
    (fun seed ->
      let ops = gen ~seed ~ops:8 ~shards:3 in
      let o = Explorer.run ~config:(config ~shards:3 ()) ops in
      assert_clean o;
      check_bool "cross-shard txns explored" true (Crash.counter o "cross-shard" > 0))
    [ 4L; 5L ]

(* Hand-built worst case: back-to-back flush-mode cross-shard commits, so
   nearly every crash boundary falls between one shard's force and
   another's inside a parallel-commit round. *)
let test_cross_round_boundaries () =
  let ops =
    [
      Workload.Cross
        {
          parts = [ (0, [ (0, 200, 'A') ]); (1, [ (64, 200, 'B') ]) ];
          mode = Types.Flush;
        };
      Workload.Cross
        {
          parts = [ (0, [ (32, 200, 'C') ]); (1, [ (96, 200, 'D') ]) ];
          mode = Types.Flush;
        };
      Workload.Commit
        { shard = 0; ranges = [ (300, 50, 'E') ]; mode = Types.No_flush };
      Workload.Cross
        {
          parts = [ (0, [ (400, 100, 'F') ]); (1, [ (400, 100, 'G') ]) ];
          mode = Types.Flush;
        };
    ]
  in
  let o = Explorer.run ~config:(config ()) ops in
  assert_clean o;
  check_int "boundaries = events + 1" (o.Crash.events + 1)
    o.Crash.boundaries;
  (* Each flush-mode cross commit forces both shard logs. *)
  check_bool
    (Printf.sprintf "per-shard forces recorded (%d syncs)" o.Crash.syncs)
    true
    (o.Crash.syncs >= 6)

(* Aborts on the sharded engine, which the generator never draws. Each
   aborted transaction overwrites committed bytes in memory, so recovery
   shows any byte a rollback left behind once truncation writes the page
   holding it to the segment — incremental truncation writes pages from
   memory. The first abort wrote both shards, the second one shard; the
   commits around them are flush-mode and no-flush, single- and
   cross-shard. *)
let test_aborts () =
  let ops =
    [
      Workload.Cross
        {
          parts = [ (0, [ (0, 200, 'A') ]); (1, [ (4096, 200, 'B') ]) ];
          mode = Types.Flush;
        };
      Workload.Abort [ (0, [ (100, 200, 'X') ]); (1, [ (4196, 200, 'Y') ]) ];
      Workload.Commit
        { shard = 1; ranges = [ (300, 100, 'C') ]; mode = Types.No_flush };
      Workload.Abort [ (0, [ (50, 100, 'Z') ]) ];
      Workload.Cross
        {
          parts = [ (0, [ (500, 80, 'D') ]); (1, [ (4300, 80, 'E') ]) ];
          mode = Types.No_flush;
        };
      Workload.Flush;
      Workload.Truncate;
    ]
  in
  List.iter
    (fun mode ->
      let o = Explorer.run ~config:(config ~mode ()) ops in
      assert_clean o;
      check_int "cross-shard transactions" 2 (Crash.counter o "cross-shard");
      check_bool "truncation wrote segment pages" true
        (List.exists
           (fun (w : Crash.write_point) -> w.Crash.dev = "seg1")
           o.Crash.write_points))
    [ Types.Epoch; Types.Incremental ]

let test_incremental_truncation () =
  List.iter
    (fun seed ->
      let ops = gen ~seed ~ops:8 ~shards:2 in
      assert_clean
        (Explorer.run ~config:(config ~mode:Types.Incremental ()) ops))
    [ 6L; 7L ]

(* Mid-truncation exploration at 2 shards: generated workloads carry [Step]
   ops that advance each due shard's truncator one bounded unit at a time
   on its lane, with local and cross-shard commits landing between steps
   while reclamation runs are suspended. Crash points cover every device
   event those steps issue — including torn variants inside truncator page
   writes — and recovery must still yield a commit prefix per shard with
   one consistent cross-shard decision set. *)
let test_mid_truncation_2shards () =
  let stepped = ref 0 in
  List.iter
    (fun (mode, seed) ->
      let cfg =
        {
          (config ~shards:2 ~mode ()) with
          Explorer.mid_truncation = true;
          log_size = 16 * 1024;
        }
      in
      let ops =
        Workload.generate ~mid_truncation:true
          ~rng:(Rng.create ~seed)
          ~ops:10 ~shards:2 ()
      in
      if List.exists (function Workload.Step _ -> true | _ -> false) ops
      then incr stepped;
      assert_clean (Explorer.run ~config:cfg ops))
    [
      (Types.Epoch, 1L);
      (Types.Epoch, 3L);
      (Types.Incremental, 1L);
      (Types.Incremental, 6L);
    ];
  (* Short workloads make Step ops probabilistic per seed; the seed set as
     a whole must exercise suspended-run crash points. *)
  check_bool "seed set exercised Step ops" true (!stepped >= 2)

(* Mutation detection: recovery that accepts unverified (torn) records must
   produce counterexamples, each carrying a flight-recorder tail, and the
   shrinker must cut the witness down. *)
let test_mutation_detected () =
  let cfg = config ~sector:64 () in
  let ops =
    [
      Workload.Cross
        {
          parts = [ (0, [ (0, 200, 'A') ]); (1, [ (0, 200, 'B') ]) ];
          mode = Types.Flush;
        };
      Workload.Cross
        {
          parts = [ (0, [ (64, 200, 'C') ]); (1, [ (64, 200, 'D') ]) ];
          mode = Types.Flush;
        };
      Workload.Commit
        { shard = 1; ranges = [ (300, 200, 'E') ]; mode = Types.Flush };
    ]
  in
  assert_clean (Explorer.run ~config:cfg ops);
  Record.with_unverified (fun () ->
      let o = Explorer.run ~config:cfg ops in
      check_bool "mutation detected" true (o.Crash.violations <> []);
      check_bool "violation carries a flight-recorder tail" true
        (List.exists
           (fun v -> v.Crash.tail <> [])
           o.Crash.violations);
      let shrunk =
        Shrink.minimize ~check:(Explorer.violates ~config:cfg) ops
      in
      check_bool "shrunk workload still violates" true
        (Explorer.violates ~config:cfg shrunk);
      check_bool
        (Printf.sprintf "counterexample has %d op(s) <= 3"
           (List.length shrunk))
        true
        (List.length shrunk <= 3))

let test_deterministic () =
  let ops = gen ~seed:9L ~ops:8 ~shards:2 in
  let o1 = Explorer.run ~config:(config ()) ops
  and o2 = Explorer.run ~config:(config ()) ops in
  check_int "events" o1.Crash.events o2.Crash.events;
  check_int "recoveries" o1.Crash.recoveries o2.Crash.recoveries;
  check_int "torn variants" o1.Crash.torn_variants
    o2.Crash.torn_variants;
  check_int "violations" 0
    (List.length o1.Crash.violations
    + List.length o2.Crash.violations)

(* --- crash points inside sharded recovery --- *)

(* Log and segment bytes of a 2-shard world (segment [s + 1] on shard
   [s]) holding three cross-shard transactions of 600-byte values, longer
   than a sector, so recovery's segment writes tear:
   - 'A': flush-mode, resolved on both shards;
   - 'B': no-flush, made durable by a flushed commit on each shard
     ('C', 'D'), with no resolution: recovery must commit it on both;
   - 'E': no-flush, an orphan: only the coordinator's (shard 0's) log
     is forced, by a flushed commit 'F' there. Recovery must abort it. *)
let recovery_images () =
  let routing = Routing.of_table ~shards:2 [ (1, 0); (2, 1) ] in
  let logs = Array.init 2 (fun _ -> Mem_device.create ~size:(64 * 1024) ()) in
  Multi.create_logs logs;
  let segs = Array.init 2 (fun _ -> Mem_device.create ~size:(16 * 1024) ()) in
  let m =
    Multi.initialize ~routing ~logs ~resolve:(fun id -> segs.(id - 1)) ()
  in
  let v =
    Array.init 2 (fun s ->
        (Multi.map m ~seg:(s + 1) ~seg_off:0 ~len:8192 ()).Region.vaddr)
  in
  let commit ~mode writes =
    let g = Multi.begin_transaction m ~mode:Types.Restore in
    List.iter
      (fun (s, off, c) ->
        Multi.modify m g ~addr:(v.(s) + off) (Bytes.make 600 c))
      writes;
    Multi.end_transaction m g ~mode
  in
  commit ~mode:Types.Flush [ (0, 0, 'A'); (1, 0, 'A') ];
  commit ~mode:Types.No_flush [ (0, 1024, 'B'); (1, 1024, 'B') ];
  commit ~mode:Types.Flush [ (0, 2048, 'C') ];
  commit ~mode:Types.Flush [ (1, 2048, 'D') ];
  commit ~mode:Types.No_flush [ (0, 3072, 'E'); (1, 3072, 'E') ];
  commit ~mode:Types.Flush [ (0, 4096, 'F') ];
  ( routing,
    Array.map Mem_device.snapshot logs,
    Array.map Mem_device.snapshot segs )

(* Both shards' regions after recovering [logs] and [segs] (shard order). *)
let recovered_regions routing (logs : Rvm_disk.Device.t array) segs =
  let m =
    Multi.initialize ~clock:(Clock.simulated ()) ~routing ~logs
      ~resolve:(fun id -> segs.(id - 1))
      ()
  in
  Array.init 2 (fun s ->
      let r = Multi.map m ~seg:(s + 1) ~seg_off:0 ~len:8192 () in
      Bytes.to_string (Multi.load m ~addr:r.Region.vaddr ~len:8192))

(* Record [Multi.initialize] itself on the images: every write and
   sync of the verdict round and of both shards' recoveries is a crash
   point, and recovering again from any of them must give the regions one
   uninterrupted recovery gives. *)
let test_recovery_crash_points () =
  let routing, logs, segs = recovery_images () in
  let mount images = Array.map Mem_device.of_bytes images in
  let expected = recovered_regions routing (mount logs) (mount segs) in
  let at s off = String.sub expected.(s) off 600 in
  List.iter
    (fun (what, s, off, c) ->
      Alcotest.(check string) what (String.make 600 c) (at s off))
    [
      ("resolved commit on shard 0", 0, 0, 'A');
      ("resolved commit on shard 1", 1, 0, 'A');
      ("implicit commit on shard 0", 0, 1024, 'B');
      ("implicit commit on shard 1", 1, 1024, 'B');
      ("orphan aborted on shard 0", 0, 3072, '\000');
      ("orphan aborted on shard 1", 1, 3072, '\000');
    ];
  let world rig =
    let traced kind =
      Array.mapi (fun i b ->
          let d = Mem_device.of_bytes ~name:(Printf.sprintf "%s%d" kind i) b in
          Crash.trace rig ~label:(Printf.sprintf "%s%d" kind i) d)
    in
    let logs = traced "log" logs and segs = traced "seg" segs in
    ignore
      (Multi.initialize ~clock:(Clock.simulated ()) ~obs:(Crash.obs rig)
         ~routing ~logs
         ~resolve:(fun id -> segs.(id - 1))
         ());
    {
      Crash.recover =
        (fun images ->
          recovered_regions routing (Array.sub images 0 2)
            (Array.sub images 2 2));
      oracle =
        (fun _ regions ->
          if regions = expected then None
          else Some "recovered regions differ from one uninterrupted recovery");
      commits = 0;
      counters = [];
    }
  in
  let o =
    Crash.run
      { Crash.sector = 512; exhaustive = true; max_torn_per_write = 8 }
      world
  in
  assert_clean o;
  check_int "events" 17 o.Crash.events;
  check_int "writes" 11 o.Crash.writes;
  check_int "syncs" 6 o.Crash.syncs;
  check_int "boundaries" 18 o.Crash.boundaries;
  check_int "torn variants" 40 o.Crash.torn_variants;
  check_int "recoveries" 58 o.Crash.recoveries

(* --- qcheck properties --- *)

(* (a) Random shard counts, routing tables and arrival orders: the engine
   terminates (never hangs), and after a final flush the surviving
   balances equal a serial fold of the committed transfers. Accounts are
   one i64 each on segments routed by a random table, so a transfer is a
   cross-shard parallel commit whenever the two accounts land on
   different shards. Arrival order is randomized by running disjoint
   transfers as concurrently open transactions, with modifies and commits
   interleaved in shuffled order. *)
let n_accounts = 6

type transfer = { from_a : int; to_a : int; amount : int64 }

let gen_balance_scenario =
  QCheck.Gen.(
    let* shards = int_range 1 4 in
    let* table = list_size (return n_accounts) (int_bound (shards - 1)) in
    let* transfers =
      list_size (int_range 1 20)
        (let* from_a = int_bound (n_accounts - 1) in
         let* to_a = int_bound (n_accounts - 1) in
         let* amount = int_range 1 1000 in
         return { from_a; to_a; amount = Int64.of_int amount })
    in
    let* order_seed = int_bound 1_000_000 in
    return (shards, table, transfers, order_seed))

let arb_balance_scenario =
  QCheck.make
    ~print:(fun (shards, table, transfers, seed) ->
      Printf.sprintf "shards=%d table=[%s] transfers=%d seed=%d" shards
        (String.concat ";" (List.map string_of_int table))
        (List.length transfers) seed)
    gen_balance_scenario

let initial_balance = 10_000L

let run_balance_scenario (shards, table, transfers, order_seed) =
  let rng = Rng.create ~seed:(Int64.of_int order_seed) in
  let routing =
    Routing.of_table ~shards (List.mapi (fun a s -> (a + 1, s)) table)
  in
  let logs =
    Array.init shards (fun s ->
        Mem_device.create
          ~name:(Printf.sprintf "bal-log%d" s)
          ~size:(256 * 1024) ())
  in
  let segs =
    Array.init n_accounts (fun a ->
        Mem_device.create ~name:(Printf.sprintf "bal-seg%d" a) ~size:4096 ())
  in
  Multi.create_logs logs;
  let open_engine () =
    Multi.initialize ~clock:(Clock.simulated ()) ~routing ~logs
      ~resolve:(fun seg -> segs.(seg - 1))
      ()
  in
  let m = open_engine () in
  let vaddrs =
    Array.init n_accounts (fun a ->
        let r = Multi.map m ~seg:(a + 1) ~seg_off:0 ~len:4096 () in
        r.Region.vaddr)
  in
  (* Seed balances in one (possibly fully cross-shard) transaction. *)
  let tid = Multi.begin_transaction m ~mode:Types.Restore in
  Array.iter
    (fun v ->
      Multi.set_range m tid ~addr:v ~len:8;
      Multi.set_i64 m ~addr:v initial_balance)
    vaddrs;
  Multi.end_transaction m tid ~mode:Types.Flush;
  (* Execute transfers in batches of concurrently open transactions over
     disjoint accounts, interleaving modifies and commits in random
     order. *)
  let pending = ref transfers in
  while !pending <> [] do
    let batch, _used, rest =
      List.fold_left
        (fun (batch, used, rest) t ->
          if
            List.length batch < 3
            && (not (List.mem t.from_a used))
            && not (List.mem t.to_a used)
          then (t :: batch, t.from_a :: t.to_a :: used, rest)
          else (batch, used, t :: rest))
        ([], [], []) !pending
    in
    pending := List.rev rest;
    let opened =
      List.map
        (fun t -> (t, Multi.begin_transaction m ~mode:Types.Restore))
        batch
    in
    let shuffled =
      let a = Array.of_list opened in
      Rng.shuffle rng a;
      Array.to_list a
    in
    List.iter
      (fun (t, tid) ->
        Multi.set_range m tid ~addr:vaddrs.(t.from_a) ~len:8;
        Multi.set_range m tid ~addr:vaddrs.(t.to_a) ~len:8;
        Multi.set_i64 m ~addr:vaddrs.(t.from_a)
          (Int64.sub (Multi.get_i64 m ~addr:vaddrs.(t.from_a)) t.amount);
        Multi.set_i64 m ~addr:vaddrs.(t.to_a)
          (Int64.add (Multi.get_i64 m ~addr:vaddrs.(t.to_a)) t.amount))
      shuffled;
    let commit_order =
      let a = Array.of_list shuffled in
      Rng.shuffle rng a;
      Array.to_list a
    in
    List.iter
      (fun (_, tid) ->
        Multi.end_transaction m tid
          ~mode:(if Rng.bool rng then Types.Flush else Types.No_flush))
      commit_order
  done;
  Multi.flush m;
  Multi.terminate m;
  (* Serial reference. *)
  let expected = Array.make n_accounts initial_balance in
  List.iter
    (fun t ->
      expected.(t.from_a) <- Int64.sub expected.(t.from_a) t.amount;
      expected.(t.to_a) <- Int64.add expected.(t.to_a) t.amount)
    transfers;
  (* Recover from the flushed logs and compare every balance. *)
  let m2 = open_engine () in
  let ok = ref true in
  Array.iteri
    (fun a v ->
      ignore (Multi.map m2 ~seg:(a + 1) ~seg_off:0 ~len:4096 ());
      let got = Multi.get_i64 m2 ~addr:v in
      if got <> expected.(a) then begin
        ok := false;
        QCheck.Test.fail_reportf
          "account %d: recovered %Ld, serial reference %Ld" a got expected.(a)
      end)
    vaddrs;
  Multi.terminate m2;
  !ok

let prop_balances =
  QCheck.Test.make
    ~name:"random shards/routing/arrival orders match serial reference"
    ~count:40 arb_balance_scenario run_balance_scenario

(* (b) Randomly crash-truncated multi-log images recover, per shard, to a
   commit-prefix state with one consistent cross-shard decision set —
   exactly the explorer's matcher, here over randomized workloads and
   shard counts with sampled (non-exhaustive) torn positions. *)
let gen_crash_scenario =
  QCheck.Gen.(
    let* shards = int_range 2 3 in
    let* seed = int_bound 1_000_000 in
    let* ops = int_range 3 8 in
    return (shards, seed, ops))

let arb_crash_scenario =
  QCheck.make
    ~print:(fun (shards, seed, ops) ->
      Printf.sprintf "shards=%d seed=%d ops=%d" shards seed ops)
    gen_crash_scenario

let prop_crash_recovery =
  QCheck.Test.make
    ~name:"crash-truncated multi-log recovers to commit prefixes per shard"
    ~count:12 arb_crash_scenario
    (fun (shards, seed, ops) ->
      let workload = gen ~seed:(Int64.of_int seed) ~ops ~shards in
      let cfg = config ~shards ~exhaustive:false () in
      let o = Explorer.run ~config:cfg workload in
      if o.Crash.violations <> [] then
        QCheck.Test.fail_reportf "violations:@.%a" Crash.pp_outcome o
      else true)

let suite =
  [
    ("shard-explorer.exhaustive-2shards", `Quick, test_exhaustive_2shards);
    ("shard-explorer.exhaustive-3shards", `Quick, test_exhaustive_3shards);
    ( "shard-explorer.cross-round-boundaries",
      `Quick,
      test_cross_round_boundaries );
    ( "shard-explorer.incremental-truncation",
      `Quick,
      test_incremental_truncation );
    ("shard-explorer.mid-truncation-2shards", `Quick, test_mid_truncation_2shards);
    ("shard-explorer.mutation-detected", `Quick, test_mutation_detected);
    ("shard-explorer.deterministic", `Quick, test_deterministic);
    ("shard-recovery.crash-points", `Quick, test_recovery_crash_points);
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_balances; prop_crash_recovery ]
  @ [ ("shard-explorer.aborts", `Quick, test_aborts) ]
