(* Golden crash-exploration counts for every `rvmutl check` invocation in
   CI. Each case builds the same configuration and workload the CLI builds
   for that argument list and pins the exact trace and enumeration sizes —
   events, writes, syncs, boundaries, torn variants, recoveries, commits —
   plus zero violations. A refactor of the crash-exploration machinery must
   leave every number here unchanged; only the adapters that read an
   outcome may follow renamed fields. *)

open Rvm_core
module Explorer = Rvm_check.Explorer
module Workload = Rvm_check.Workload
module Elr_check = Rvm_check.Elr_check
module Btree_check = Rvm_check.Btree_check
module Crash = Rvm_check.Crash
module Rng = Rvm_util.Rng

let counts (o : Crash.outcome) =
  [
    o.events; o.writes; o.syncs; o.boundaries; o.torn_variants; o.recoveries;
    o.commits; List.length o.violations;
  ]

let mode incremental = if incremental then Types.Incremental else Types.Epoch

(* [rvmutl check [--shards N] --ops N --seed S [--exhaustive]
   [--incremental] [--mid-truncation]] *)
let engine ?(exhaustive = false) ?(incremental = false) ?(mid = false)
    ?(shards = 1) ~ops ~seed () =
  let defaults = Explorer.for_shards shards in
  let config =
    {
      defaults with
      Explorer.core = { defaults.Explorer.core with Crash.exhaustive };
      truncation_mode = mode incremental;
      mid_truncation = mid;
      log_size = (if mid then 16 * 1024 else defaults.Explorer.log_size);
    }
  in
  let ops =
    Workload.generate ~mid_truncation:mid
      ~rng:(Rng.create ~seed:(Int64.of_int seed))
      ~ops ~shards ()
  in
  let o = Explorer.run ~config ops in
  counts o

(* [rvmutl check --elr [--shards N] [--seed S] [--exhaustive]]; the CLI's
   default seed is 1. *)
let elr ?(exhaustive = false) ?(shards = 1) ?(seed = 1) () =
  let config =
    {
      Elr_check.default_config with
      Elr_check.shards;
      seed = Int64.of_int seed;
      core = { Elr_check.default_config.Elr_check.core with Crash.exhaustive };
    }
  in
  let o = Elr_check.run ~config () in
  counts o

(* [rvmutl check --btree [--exhaustive] [--sector B]] *)
let btree ?(exhaustive = false) ?(sector = 512) () =
  let config =
    { Btree_check.core = { Crash.sector; exhaustive; max_torn_per_write = 12 } }
  in
  let o = Btree_check.run ~config () in
  counts o

(* CLI arguments, then [events; writes; syncs; boundaries; torn variants;
   recoveries; commits; violations]. *)
let goldens =
  [
    ( "--ops 20 --seed 1 --exhaustive",
      (fun () -> engine ~exhaustive:true ~ops:20 ~seed:1 ()),
      [ 46; 34; 12; 47; 61; 108; 10; 0 ] );
    ( "--shards 2 --ops 16 --seed 1 --exhaustive",
      (fun () -> engine ~exhaustive:true ~shards:2 ~ops:16 ~seed:1 ()),
      [ 75; 47; 28; 76; 59; 135; 14; 0 ] );
    ( "--shards 3 --ops 12 --seed 2 --incremental",
      (fun () -> engine ~incremental:true ~shards:3 ~ops:12 ~seed:2 ()),
      [ 67; 34; 33; 68; 75; 143; 12; 0 ] );
    ( "--mid-truncation --ops 20 --seed 1",
      (fun () -> engine ~mid:true ~ops:20 ~seed:1 ()),
      [ 24; 12; 12; 25; 47; 72; 9; 0 ] );
    ( "--mid-truncation --incremental --ops 20 --seed 2",
      (fun () -> engine ~mid:true ~incremental:true ~ops:20 ~seed:2 ()),
      [ 32; 16; 16; 33; 53; 86; 12; 0 ] );
    ( "--shards 2 --mid-truncation --ops 12 --seed 1",
      (fun () -> engine ~mid:true ~shards:2 ~ops:12 ~seed:1 ()),
      [ 52; 31; 21; 53; 50; 103; 12; 0 ] );
    ( "--shards 2 --mid-truncation --incremental --ops 12 --seed 3",
      (fun () ->
        engine ~mid:true ~incremental:true ~shards:2 ~ops:12 ~seed:3 ()),
      [ 16; 8; 8; 17; 21; 38; 14; 0 ] );
    ("--elr", (fun () -> elr ()), [ 28; 14; 14; 29; 48; 77; 19; 0 ]);
    ( "--elr --shards 2",
      (fun () -> elr ~shards:2 ()),
      [ 40; 20; 20; 41; 60; 101; 19; 0 ] );
    ( "--elr --seed 3 --exhaustive",
      (fun () -> elr ~seed:3 ~exhaustive:true ()),
      [ 34; 17; 17; 35; 75; 110; 19; 0 ] );
    ("--btree", (fun () -> btree ()), [ 21; 12; 9; 22; 46; 68; 9; 0 ]);
    ( "--btree --exhaustive --sector 128",
      (fun () -> btree ~exhaustive:true ~sector:128 ()),
      [ 21; 12; 9; 22; 188; 210; 9; 0 ] );
    ( "--elr --shards 2 --seed 11",
      (fun () -> elr ~shards:2 ~seed:11 ()),
      [ 50; 25; 25; 51; 72; 123; 20; 0 ] );
    ( "--shards 4 --ops 16 --seed 5",
      (fun () -> engine ~shards:4 ~ops:16 ~seed:5 ()),
      [ 91; 54; 37; 92; 56; 148; 20; 0 ] );
  ]

let suite =
  List.map
    (fun (args, run, expected) ->
      ( "golden " ^ args,
        `Quick,
        fun () -> Alcotest.(check (list int)) args expected (run ()) ))
    goldens
