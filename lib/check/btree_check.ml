(* Crash-point exploration for the recoverable B-tree on the {!Crash}
   core. The recovered image is judged structurally: reattach the Rds
   heap and the tree, run both full invariant checkers, and demand the
   tree's contents equal some committed snapshot at least as new as the
   last durable point. A crash that lands mid-split or mid-merge
   therefore has to recover to a whole tree on both sides of the commit
   record. *)

open Rvm_core
module Mem_device = Rvm_disk.Mem_device
module Rds = Rvm_alloc.Rds
module Pbtree = Rvm_pds.Pbtree

type config = { core : Crash.config }

let default_config =
  { core = { Crash.sector = 512; exhaustive = false; max_torn_per_write = 12 } }

(* Minimum degree 2 (max 3 keys per node): the scripted workload reaches
   splits, borrows and merges within a few dozen keys, in a 64 KiB heap
   over a 256 KiB log. *)
let degree = 2
let heap_len = 16 * 4096
let log_size = 256 * 1024

type action = Put of string * string | Remove of string

type op =
  | Commit of action list * Types.commit_mode
  | Abort of action list
  | Flush
  | Truncate

let key_of i = Printf.sprintf "k%03d" i

(* The scripted workload: grow through repeated splits (batched and
   single-key commits, both commit modes), abort a structural insert,
   overwrite values (in place, and into a new cell), truncate mid-history
   so segment write-back is in the crash sweep too, then drain the tree
   through borrows and merges down to a near-empty root. *)
let default_ops =
  let puts lo hi =
    List.init
      (hi - lo + 1)
      (fun i ->
        Put
          ( key_of (lo + i),
            Printf.sprintf "val-%03d-%s" (lo + i) (String.make 17 'x') ))
  in
  let removes lo hi =
    List.init (hi - lo + 1) (fun i -> Remove (key_of (lo + i)))
  in
  [
    Commit (puts 0 6, Types.Flush);
    Commit (puts 7 13, Types.No_flush);
    (* An aborted structural transaction: the puts split nodes, then the
       whole thing rolls back — recovery must never see any of it. *)
    Abort (puts 40 49);
    Commit (puts 14 17, Types.No_flush);
    Flush;
    (* Replaces, both paths: the 25-byte values sit in cells with room
       for 32 bytes, so the first two are rewritten in place and the third
       outgrows its cell (new cell allocated, old freed). *)
    Commit
      ( [
          Put (key_of 3, "replaced-longer-value-3");
          Put (key_of 11, "r11");
          Put (key_of 12, "replaced-by-a-value-that-outgrows-its-cell-12");
        ],
        Types.No_flush );
    Truncate;
    Commit (puts 18 23, Types.Flush);
    (* Shrink in interleaved chunks so the delete path borrows from both
       siblings and merges, across several commits. *)
    Commit (removes 0 4, Types.No_flush);
    Commit (removes 10 16, Types.No_flush);
    Flush;
    Commit (removes 5 9, Types.No_flush);
    Commit (removes 17 21, Types.Flush);
    Truncate;
  ]

let heap_base = 16 * 4096

(* Open the engine on a log and a segment device and map the heap. *)
let open_heap ?obs ~log ~seg () =
  let options =
    { Options.default with Options.truncation_mode = Types.Incremental }
  in
  let rvm = Rvm.reinitialize ~options ?obs ~log ~resolve:(fun _ -> seg) () in
  ignore (Rvm.map rvm ~vaddr:heap_base ~seg:1 ~seg_off:0 ~len:heap_len ());
  rvm

(* Build the durable baseline — an empty tree in a fresh heap — on the
   raw devices, so crash point zero recovers to it. Returns the tree's
   heap address (stable across reattachment). *)
let setup log_mem seg_mem =
  Rvm.create_log log_mem;
  let rvm = open_heap ~log:log_mem ~seg:seg_mem () in
  let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
  let heap = Rds.init rvm tid ~base:heap_base ~len:heap_len in
  let tree = Pbtree.create rvm heap tid ~degree in
  Rvm.end_transaction rvm tid ~mode:Types.Flush;
  Pbtree.address tree

module SMap = Map.Make (String)

let apply_model m actions =
  List.fold_left
    (fun m -> function
      | Put (k, v) -> SMap.add k v m | Remove k -> SMap.remove k m)
    m actions

(* Reopen the engine and reattach the heap and the tree. *)
let attach ?obs tree_addr ~log ~seg =
  let rvm = open_heap ?obs ~log ~seg () in
  let heap = Rds.attach rvm ~base:heap_base in
  (rvm, heap, Pbtree.attach rvm heap ~addr:tree_addr)

(* Recover a crash image pair, reattach, run both structural checkers,
   and return the recovered contents. *)
let recover tree_addr images =
  let _, heap, tree = attach tree_addr ~log:images.(0) ~seg:images.(1) in
  Rds.check heap;
  Pbtree.check tree;
  List.rev (Pbtree.fold tree ~init:[] ~f:(fun acc ~key ~value -> (key, value) :: acc))

(* Run the ops against traced devices, keeping the committed snapshots
   (index 0 = baseline empty tree) and checkpointing the durable snapshot
   index. *)
let world ops rig =
  let log_mem = Mem_device.create ~name:"btree-log" ~size:log_size () in
  let seg_mem =
    Mem_device.create ~name:"btree-seg" ~size:(heap_len + 4096) ()
  in
  let tree_addr = setup log_mem seg_mem in
  let log = Crash.trace rig ~label:"log" log_mem in
  let seg = Crash.trace rig ~label:"seg" seg_mem in
  let rvm, _, tree = attach tree_addr ~obs:(Crash.obs rig) ~log ~seg in
  let snapshots = ref [ SMap.empty ] in
  let model = ref SMap.empty in
  let note_durable () = Crash.durable rig (List.length !snapshots - 1) in
  let apply tid actions =
    List.iter
      (function
        | Put (k, v) -> Pbtree.put tree tid ~key:k ~value:v
        | Remove k -> ignore (Pbtree.remove tree tid ~key:k))
      actions
  in
  List.iter
    (fun op ->
      match op with
      | Commit (actions, mode) ->
        let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
        apply tid actions;
        Rvm.end_transaction rvm tid ~mode;
        model := apply_model !model actions;
        snapshots := !model :: !snapshots;
        if mode = Types.Flush then note_durable ()
      | Abort actions ->
        let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
        apply tid actions;
        Rvm.abort_transaction rvm tid
      | Flush ->
        Rvm.flush rvm;
        note_durable ()
      | Truncate -> Rvm.truncate rvm)
    ops;
  let snapshots = Array.of_list (List.rev !snapshots) in
  let commits = Array.length snapshots - 1 in
  let oracle (crash : Crash.crash_point) contents =
    let required = Crash.required rig ~upto:crash.Crash.upto in
    let matches i = SMap.bindings snapshots.(i) = contents in
    let rec scan i = i <= commits && (matches i || scan (i + 1)) in
    if scan required then None
    else
      Some
        (Printf.sprintf
           "recovered %d entries match no committed snapshot %d..%d"
           (List.length contents) required commits)
  in
  let stats = Pbtree.stats tree in
  {
    Crash.recover = recover tree_addr;
    oracle;
    commits;
    counters =
      [
        ( "known durable",
          Crash.required rig ~upto:(Crash.events_so_far rig) );
        ("splits", stats.Pbtree.splits);
        ("merges", stats.Pbtree.merges);
        ("borrows", stats.Pbtree.borrows);
      ];
  }

let run ?(config = default_config) ?(ops = default_ops) () =
  Crash.run config.core (world ops)

let violates ?config ops = (run ?config ~ops ()).Crash.violations <> []
