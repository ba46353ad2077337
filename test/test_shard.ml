(* Tests for the sharded multi-log engine and its parallel-commit
   protocol: routing, single-shard equivalence, cross-shard atomicity
   through crashes, the pure state machine, and recovery hygiene. *)

open Rvm_core
module Mem_device = Rvm_disk.Mem_device
module Device = Rvm_disk.Device
module Record = Rvm_log.Record
module Pcommit = Rvm_log.Pcommit
module Log_manager = Rvm_log.Log_manager
module Clock = Rvm_util.Clock
module Routing = Rvm_shard.Routing
module Multi = Rvm_shard.Multi
module Twopc = Rvm_layers.Twopc
module Parallel = Twopc.Parallel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let ps = 4096

(* One world: [shards] log devices, segments 1..[segs] (seg s -> shard
   s mod shards), each mapped for two pages. Returns the instance, the
   per-segment base vaddrs, and a reopen function that mounts the same
   devices again (simulating a crash: nothing is terminated first). *)
let make_world ?(shards = 2) ?(segs = 0) () =
  let segs = if segs = 0 then shards else segs in
  let logs =
    Array.init shards (fun i ->
        Mem_device.create ~name:(Printf.sprintf "log%d" i)
          ~size:(512 * 1024) ())
  in
  Multi.create_logs logs;
  let seg_devs = Hashtbl.create 4 in
  let resolve id =
    match Hashtbl.find_opt seg_devs id with
    | Some d -> d
    | None ->
      let d =
        Mem_device.create ~name:(Printf.sprintf "seg%d" id)
          ~size:(64 * 1024) ()
      in
      Hashtbl.add seg_devs id d;
      d
  in
  let routing = Routing.modulo ~shards in
  let open_world () =
    let m = Multi.initialize ~routing ~logs ~resolve () in
    let vaddrs =
      Array.init segs (fun i ->
          let r = Multi.map m ~seg:(i + 1) ~seg_off:0 ~len:(2 * ps) () in
          r.Region.vaddr)
    in
    (m, vaddrs)
  in
  let m, vaddrs = open_world () in
  (m, vaddrs, open_world)

let read m ~addr ~len = Bytes.to_string (Multi.load m ~addr ~len)

let expect_error name f =
  match f () with
  | exception _ -> ()
  | _ -> Alcotest.failf "%s: expected an exception" name

let write_all m gtid vaddrs value =
  Array.iter
    (fun a -> Multi.modify m gtid ~addr:a (Bytes.of_string value))
    vaddrs

(* --- routing --- *)

let test_routing_modulo () =
  let r = Routing.modulo ~shards:3 in
  check_int "shards" 3 (Routing.shards r);
  check_int "seg 4" 1 (Routing.shard_of r ~seg:4);
  check_int "seg 9" 0 (Routing.shard_of r ~seg:9)

let test_routing_table () =
  let r = Routing.of_table ~shards:2 [ (5, 1); (6, 1) ] in
  check_int "explicit" 1 (Routing.shard_of r ~seg:5);
  check_int "fallback modulo" 0 (Routing.shard_of r ~seg:4)

let test_routing_rejects_bad () =
  let bad f = expect_error "rejected" f in
  bad (fun () -> ignore (Routing.modulo ~shards:0));
  bad (fun () -> ignore (Routing.of_table ~shards:2 [ (1, 2) ]));
  bad (fun () -> ignore (Routing.of_table ~shards:2 [ (1, 0); (1, 1) ]));
  bad (fun () -> ignore (Routing.shard_of (Routing.modulo ~shards:2) ~seg:(-1)))

(* --- single-shard equivalence --- *)

let test_single_shard_commit () =
  let m, v, _ = make_world ~shards:2 () in
  let g = Multi.begin_transaction m ~mode:Types.Restore in
  Multi.modify m g ~addr:v.(0) (Bytes.of_string "only-one");
  check_int "one shard touched" 1 (List.length (Multi.touched_shards m g));
  Multi.end_transaction m g ~mode:Types.Flush;
  check_str "visible" "only-one" (read m ~addr:v.(0) ~len:8);
  check_int "no cross-shard commit" 0 (Multi.cross_committed m);
  Multi.terminate m

let test_single_shard_durable () =
  let m, v, reopen = make_world ~shards:2 () in
  let g = Multi.begin_transaction m ~mode:Types.Restore in
  Multi.modify m g ~addr:v.(1) (Bytes.of_string "durable!");
  Multi.end_transaction m g ~mode:Types.Flush;
  (* Crash: reopen the same devices without terminating. *)
  let m2, v2 = reopen () in
  check_str "recovered" "durable!" (read m2 ~addr:v2.(1) ~len:8)

let test_single_shard_abort () =
  let m, v, _ = make_world ~shards:2 () in
  let g = Multi.begin_transaction m ~mode:Types.Restore in
  Multi.modify m g ~addr:v.(0) (Bytes.of_string "gone");
  Multi.abort_transaction m g;
  check_str "restored" "\000\000\000\000" (read m ~addr:v.(0) ~len:4);
  check_int "not a cross abort" 0 (Multi.cross_aborted m)

(* All shards map into one address space (section 4.1): a range already
   mapped on one shard is rejected on another, and routing is unchanged. *)
let test_map_rejects_cross_shard_overlap () =
  let m, v, _ = make_world ~shards:2 () in
  (* v.(1) is segment 2's region, on shard 0; segment 3 routes to shard 1. *)
  check_int "segment 2 on shard 0" 0 (Multi.shard_of_addr m ~addr:v.(1));
  let g = Multi.begin_transaction m ~mode:Types.Restore in
  Multi.modify m g ~addr:v.(1) (Bytes.of_string "shard-0");
  Multi.end_transaction m g ~mode:Types.Flush;
  (match Multi.map m ~vaddr:v.(1) ~seg:3 ~seg_off:0 ~len:(2 * ps) () with
  | exception Types.Rvm_error _ -> ()
  | _ -> Alcotest.fail "overlapping map on another shard accepted");
  check_int "shard 1 mapped nothing" 1
    (List.length (Rvm.regions (Multi.shard m 1)));
  check_int "still routed to shard 0" 0 (Multi.shard_of_addr m ~addr:v.(1));
  check_str "loads still reach shard 0" "shard-0" (read m ~addr:v.(1) ~len:7);
  Multi.terminate m

(* A log that cannot be opened fails the mount and names its shard. *)
let test_unopenable_log_names_its_shard () =
  let logs = Array.init 2 (fun _ -> Mem_device.create ~size:(64 * 1024) ()) in
  Rvm.create_log logs.(0);
  match
    Multi.initialize ~routing:(Routing.modulo ~shards:2) ~logs
      ~resolve:(fun _ -> Alcotest.fail "no segment is resolved")
      ()
  with
  | exception Types.Rvm_error msg ->
    check_str "the error" "shard 1: initialize: status block: bad magic" msg
  | _ -> Alcotest.fail "an unformatted log mounted"

(* --- cross-shard commit --- *)

let test_cross_shard_commit () =
  let m, v, _ = make_world ~shards:2 () in
  let g = Multi.begin_transaction m ~mode:Types.Restore in
  write_all m g v "both!";
  check_int "two shards" 2 (List.length (Multi.touched_shards m g));
  Multi.end_transaction m g ~mode:Types.Flush;
  check_str "shard 0 visible" "both!" (read m ~addr:v.(1) ~len:5);
  check_str "shard 1 visible" "both!" (read m ~addr:v.(0) ~len:5);
  check_int "one cross-shard commit" 1 (Multi.cross_committed m);
  Multi.terminate m

let test_cross_shard_durable_without_resolutions () =
  (* A flush-mode parallel commit acks at the implicit-commit point; the
     explicit resolutions are appended unforced. Crashing right then must
     still recover the transaction on every shard — that is the whole
     point of the status-resolution pass. *)
  let m, v, reopen = make_world ~shards:3 ~segs:3 () in
  let g = Multi.begin_transaction m ~mode:Types.Restore in
  write_all m g v "3-way";
  Multi.end_transaction m g ~mode:Types.Flush;
  let m2, v2 = reopen () in
  Array.iter
    (fun a -> check_str "recovered everywhere" "3-way" (read m2 ~addr:a ~len:5))
    v2

let test_cross_shard_recover_twice () =
  let m, v, reopen = make_world ~shards:2 () in
  let g = Multi.begin_transaction m ~mode:Types.Restore in
  write_all m g v "twice";
  Multi.end_transaction m g ~mode:Types.Flush;
  let m2, _ = reopen () in
  ignore m2;
  (* Second recovery of the same devices in the same process: the first
     one's status resolution and log emptying must leave a state that
     recovers again cleanly. *)
  let m3, v3 = reopen () in
  Array.iter
    (fun a -> check_str "still there" "twice" (read m3 ~addr:a ~len:5))
    v3;
  ignore (m, v)

let test_cross_shard_no_flush_then_flush () =
  let m, v, reopen = make_world ~shards:2 () in
  let g = Multi.begin_transaction m ~mode:Types.Restore in
  write_all m g v "spool";
  Multi.end_transaction m g ~mode:Types.No_flush;
  Multi.flush m;
  let m2, v2 = reopen () in
  Array.iter
    (fun a -> check_str "durable after flush" "spool" (read m2 ~addr:a ~len:5))
    v2

let test_cross_shard_abort_before_round () =
  let m, v, _ = make_world ~shards:2 () in
  let g = Multi.begin_transaction m ~mode:Types.Restore in
  write_all m g v "nope!";
  Multi.abort_transaction m g;
  Array.iter
    (fun a -> check_str "restored" "\000\000\000\000\000" (read m ~addr:a ~len:5))
    v;
  check_int "counted as cross abort" 1 (Multi.cross_aborted m);
  Multi.terminate m

let test_interleaved_single_and_cross () =
  let m, v, reopen = make_world ~shards:2 () in
  for i = 1 to 5 do
    let g = Multi.begin_transaction m ~mode:Types.Restore in
    let value = Printf.sprintf "c%04d" i in
    if i mod 2 = 0 then write_all m g v value
    else Multi.modify m g ~addr:v.(i mod 2) (Bytes.of_string value);
    Multi.end_transaction m g ~mode:Types.Flush
  done;
  let m2, v2 = reopen () in
  (* Odd iterations (last: 5) wrote only v.(1); even ones (last: 4) both. *)
  check_str "seg1 latest" "c0004" (read m2 ~addr:v2.(0) ~len:5);
  check_str "seg2 latest" "c0005" (read m2 ~addr:v2.(1) ~len:5)

(* --- crash images: partial evidence must abort, full must commit --- *)

(* Run a cross-shard commit but snapshot the log devices at a chosen point
   by copying their bytes; then mount the copies and recover. *)
let crash_copy devs =
  Array.map (fun d -> Mem_device.of_bytes (Device.read_bytes d ~off:0 ~len:d.Device.size)) devs

let make_cross_image () =
  let shards = 2 in
  let logs =
    Array.init shards (fun i ->
        Mem_device.create ~name:(Printf.sprintf "log%d" i)
          ~size:(512 * 1024) ())
  in
  Multi.create_logs logs;
  let seg_devs = Hashtbl.create 4 in
  let resolve id =
    match Hashtbl.find_opt seg_devs id with
    | Some d -> d
    | None ->
      let d =
        Mem_device.create ~name:(Printf.sprintf "seg%d" id)
          ~size:(64 * 1024) ()
      in
      Hashtbl.add seg_devs id d;
      d
  in
  let routing = Routing.modulo ~shards in
  let m = Multi.initialize ~routing ~logs ~resolve () in
  let v =
    Array.init 2 (fun i ->
        (Multi.map m ~seg:(i + 1) ~seg_off:0 ~len:(2 * ps) ()).Region.vaddr)
  in
  let g = Multi.begin_transaction m ~mode:Types.Restore in
  write_all m g v "XSHRD";
  Multi.end_transaction m g ~mode:Types.Flush;
  (* Crash image: both intents + staged record durable, resolutions not
     forced (they are sitting in the tail spools of [m], which we drop). *)
  let log_copy = crash_copy logs in
  (log_copy, resolve, routing, v)

let recover_image (logs, resolve, routing) =
  Multi.initialize ~clock:(Clock.simulated ()) ~routing ~logs ~resolve ()

let test_image_full_evidence_commits () =
  let logs, resolve, routing, v = make_cross_image () in
  let m = recover_image (logs, resolve, routing) in
  Array.iteri
    (fun i a ->
      let r = Multi.map m ~vaddr:a ~seg:(i + 1) ~seg_off:0 ~len:(2 * ps) () in
      ignore r)
    v;
  Array.iter
    (fun a -> check_str "implicit commit honored" "XSHRD" (read m ~addr:a ~len:5))
    v

let test_image_corrupt_intent_aborts () =
  (* Mutation detection (ISSUE satellite): flip one byte inside shard 1's
     intent record. Its checksum now fails, the record is invisible to the
     scanner, the implicit-commit condition is unprovable, and recovery
     must refuse the commit on EVERY shard. *)
  let logs, resolve, routing, v = make_cross_image () in
  (* Find shard 1's intent record offset by scanning the raw log. *)
  let lm =
    match Log_manager.open_log logs.(1) with
    | Ok lm -> lm
    | Error e -> Alcotest.failf "open_log: %s" e
  in
  let intent_off = ref (-1) in
  Log_manager.iter_live lm ~f:(fun ~off r ->
      match Pcommit.classify r with
      | `Control (Pcommit.Intent _) -> intent_off := off
      | _ -> ());
  check_bool "found the intent" true (!intent_off >= 0);
  (* Corrupt one payload byte mid-record (well past the 39-byte header). *)
  let b = Device.read_bytes logs.(1) ~off:(!intent_off + 45) ~len:1 in
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
  Device.write_bytes logs.(1) ~off:(!intent_off + 45) b;
  let m = recover_image (logs, resolve, routing) in
  Array.iteri
    (fun i a ->
      ignore (Multi.map m ~vaddr:a ~seg:(i + 1) ~seg_off:0 ~len:(2 * ps) ()))
    v;
  Array.iter
    (fun a ->
      check_str "refused on every shard" "\000\000\000\000\000"
        (read m ~addr:a ~len:5))
    v

let test_image_missing_stage_aborts () =
  (* Orphan abort: wipe the coordinator's log (shard 0 holds the staged
     record). Without it the implicit commit is unprovable even though
     shard 1's intent survived intact. Zero the whole device before
     formatting — a bare reformat leaves the old record bytes in place and
     the forward scan would adopt them again. *)
  let logs, resolve, routing, v = make_cross_image () in
  Device.write_bytes logs.(0) ~off:0
    (Bytes.make logs.(0).Device.size '\000');
  Rvm.create_log logs.(0);
  let m = recover_image (logs, resolve, routing) in
  Array.iteri
    (fun i a ->
      ignore (Multi.map m ~vaddr:a ~seg:(i + 1) ~seg_off:0 ~len:(2 * ps) ()))
    v;
  Array.iter
    (fun a ->
      check_str "orphan aborted" "\000\000\000\000\000" (read m ~addr:a ~len:5))
    v

(* --- the pure protocol core --- *)

let test_resolve_implicit_commit () =
  let e =
    { Parallel.staged = Some [ 0; 1; 2 ]; intents = [ 2; 0; 1 ];
      resolutions = [] }
  in
  check_bool "implicit commit" true (Parallel.resolve e = Pcommit.Committed)

let test_resolve_orphan_missing_stage () =
  let e = { Parallel.staged = None; intents = [ 0; 1 ]; resolutions = [] } in
  check_bool "orphan aborts" true (Parallel.resolve e = Pcommit.Aborted)

let test_resolve_orphan_missing_intent () =
  let e =
    { Parallel.staged = Some [ 0; 1 ]; intents = [ 0 ]; resolutions = [] }
  in
  check_bool "missing intent aborts" true (Parallel.resolve e = Pcommit.Aborted)

let test_resolve_explicit_wins () =
  (* An explicit resolution outranks the implicit evidence — even when the
     evidence alone would say the opposite. *)
  let e =
    { Parallel.staged = Some [ 0; 1 ]; intents = [ 0 ];
      resolutions = [ Pcommit.Committed ] }
  in
  check_bool "explicit commit wins" true (Parallel.resolve e = Pcommit.Committed);
  let e =
    { Parallel.staged = Some [ 0; 1 ]; intents = [ 0; 1 ];
      resolutions = [ Pcommit.Aborted ] }
  in
  check_bool "explicit abort wins" true (Parallel.resolve e = Pcommit.Aborted)

let test_resolve_contradiction_refuses () =
  let e =
    { Parallel.staged = None; intents = [];
      resolutions = [ Pcommit.Committed; Pcommit.Aborted ] }
  in
  expect_error "contradiction" (fun () -> ignore (Parallel.resolve e))

let test_state_machine_happy_path () =
  let open Parallel in
  let s = Pending in
  let s = Result.get_ok (step s Write_round) in
  let s = Result.get_ok (step s All_durable) in
  let s = Result.get_ok (step s (Resolve Pcommit.Committed)) in
  check_str "explicit" "explicit-commit" (state_name s);
  (* Idempotent re-resolution (one record per participant log). *)
  let s = Result.get_ok (step s (Resolve Pcommit.Committed)) in
  check_str "still explicit" "explicit-commit" (state_name s)

let test_state_machine_orphan_abort () =
  let open Parallel in
  let s = Result.get_ok (step Pending Write_round) in
  let s = Result.get_ok (step s (Resolve Pcommit.Aborted)) in
  check_str "aborted" "explicit-abort" (state_name s)

let test_state_machine_illegal_moves () =
  let open Parallel in
  let illegal s e = check_bool "illegal" true (Result.is_error (step s e)) in
  (* Committing before full durability is the protocol's forbidden move. *)
  illegal Staged_in_flight (Resolve Pcommit.Committed);
  illegal Pending (Resolve Pcommit.Committed);
  (* And aborting after the implicit-commit point is lost money. *)
  illegal Implicit (Resolve Pcommit.Aborted);
  illegal (Explicit Pcommit.Committed) (Resolve Pcommit.Aborted);
  illegal Pending All_durable

(* --- clock lanes --- *)

let test_lanes_overlap () =
  let c = Clock.simulated () in
  Clock.charge_cpu c 10.;
  let lanes = List.init 3 (fun _ -> Clock.lane ()) in
  List.iter2
    (fun lane us -> Clock.on_lane c lane (fun () -> Clock.charge_io c us))
    lanes [ 100.; 40.; 70. ];
  check_int "the dispatcher's clock waits for the join" 10
    (int_of_float (Clock.now_us c));
  Clock.join_lanes c lanes;
  (* Wall time = start + the slowest lane; io = sum of the lanes. *)
  check_int "wall" 110 (int_of_float (Clock.now_us c));
  check_int "io total" 210 (int_of_float (Clock.io_us c))

let test_lanes_null_clock () =
  let hits = ref 0 in
  let lanes = [ Clock.lane (); Clock.lane () ] in
  List.iter (fun lane -> Clock.on_lane Clock.null lane (fun () -> incr hits))
    lanes;
  Clock.join_lanes Clock.null lanes;
  check_int "branches ran" 2 !hits

(* --- long-run wrapping under background truncation (ISSUE 7 satellite,
   extending the PR 6 crash-truncated images) --- *)

(* 1e5 flush-mode transactions through a 2-shard engine with 64 KiB logs:
   each log wraps its capacity many times over (asserted >= 3x at the
   device layer), reclaimed exclusively by scheduler-style background
   stepping with the synchronous fallback at critical. Crash images are
   snapshotted at seeded arbitrary transaction indices — some with a
   truncation run suspended mid-flight — and each must recover to exactly
   the committed bytes at its snapshot, twice (recovery is deterministic). *)
let test_wrapping_background_truncation_recovery () =
  let module Rng = Rvm_util.Rng in
  let shards = 2 in
  let log_size = 64 * 1024 in
  let logs =
    Array.init shards (fun i ->
        Mem_device.create ~name:(Printf.sprintf "wrap-log%d" i) ~size:log_size ())
  in
  Multi.create_logs logs;
  let segs =
    Array.init shards (fun i ->
        Mem_device.create ~name:(Printf.sprintf "wrap-seg%d" i)
          ~size:(64 * 1024) ())
  in
  let routing =
    Routing.of_table ~shards (List.init shards (fun s -> (s + 1, s)))
  in
  let options =
    {
      Options.default with
      Options.truncation_mode = Types.Incremental;
      auto_truncate = false;
      truncation_threshold = 0.4;
    }
  in
  let m =
    Multi.initialize ~options ~routing ~logs
      ~resolve:(fun seg -> segs.(seg - 1))
      ()
  in
  let v =
    Array.init shards (fun i ->
        (Multi.map m ~seg:(i + 1) ~seg_off:0 ~len:(2 * ps) ()).Region.vaddr)
  in
  let rng = Rng.create ~seed:77L in
  let txns = 100_000 in
  let crash_at =
    let a = Array.init 4 (fun _ -> 1 + Rng.int rng txns) in
    Array.sort compare a;
    a
  in
  let region_bytes mm vs =
    Array.map (fun a -> Multi.load mm ~addr:a ~len:(2 * ps)) vs
  in
  let snapshots = ref [] in
  for i = 1 to txns do
    let g = Multi.begin_transaction m ~mode:Types.Restore in
    let off = Rng.int rng ((2 * ps) - 64) in
    let data = Bytes.make (1 + Rng.int rng 48) (Char.chr (65 + (i mod 26))) in
    if Rng.int rng 100 < 3 then
      (* Cross-shard: same bytes on both shards, one parallel commit. *)
      Array.iter (fun a -> Multi.modify m g ~addr:(a + off) data) v
    else Multi.modify m g ~addr:(v.(Rng.int rng shards) + off) data;
    Multi.end_transaction m g ~mode:Types.Flush;
    (* The scheduler's background slot, inlined: synchronous fallback at
       critical, otherwise one bounded step when due. *)
    if Multi.truncation_urgent m then Multi.truncate m
    else if Multi.truncation_due m then ignore (Multi.truncation_step m);
    if Array.exists (( = ) i) crash_at then
      snapshots :=
        (i, crash_copy logs, crash_copy segs, region_bytes m v) :: !snapshots
  done;
  Array.iter
    (fun (d : Device.t) ->
      check_bool "log wrapped at least 3x" true
        (d.Device.stats.Device.bytes_written >= 3 * log_size))
    logs;
  List.iter
    (fun (i, log_imgs, seg_imgs, expected) ->
      let recover () =
        let m2 =
          Multi.initialize ~options ~clock:(Clock.simulated ()) ~routing
            ~logs:log_imgs
            ~resolve:(fun seg -> seg_imgs.(seg - 1))
            ()
        in
        let v2 =
          Array.init shards (fun s ->
              (Multi.map m2 ~seg:(s + 1) ~seg_off:0 ~len:(2 * ps) ()).Region
                .vaddr)
        in
        region_bytes m2 v2
      in
      let once = recover () in
      let twice = recover () in
      Array.iteri
        (fun s b ->
          if not (Bytes.equal b once.(s)) then
            Alcotest.failf
              "crash at txn %d: shard %d recovered differently from the \
               committed image"
              i s;
          if not (Bytes.equal once.(s) twice.(s)) then
            Alcotest.failf "crash at txn %d: shard %d recovery not deterministic"
              i s)
        expected)
    !snapshots;
  Multi.terminate m

(* --- twopc recovery hygiene (recover twice in one process) --- *)

let test_twopc_recover_twice_no_leak () =
  let log_dev = Mem_device.create ~name:"log" ~size:(512 * 1024) () in
  Rvm.create_log log_dev;
  let seg_dev = Mem_device.create ~name:"seg" ~size:(128 * 1024) () in
  let open_rvm () =
    let rvm = Rvm.initialize ~log:log_dev ~resolve:(fun _ -> seg_dev) () in
    let r = Rvm.map rvm ~seg:1 ~seg_off:0 ~len:(4 * ps) () in
    (rvm, r)
  in
  let rvm, region = open_rvm () in
  let sub = Twopc.sub_create ~name:"site" rvm in
  let coord = Twopc.coordinator_create rvm ~decision_region:region in
  (* Leave a branch mid-flight, then "crash" and recover. *)
  Twopc.sub_begin sub "gid-1";
  Twopc.sub_modify sub "gid-1" ~addr:(region.Region.vaddr + 1024)
    (Bytes.of_string "half");
  let rvm2, region2 = open_rvm () in
  Twopc.sub_reset ~rvm:rvm2 sub;
  Twopc.coordinator_reset coord rvm2 ~decision_region:region2;
  check_int "no ghost branches" 0 (List.length (Twopc.sub_in_doubt sub));
  (* The same gid must be usable again — before the reset fix this raised
     "branch already active". *)
  Twopc.sub_begin sub "gid-1";
  Twopc.sub_modify sub "gid-1" ~addr:(region2.Region.vaddr + 1024)
    (Bytes.of_string "full");
  ignore (Twopc.sub_prepare sub "gid-1");
  Twopc.sub_commit sub "gid-1";
  (* Second recovery in the same process, same drill. *)
  let rvm3, region3 = open_rvm () in
  Twopc.sub_reset ~rvm:rvm3 sub;
  Twopc.coordinator_reset coord rvm3 ~decision_region:region3;
  check_int "still no ghosts" 0 (List.length (Twopc.sub_in_doubt sub));
  Twopc.sub_begin sub "gid-1";
  ignore (Twopc.sub_prepare sub "gid-1");
  Twopc.sub_commit sub "gid-1";
  ignore rvm

let test_twopc_decisions_survive_reset () =
  let log_dev = Mem_device.create ~name:"log" ~size:(512 * 1024) () in
  Rvm.create_log log_dev;
  let seg_dev = Mem_device.create ~name:"seg" ~size:(128 * 1024) () in
  let open_rvm () =
    let rvm = Rvm.initialize ~log:log_dev ~resolve:(fun _ -> seg_dev) () in
    let r = Rvm.map rvm ~seg:1 ~seg_off:0 ~len:(4 * ps) () in
    (rvm, r)
  in
  let rvm, region = open_rvm () in
  let subs = [ Twopc.sub_create ~name:"a" rvm ] in
  let coord = Twopc.coordinator_create rvm ~decision_region:region in
  let d =
    Twopc.run coord "gid-keep" ~participants:subs
      ~work:(fun s ->
        Twopc.sub_modify s "gid-keep" ~addr:(region.Region.vaddr + 2048)
          (Bytes.of_string "kept"))
      ()
  in
  check_bool "committed" true (d = Twopc.Committed);
  let rvm2, region2 = open_rvm () in
  Twopc.coordinator_reset coord rvm2 ~decision_region:region2;
  check_bool "decision durable across reset" true
    (Twopc.lookup_decision coord "gid-keep" = Some Twopc.Committed)

(* --- sharded recovery reads and lanes --- *)

module Stack = Rvm_disk.Stack
module Registry = Rvm_obs.Registry
module Cost_model = Rvm_util.Cost_model

(* Crash images (log and segment bytes) of a 2-shard world whose logs
   both hold records: one cross-shard commit, then [extra.(i)] flushed
   single-shard commits through segment [i + 1], then a no-flush
   cross-shard commit made durable by one flushed commit on each shard.
   The last one has no resolution, so recovery has one to append to
   each log. *)
let two_shard_images ~extra =
  let logs =
    Array.init 2 (fun i ->
        Mem_device.create ~name:(Printf.sprintf "log%d" i)
          ~size:(1024 * 1024) ())
  in
  Multi.create_logs logs;
  let segs = Array.init 2 (fun _ -> Mem_device.create ~size:(64 * 1024) ()) in
  let routing = Routing.modulo ~shards:2 in
  let m =
    Multi.initialize ~routing ~logs ~resolve:(fun id -> segs.(id - 1)) ()
  in
  let v =
    Array.init 2 (fun i ->
        (Multi.map m ~seg:(i + 1) ~seg_off:0 ~len:(2 * ps) ()).Region.vaddr)
  in
  let g = Multi.begin_transaction m ~mode:Types.Restore in
  write_all m g v "XSHRD";
  Multi.end_transaction m g ~mode:Types.Flush;
  Array.iteri
    (fun i n ->
      for k = 1 to n do
        let g = Multi.begin_transaction m ~mode:Types.No_restore in
        Multi.modify m g
          ~addr:(v.(i) + 8 + (k mod 100 * 64))
          (Bytes.make 64 (Char.chr (97 + (k mod 26))));
        Multi.end_transaction m g ~mode:Types.Flush
      done)
    extra;
  let g = Multi.begin_transaction m ~mode:Types.Restore in
  write_all m g v "NOFLU";
  Multi.end_transaction m g ~mode:Types.No_flush;
  Array.iter
    (fun a ->
      let g = Multi.begin_transaction m ~mode:Types.Restore in
      Multi.modify m g ~addr:(a + ps) (Bytes.of_string "force");
      Multi.end_transaction m g ~mode:Types.Flush)
    v;
  (Array.map Mem_device.snapshot logs, Array.map Mem_device.snapshot segs,
   routing)

let test_recovery_reads_and_lanes () =
  let logs, segs, routing = two_shard_images ~extra:[| 200; 600 |] in
  let live =
    Array.map
      (fun b ->
        Log_manager.used_bytes
          (Result.get_ok (Log_manager.open_log (Mem_device.of_bytes b))))
      logs
  in
  Array.iter (fun l -> check_bool "log non-empty" true (l > 0)) live;
  let clock = Clock.simulated () in
  let dec = Cost_model.dec5000 in
  let bases = Array.map (fun b -> Mem_device.of_bytes b) logs in
  let log_devs =
    Array.map (Stack.with_latency ~clock ~disk:dec.Cost_model.log_disk ()) bases
  in
  let seg_devs =
    Array.map
      (fun b ->
        Stack.with_latency ~clock ~disk:dec.Cost_model.data_disk ()
          (Mem_device.of_bytes b))
      segs
  in
  let obs = Registry.create () in
  let m =
    Multi.initialize ~clock ~model:dec ~obs ~routing ~logs:log_devs
      ~resolve:(fun id -> seg_devs.(id - 1))
      ()
  in
  let recovered = Clock.now_us clock in
  let v =
    Array.init 2 (fun i ->
        (Multi.map m ~seg:(i + 1) ~seg_off:0 ~len:(2 * ps) ()).Region.vaddr)
  in
  Array.iter
    (fun a -> check_str "the unresolved commit" "NOFLU" (read m ~addr:a ~len:5))
    v;
  (* Every read of a log device reaches the registry's disk.log layer, and
     each log is read once: by its shard's open. *)
  let device_read =
    Array.map (fun (d : Device.t) -> d.Device.stats.Device.bytes_read) bases
  in
  check_int "disk.log.bytes_read counts every log read"
    (Array.fold_left ( + ) 0 device_read)
    (Rvm_obs.Counter.get (Registry.counter obs "disk.log.bytes_read"));
  Array.iteri
    (fun i r ->
      check_bool
        (Printf.sprintf "log %d read %d <= live %d + one chunk" i r live.(i))
        true
        (r <= live.(i) + Log_manager.open_chunk))
    device_read;
  (* Three rounds on the shard lanes, each joined before the next: the
     clock advances by the slowest open, then the slowest resolution round
     (a shard's appends cost nothing; its drain and force do), then the
     slowest recovery. *)
  let roots scope =
    List.filter
      (fun (e : Registry.span_event) -> e.parent = None && e.scope = scope)
      (Registry.events obs)
  in
  let opens = roots "log.open" and recoveries = roots "recovery" in
  let drains = roots "log.drain" and forces = roots "log.force" in
  check_int "one open per shard" 2 (List.length opens);
  check_int "one resolution force per shard" 2 (List.length forces);
  check_int "one recovery per shard" 2 (List.length recoveries);
  let start = (List.hd opens).Registry.start_us in
  let finish (e : Registry.span_event) = e.start_us +. e.dur_us in
  let slowest f l = List.fold_left (fun acc e -> Float.max acc (f e)) 0. l in
  let starts_at what t =
    List.iter
      (fun (e : Registry.span_event) ->
        check_bool
          (Printf.sprintf "%s starts at %.1f us, not %.1f" what t e.start_us)
          true
          (abs_float (e.start_us -. t) <= 1.))
  in
  starts_at "every open" start opens;
  let resolving = start +. slowest (fun e -> e.Registry.dur_us) opens in
  starts_at "every resolution round" resolving drains;
  let rounds = List.map (fun e -> finish e -. resolving) forces in
  let recovering = resolving +. List.fold_left Float.max 0. rounds in
  starts_at "every recovery" recovering recoveries;
  let advance = recovered -. start in
  let phases =
    recovering -. start +. slowest (fun e -> e.Registry.dur_us) recoveries
  in
  check_bool
    (Printf.sprintf "advance %.1f us is the slowest phases' %.1f us" advance
       phases)
    true
    (abs_float (advance -. phases) <= 1.);
  let sum =
    List.fold_left ( +. ) 0.
      (List.map (fun e -> e.Registry.dur_us) (opens @ recoveries) @ rounds)
  in
  check_bool "not the sum" true (sum -. advance > 1.)

(* --- the incremental head move re-appends the pending intents it
   reclaims --- *)

(* The pre-planner incremental head move's two scans, kept as the
   reference: resolutions over the whole live log, then the intents in
   [head, upto) that no resolution settles and [decide] calls pending,
   oldest first. *)
let reference_pending_intents lm ~decide ~upto =
  let resolutions = Hashtbl.create 4 in
  Log_manager.iter_live lm ~f:(fun ~off:_ r ->
      if
        r.Record.kind = Record.Commit
        && Record.Flags.(has r.Record.flags resolution)
      then
        match Pcommit.classify r with
        | `Control (Pcommit.Resolution { gid; _ }) ->
          Hashtbl.replace resolutions gid ()
        | _ -> ());
  let pending gid =
    (not (Hashtbl.mem resolutions gid)) && decide gid = `Pending
  in
  let doomed = ref [] in
  (try
     Log_manager.iter_live lm ~f:(fun ~off r ->
         if off = upto then raise Exit;
         match Pcommit.classify r with
         | `Control (Pcommit.Intent { gid; _ }) when pending gid ->
           doomed := r :: !doomed
         | _ -> ())
   with Exit -> ());
  List.rev !doomed

let test_incremental_head_move_keeps_pending_intents () =
  let options =
    {
      Options.default with
      Options.truncation_mode = Types.Incremental;
      auto_truncate = false;
    }
  in
  let logs =
    Array.init 2 (fun i ->
        Mem_device.create ~name:(Printf.sprintf "log%d" i)
          ~size:(512 * 1024) ())
  in
  Multi.create_logs logs;
  let segs = Array.init 2 (fun _ -> Mem_device.create ~size:(64 * 1024) ()) in
  let m =
    Multi.initialize ~options ~routing:(Routing.modulo ~shards:2) ~logs
      ~resolve:(fun id -> segs.(id - 1))
      ()
  in
  (* Segment 1 lives on shard 1, segment 2 on shard 0. *)
  let on1 = (Multi.map m ~seg:1 ~seg_off:0 ~len:(2 * ps) ()).Region.vaddr in
  let on0 = (Multi.map m ~seg:2 ~seg_off:0 ~len:(2 * ps) ()).Region.vaddr in
  let commit_on1 s =
    let g = Multi.begin_transaction m ~mode:Types.Restore in
    Multi.modify m g ~addr:on1 (Bytes.of_string s);
    Multi.end_transaction m g ~mode:Types.Flush
  in
  commit_on1 "before";
  (* Two no-flush cross-shard rounds still in flight (no global flush has
     resolved them). Their shard-1 branches write nothing, so their
     intents there hold no page and the incremental run can reclaim them. *)
  for i = 1 to 2 do
    let g = Multi.begin_transaction m ~mode:Types.Restore in
    Multi.modify m g ~addr:(on0 + (8 * i)) (Bytes.of_string "cross");
    Multi.set_range m g ~addr:on1 ~len:0;
    Multi.end_transaction m g ~mode:Types.No_flush
  done;
  commit_on1 "after";
  let shard1 = Multi.shard m 1 in
  let lm = Rvm.log_manager shard1 in
  (* Every gid without a resolution is in flight here. *)
  let expected =
    reference_pending_intents lm ~decide:(fun _ -> `Pending)
      ~upto:(Log_manager.tail lm)
  in
  check_int "two pending intents in the reclaimed window" 2
    (List.length expected);
  let old_tail = Log_manager.tail lm in
  Rvm.truncate shard1;
  check_int "the head moved to the old tail" old_tail (Log_manager.head lm);
  let reappended =
    List.filter_map
      (fun (_, r) ->
        match Pcommit.classify r with
        | `Control (Pcommit.Intent _) -> Some r
        | _ -> None)
      (Log_manager.live_records lm)
  in
  let unstamped =
    List.map (fun (r : Record.t) -> { r with Record.seqno = 0 })
  in
  check_bool "the planner re-appends exactly the reference's intents" true
    (unstamped reappended = unstamped expected);
  (* The protocol still completes: the global flush resolves both. *)
  Multi.flush m;
  check_str "cross writes visible" "cross"
    (read m ~addr:(on0 + 8) ~len:5)

(* An epoch on one shard re-appends the intents still in flight there,
   and the re-appended copies must reach the page queue: after the epoch
   they are the only live records referencing their ranges. The
   incremental run that later empties the log must write those pages,
   or recovery loses the committed bytes. *)
let test_epoch_reappended_intents_are_queued () =
  let options =
    {
      Options.default with
      Options.truncation_mode = Types.Incremental;
      auto_truncate = false;
    }
  in
  let logs =
    Array.init 2 (fun i ->
        Mem_device.create ~name:(Printf.sprintf "log%d" i)
          ~size:(512 * 1024) ())
  in
  Multi.create_logs logs;
  let segs = Array.init 2 (fun _ -> Mem_device.create ~size:(64 * 1024) ()) in
  let open_world () =
    let m =
      Multi.initialize ~options ~routing:(Routing.modulo ~shards:2) ~logs
        ~resolve:(fun id -> segs.(id - 1))
        ()
    in
    (* Segment 1 lives on shard 1, segment 2 on shard 0. *)
    let on1 = (Multi.map m ~seg:1 ~seg_off:0 ~len:(2 * ps) ()).Region.vaddr in
    let on0 = (Multi.map m ~seg:2 ~seg_off:0 ~len:(2 * ps) ()).Region.vaddr in
    (m, on0, on1)
  in
  let m, on0, on1 = open_world () in
  let g = Multi.begin_transaction m ~mode:Types.Restore in
  Multi.modify m g ~addr:(on0 + 100) (Bytes.of_string "intent-on-0");
  Multi.modify m g ~addr:(on1 + ps + 100) (Bytes.of_string "intent-on-1");
  Multi.end_transaction m g ~mode:Types.No_flush;
  let shard0 = Multi.shard m 0 in
  let lm = Rvm.log_manager shard0 in
  let old_tail = Log_manager.tail lm in
  Rvm.set_options shard0 (fun o ->
      { o with Options.truncation_mode = Types.Epoch });
  Rvm.truncate shard0;
  check_int "the epoch moved the head to its freeze" old_tail
    (Log_manager.head lm);
  check_bool "the pending intent was re-appended" true
    (List.exists
       (fun (_, r) ->
         match Pcommit.classify r with
         | `Control (Pcommit.Intent _) -> true
         | _ -> false)
       (Log_manager.live_records lm));
  Multi.flush m;
  check_str "committed" "intent-on-0" (read m ~addr:(on0 + 100) ~len:11);
  Rvm.set_options shard0 (fun o ->
      { o with Options.truncation_mode = Types.Incremental });
  Multi.truncate m;
  let m2, on0', on1' = open_world () in
  check_str "shard 0's bytes survive" "intent-on-0"
    (read m2 ~addr:(on0' + 100) ~len:11);
  check_str "shard 1's bytes survive" "intent-on-1"
    (read m2 ~addr:(on1' + ps + 100) ~len:11)

let suite =
  [
    Alcotest.test_case "routing: modulo" `Quick test_routing_modulo;
    Alcotest.test_case "routing: table" `Quick test_routing_table;
    Alcotest.test_case "routing: validation" `Quick test_routing_rejects_bad;
    Alcotest.test_case "single-shard commit" `Quick test_single_shard_commit;
    Alcotest.test_case "single-shard durable" `Quick test_single_shard_durable;
    Alcotest.test_case "single-shard abort" `Quick test_single_shard_abort;
    Alcotest.test_case "map rejects a cross-shard overlap" `Quick
      test_map_rejects_cross_shard_overlap;
    Alcotest.test_case "an unopenable log names its shard" `Quick
      test_unopenable_log_names_its_shard;
    Alcotest.test_case "cross-shard commit" `Quick test_cross_shard_commit;
    Alcotest.test_case "cross-shard durable before resolutions" `Quick
      test_cross_shard_durable_without_resolutions;
    Alcotest.test_case "cross-shard recover twice" `Quick
      test_cross_shard_recover_twice;
    Alcotest.test_case "cross-shard no-flush + flush" `Quick
      test_cross_shard_no_flush_then_flush;
    Alcotest.test_case "cross-shard abort before round" `Quick
      test_cross_shard_abort_before_round;
    Alcotest.test_case "interleaved single and cross" `Quick
      test_interleaved_single_and_cross;
    Alcotest.test_case "image: full evidence commits" `Quick
      test_image_full_evidence_commits;
    Alcotest.test_case "image: corrupt intent refuses commit" `Quick
      test_image_corrupt_intent_aborts;
    Alcotest.test_case "image: missing staged record aborts" `Quick
      test_image_missing_stage_aborts;
    Alcotest.test_case "resolve: implicit commit" `Quick
      test_resolve_implicit_commit;
    Alcotest.test_case "resolve: orphan, no staged record" `Quick
      test_resolve_orphan_missing_stage;
    Alcotest.test_case "resolve: orphan, missing intent" `Quick
      test_resolve_orphan_missing_intent;
    Alcotest.test_case "resolve: explicit wins" `Quick
      test_resolve_explicit_wins;
    Alcotest.test_case "resolve: contradiction refuses" `Quick
      test_resolve_contradiction_refuses;
    Alcotest.test_case "state machine: happy path" `Quick
      test_state_machine_happy_path;
    Alcotest.test_case "state machine: orphan abort" `Quick
      test_state_machine_orphan_abort;
    Alcotest.test_case "state machine: illegal moves" `Quick
      test_state_machine_illegal_moves;
    Alcotest.test_case "clock: lanes overlap" `Quick test_lanes_overlap;
    Alcotest.test_case "clock: lanes on a null clock" `Quick
      test_lanes_null_clock;
    Alcotest.test_case "wrapping log, background truncation, crash recovery"
      `Slow test_wrapping_background_truncation_recovery;
    Alcotest.test_case "recovery: every log read counted, shards on lanes"
      `Quick test_recovery_reads_and_lanes;
    Alcotest.test_case "incremental head move keeps pending intents" `Quick
      test_incremental_head_move_keeps_pending_intents;
    Alcotest.test_case "epoch queues re-appended intents" `Quick
      test_epoch_reappended_intents_are_queued;
    Alcotest.test_case "twopc: recover twice, no leak" `Quick
      test_twopc_recover_twice_no_leak;
    Alcotest.test_case "twopc: decisions survive reset" `Quick
      test_twopc_decisions_survive_reset;
  ]
