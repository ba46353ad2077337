(* Unit tests for Rvm_disk: device contract across the four implementations,
   crash semantics, torn writes, fail-stop injection, simulated timing. *)

open Rvm_disk
module Rng = Rvm_util.Rng
module Clock = Rvm_util.Clock
module Cost_model = Rvm_util.Cost_model

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let read_str dev ~off ~len =
  Bytes.to_string (Device.read_bytes dev ~off ~len)

(* The basic contract every device must satisfy. *)
let contract (dev : Device.t) =
  Device.write_string dev ~off:10 "hello";
  check_str "read back" "hello" (read_str dev ~off:10 ~len:5);
  Device.write_string dev ~off:12 "LL";
  check_str "partial overwrite" "heLLo" (read_str dev ~off:10 ~len:5);
  dev.Device.sync ();
  check_str "after sync" "heLLo" (read_str dev ~off:10 ~len:5);
  (* Bounds checking. *)
  let bad f = try f () ; false with Device.Io_error _ -> true in
  check_bool "read past end" true
    (bad (fun () -> ignore (Device.read_bytes dev ~off:(dev.Device.size - 2) ~len:4)));
  check_bool "negative offset" true
    (bad (fun () -> ignore (Device.read_bytes dev ~off:(-1) ~len:1)))

let test_mem_contract () = contract (Mem_device.create ~size:4096 ())

let test_file_contract () =
  let path = Filename.temp_file "rvm_test" ".dev" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let dev = File_device.create ~path ~size:4096 () in
      contract dev;
      dev.Device.close ())

let test_crash_contract () =
  contract (Crash_device.device (Crash_device.create ~size:4096 ()))

let test_sim_contract () =
  let base = Mem_device.create ~size:4096 () in
  let clock = Clock.simulated () in
  let sim =
    Sim_device.create ~base ~clock ~disk:Cost_model.dec5000.Cost_model.data_disk ()
  in
  contract (Sim_device.device sim)

let test_file_persistence () =
  let path = Filename.temp_file "rvm_test" ".dev" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let dev = File_device.create ~path ~size:1024 () in
      Device.write_string dev ~off:100 "persist me";
      dev.Device.sync ();
      dev.Device.close ();
      let dev2 = File_device.open_existing ~path in
      check_int "size recovered" 1024 dev2.Device.size;
      check_str "contents recovered" "persist me" (read_str dev2 ~off:100 ~len:10);
      dev2.Device.close ())

let test_crash_loses_unsynced () =
  let c = Crash_device.create ~size:1024 () in
  let dev = Crash_device.device c in
  Device.write_string dev ~off:0 "durable";
  dev.Device.sync ();
  Device.write_string dev ~off:0 "volatil";
  check_str "volatile visible before crash" "volatil" (read_str dev ~off:0 ~len:7);
  Crash_device.crash c;
  check_str "durable survives" "durable" (read_str dev ~off:0 ~len:7)

let test_crash_pending_count () =
  let c = Crash_device.create ~size:1024 () in
  let dev = Crash_device.device c in
  check_int "initially clean" 0 (Crash_device.pending_writes c);
  Device.write_string dev ~off:0 "a";
  Device.write_string dev ~off:1 "b";
  check_int "two pending" 2 (Crash_device.pending_writes c);
  dev.Device.sync ();
  check_int "sync clears" 0 (Crash_device.pending_writes c)

let test_crash_torn_prefix () =
  (* A torn crash keeps a prefix of the pending writes: the surviving state
     must always be one of the states the write sequence passed through,
     possibly with the next write cut mid-way. *)
  let rng = Rng.create ~seed:11L in
  for _ = 1 to 50 do
    let c = Crash_device.create ~size:64 () in
    let dev = Crash_device.device c in
    Device.write_string dev ~off:0 "AAAA";
    dev.Device.sync ();
    Device.write_string dev ~off:0 "BBBB";
    Device.write_string dev ~off:0 "CCCC";
    Crash_device.crash_torn c ~rng;
    let s = read_str dev ~off:0 ~len:4 in
    let valid =
      (* Full states, or a torn boundary between consecutive states. *)
      List.exists
        (fun (prev, next) ->
          List.exists
            (fun k -> s = String.sub next 0 k ^ String.sub prev k (4 - k))
            [ 0; 1; 2; 3; 4 ])
        [ ("AAAA", "BBBB"); ("BBBB", "CCCC") ]
    in
    check_bool (Printf.sprintf "torn state %s valid" s) true valid
  done

let test_crash_torn_becomes_durable () =
  let rng = Rng.create ~seed:3L in
  let c = Crash_device.create ~size:16 () in
  let dev = Crash_device.device c in
  Device.write_string dev ~off:0 "XY";
  Crash_device.crash_torn c ~rng;
  let after_crash = read_str dev ~off:0 ~len:2 in
  (* A second, clean crash must not change what the first crash left. *)
  Crash_device.crash c;
  check_str "stable across re-crash" after_crash (read_str dev ~off:0 ~len:2)

(* Regression: crash_torn is a pure function of the RNG stream — the same
   seed over the same write sequence must yield the identical durable
   image. The crash-point explorer's reproducibility (same --seed, same
   counterexample) depends on this. *)
let test_crash_torn_deterministic () =
  let run seed =
    let rng = Rng.create ~seed in
    let c = Crash_device.create ~size:256 () in
    let dev = Crash_device.device c in
    Device.write_string dev ~off:0 (String.make 64 'a');
    dev.Device.sync ();
    for i = 0 to 9 do
      Device.write_string dev ~off:(i * 20) (String.make 40 (Char.chr (Char.code 'A' + i)))
    done;
    Crash_device.crash_torn c ~rng;
    read_str dev ~off:0 ~len:256
  in
  List.iter
    (fun seed ->
      check_str
        (Printf.sprintf "seed %Ld reproducible" seed)
        (run seed) (run seed))
    [ 0L; 1L; 17L; 123456789L ];
  check_bool "different seeds eventually differ" true
    (run 1L <> run 2L || run 1L <> run 17L)

(* Regression: a torn write keeps an in-order prefix — no byte past the
   kept prefix of the torn write, and no later pending write, may reach
   the durable image. *)
let test_crash_torn_prefix_only () =
  let size = 128 in
  for seed = 1 to 100 do
    let rng = Rng.create ~seed:(Int64.of_int seed) in
    let c = Crash_device.create ~size () in
    let dev = Crash_device.device c in
    let background = String.make size '.' in
    Device.write_string dev ~off:0 background;
    dev.Device.sync ();
    (* Three overlapping pending writes with distinct fill bytes. *)
    let writes = [ (10, String.make 50 'A'); (40, String.make 50 'B'); (5, String.make 30 'C') ] in
    List.iter (fun (off, s) -> Device.write_string dev ~off s) writes;
    Crash_device.crash_torn c ~rng;
    let img = read_str dev ~off:0 ~len:size in
    (* Enumerate every legal outcome: k full writes plus 0..len bytes of
       write k, applied to the durable background. *)
    let legal = ref [] in
    let base = Bytes.of_string background in
    let states = ref [ Bytes.copy base ] in
    List.iteri
      (fun k (off, s) ->
        let prev = List.nth !states k in
        for keep = 0 to String.length s do
          let b = Bytes.copy prev in
          Bytes.blit_string s 0 b off keep;
          legal := Bytes.to_string b :: !legal
        done;
        let full = Bytes.copy prev in
        Bytes.blit_string s 0 full off (String.length s);
        states := !states @ [ full ])
      writes;
    check_bool
      (Printf.sprintf "seed %d produced a legal prefix state" seed)
      true
      (List.mem img !legal)
  done

let test_trace_device_replay () =
  let rec_ = Trace_device.create_recorder () in
  let inner = Mem_device.create ~size:64 () in
  Device.write_string inner ~off:0 "base";
  let t = Trace_device.wrap rec_ inner in
  let dev = Trace_device.device t in
  Device.write_string dev ~off:0 "AAAA";
  dev.Device.sync ();
  Device.write_string dev ~off:2 "BBBB";
  let events = Trace_device.events rec_ in
  check_int "three events" 3 (Array.length events);
  check_int "two writes" 2 (Trace_device.write_count rec_);
  check_int "one sync" 1 (Trace_device.sync_count rec_);
  let img ?torn upto =
    Bytes.to_string
      (Bytes.sub (Trace_device.image t ~events ~upto ?torn ()) 0 8)
  in
  check_str "initial image predates wrapping writes" "base\000\000\000\000" (img 0);
  check_str "after first write" "AAAA\000\000\000\000" (img 1);
  check_str "sync changes nothing" "AAAA\000\000\000\000" (img 2);
  check_str "after second write" "AABBBB\000\000" (img 3);
  check_str "torn second write" "AABB\000\000\000\000" (img 2 ~torn:2);
  (* The live inner device is not disturbed by replay. *)
  check_str "live device untouched" "AABBBB" (read_str dev ~off:0 ~len:6)

let test_fail_stop () =
  let c = Crash_device.create ~size:1024 () in
  let dev = Crash_device.device c in
  Crash_device.fail_after c ~ops:2;
  Device.write_string dev ~off:0 "a";
  Device.write_string dev ~off:1 "b";
  Alcotest.check_raises "third op fails" (Device.Io_error "injected failure")
    (fun () -> Device.write_string dev ~off:2 "c");
  Crash_device.disarm c;
  Device.write_string dev ~off:2 "c";
  check_str "recovers after disarm" "abc" (read_str dev ~off:0 ~len:3)

let test_sim_charges_reads () =
  let base = Mem_device.create ~size:65536 () in
  let clock = Clock.simulated () in
  let disk = Cost_model.dec5000.Cost_model.data_disk in
  let sim = Sim_device.create ~base ~clock ~disk () in
  let dev = Sim_device.device sim in
  let t0 = Clock.now_us clock in
  ignore (Device.read_bytes dev ~off:0 ~len:4096);
  let dt = Clock.now_us clock -. t0 in
  let expect = Cost_model.disk_service_us disk ~bytes:4096 () in
  Alcotest.(check (float 1e-6)) "read charged" expect dt;
  check_int "one io" 1 (Sim_device.io_count sim)

let test_sim_write_buffering () =
  (* Writes cost nothing until sync; sync charges one force for all dirty
     bytes; an empty sync charges nothing. *)
  let base = Mem_device.create ~size:65536 () in
  let clock = Clock.simulated () in
  let disk = Cost_model.dec5000.Cost_model.log_disk in
  let sim = Sim_device.create ~base ~clock ~disk () in
  let dev = Sim_device.device sim in
  Device.write_string dev ~off:0 (String.make 100 'x');
  Device.write_string dev ~off:100 (String.make 200 'y');
  Alcotest.(check (float 0.)) "writes free until sync" 0. (Clock.now_us clock);
  dev.Device.sync ();
  let expect = Cost_model.disk_service_us disk ~bytes:300 () in
  Alcotest.(check (float 1e-6)) "sync pays accumulated" expect (Clock.now_us clock);
  let t1 = Clock.now_us clock in
  dev.Device.sync ();
  Alcotest.(check (float 1e-6)) "clean sync free" t1 (Clock.now_us clock)

let test_sim_one_request_at_a_time () =
  (* A sync issued on a lane and one issued by the dispatcher right after
     share one disk: the second starts when the first ends, and its
     issuer is charged the wait as I/O. Busy time counts service only. *)
  let base = Mem_device.create ~size:65536 () in
  let clock = Clock.simulated () in
  let disk = Cost_model.dec5000.Cost_model.log_disk in
  let sim = Sim_device.create ~base ~clock ~disk () in
  let dev = Sim_device.device sim in
  let service = Cost_model.disk_service_us disk ~bytes:300 () in
  let lane = Clock.lane () in
  Device.write_string dev ~off:0 (String.make 300 'a');
  Clock.on_lane clock lane (fun () -> dev.Device.sync ());
  Alcotest.(check (float 0.)) "the dispatcher did not wait" 0.
    (Clock.now_us clock);
  Alcotest.(check (float 1e-6)) "the lane's sync ends" service !lane;
  Device.write_string dev ~off:300 (String.make 300 'b');
  dev.Device.sync ();
  Alcotest.(check (float 1e-6)) "the later sync runs after it"
    (2. *. service) (Clock.now_us clock);
  (* I/O: the lane's service, then the dispatcher's wait and service. *)
  Alcotest.(check (float 1e-6)) "the wait is charged as I/O"
    (3. *. service) (Clock.io_us clock);
  Alcotest.(check (float 1e-6)) "busy counts service only" (2. *. service)
    (Sim_device.busy_us sim);
  check_int "two ios" 2 (Sim_device.io_count sim)

(* A snapshot is a read of the whole device through the device itself:
   it works on any memory device, and a layer above the store sees it. *)
let test_mem_snapshot () =
  let dev = Mem_device.create ~size:32 () in
  Device.write_string dev ~off:0 "snapshot";
  let snap = Mem_device.snapshot dev in
  Device.write_string dev ~off:0 "????????";
  check_str "snapshot is a copy" "snapshot"
    (Bytes.to_string (Bytes.sub snap 0 8));
  let image = Mem_device.of_bytes (Bytes.of_string "an image") in
  check_str "of_bytes device snapshots" "an image"
    (Bytes.to_string (Mem_device.snapshot image));
  let counted = Stack.with_stats () dev in
  check_str "snapshot reads through a layer" "????????"
    (Bytes.to_string (Bytes.sub (Mem_device.snapshot counted) 0 8));
  check_int "one read in the layer's stats" 1 counted.Device.stats.Device.reads;
  check_int "the whole device read" 32 counted.Device.stats.Device.bytes_read

(* Regression for the fd leak: the old hand-rolled Crash_device dropped
   [close], so a crash layer over a File_device never released the fd. The
   combinator rebuild forwards [close] by construction. *)
let test_crash_forwards_close () =
  let path = Filename.temp_file "rvm_test" ".dev" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let file = File_device.create ~path ~size:1024 () in
      let c = Crash_device.create ~base:file ~size:1024 () in
      let dev = Crash_device.device c in
      Device.write_string dev ~off:0 "x";
      dev.Device.sync ();
      dev.Device.close ();
      (* The fd is gone: the base device now fails. *)
      let raised =
        try
          ignore (Device.read_bytes file ~off:0 ~len:1);
          false
        with Device.Io_error _ -> true
      in
      check_bool "close reached the file device" true raised)

(* One stack, every layer's accounting checked independently:
   trace ∘ faults ∘ stats ∘ latency ∘ mem. *)
let test_stack_composition () =
  let obs = Rvm_obs.Registry.create () in
  let recorder = Trace_device.create_recorder () in
  let clock = Clock.simulated () in
  let faults = Stack.faults () in
  let base = Mem_device.create ~size:4096 () in
  let dev =
    Stack.compose
      [
        Stack.with_trace recorder;
        Stack.with_faults faults;
        Stack.with_stats ~obs ~prefix:"mid" ();
        Stack.with_latency ~clock
          ~disk:Cost_model.dec5000.Cost_model.log_disk ();
      ]
      base
  in
  (* Wrapping for trace snapshots the initial image — one full read through
     every layer below. Count from here. *)
  Rvm_obs.Registry.reset obs;
  let reads0 = base.Device.stats.Device.reads in
  Device.write_string dev ~off:0 "abcd";
  Device.write_string dev ~off:8 "efgh";
  dev.Device.sync ();
  ignore (Device.read_bytes dev ~off:0 ~len:4);
  check_str "data lands in the base" "abcd" (read_str base ~off:0 ~len:4);
  (* Innermost: the mem device's own stat record saw every op (the direct
     [read_str] probe above adds one read). *)
  check_int "base writes" 2 base.Device.stats.Device.writes;
  check_int "base reads" 2 (base.Device.stats.Device.reads - reads0);
  check_int "base syncs" 1 base.Device.stats.Device.syncs;
  (* Latency layer: the sync charged simulated time. *)
  check_bool "latency charged the clock" true (Clock.now_us clock > 0.);
  (* Stats layer: registry counters. *)
  let g name = Rvm_obs.Counter.get (Rvm_obs.Registry.counter obs name) in
  check_int "mid.writes" 2 (g "mid.writes");
  check_int "mid.reads" 1 (g "mid.reads");
  check_int "mid.syncs" 1 (g "mid.syncs");
  check_int "mid.bytes_written" 8 (g "mid.bytes_written");
  check_int "mid.bytes_read" 4 (g "mid.bytes_read");
  (* Trace layer: writes and syncs recorded, reads not. *)
  check_int "trace writes" 2 (Trace_device.write_count recorder);
  check_int "trace syncs" 1 (Trace_device.sync_count recorder);
  (* Fault layer: arming makes the next op fail through the whole stack,
     and nothing below it sees the op. *)
  Stack.fail_after faults ~ops:0;
  Alcotest.check_raises "fault fires" (Device.Io_error "injected failure")
    (fun () -> Device.write_string dev ~off:0 "nope");
  check_int "failed op never reached stats layer" 2 (g "mid.writes");
  check_int "failed op never reached base" 2 base.Device.stats.Device.writes;
  Stack.disarm faults;
  Device.write_string dev ~off:0 "okay";
  check_int "disarmed stack flows again" 3 (g "mid.writes")

(* The layer default preserves the base name, so an [Io_error] raised
   anywhere in a stack names the device underneath. *)
let test_layer_preserves_name () =
  let base = Mem_device.create ~size:64 () in
  let dev = Stack.with_stats () base in
  check_str "name forwarded" base.Device.name dev.Device.name

let suite =
  [
    ("mem.contract", `Quick, test_mem_contract);
    ("file.contract", `Quick, test_file_contract);
    ("crash.contract", `Quick, test_crash_contract);
    ("sim.contract", `Quick, test_sim_contract);
    ("file.persistence", `Quick, test_file_persistence);
    ("crash.loses-unsynced", `Quick, test_crash_loses_unsynced);
    ("crash.pending-count", `Quick, test_crash_pending_count);
    ("crash.torn-prefix", `Quick, test_crash_torn_prefix);
    ("crash.torn-durable", `Quick, test_crash_torn_becomes_durable);
    ("crash.torn-deterministic", `Quick, test_crash_torn_deterministic);
    ("crash.torn-prefix-only", `Quick, test_crash_torn_prefix_only);
    ("trace.replay", `Quick, test_trace_device_replay);
    ("crash.fail-stop", `Quick, test_fail_stop);
    ("sim.charges-reads", `Quick, test_sim_charges_reads);
    ("sim.write-buffering", `Quick, test_sim_write_buffering);
    ("sim.one-request-at-a-time", `Quick, test_sim_one_request_at_a_time);
    ("mem.snapshot", `Quick, test_mem_snapshot);
    ("crash.forwards-close", `Quick, test_crash_forwards_close);
    ("stack.composition", `Quick, test_stack_composition);
    ("stack.preserves-name", `Quick, test_layer_preserves_name);
  ]
