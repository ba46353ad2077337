(* Unit tests for Rvm_log: record wire format (Figure 5), status block,
   circular log manager (append, scan, wrap, head movement, torn tails). *)

open Rvm_log
module Device = Rvm_disk.Device
module Mem_device = Rvm_disk.Mem_device
module Crash_device = Rvm_disk.Crash_device
module Rng = Rvm_util.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let range seg off s =
  { Record.seg; off; data = Bytes.of_string s }

let mk_commit ?(seqno = 0) ?(tid = 1) ?(flags = 0) ranges =
  Record.commit ~seqno ~tid ~flags ranges

(* --- Record format --- *)

let test_record_roundtrip () =
  let r =
    mk_commit ~seqno:7 ~tid:42 ~flags:Record.Flags.no_flush
      [ range 1 100 "alpha"; range 2 0 "beta!"; range 1 4096 "" ]
  in
  let enc = Record.encode r in
  check_int "encoded size" (Record.encoded_size r) (Bytes.length enc);
  match Record.decode enc ~pos:0 with
  | None -> Alcotest.fail "decode failed"
  | Some (r', total) ->
    check_int "total" (Bytes.length enc) total;
    check_int "seqno" 7 r'.Record.seqno;
    check_int "tid" 42 r'.Record.tid;
    check_int "flags" Record.Flags.no_flush r'.Record.flags;
    check_int "ranges" 3 (List.length r'.Record.ranges);
    List.iter2
      (fun a b ->
        check_int "seg" a.Record.seg b.Record.seg;
        check_int "off" a.Record.off b.Record.off;
        Alcotest.(check string)
          "data"
          (Bytes.to_string a.Record.data)
          (Bytes.to_string b.Record.data))
      r.Record.ranges r'.Record.ranges

let test_record_roundtrip_at_offset () =
  let r = mk_commit [ range 3 9 "xyz" ] in
  let enc = Record.encode r in
  let buf = Bytes.make (Bytes.length enc + 64) '\xAA' in
  Bytes.blit enc 0 buf 17 (Bytes.length enc);
  match Record.decode buf ~pos:17 with
  | Some (r', _) -> check_int "tid" 1 r'.Record.tid
  | None -> Alcotest.fail "decode at offset failed"

let test_record_backward () =
  let r = mk_commit ~seqno:9 [ range 1 0 "abcdef" ] in
  let enc = Record.encode r in
  let buf = Bytes.make (Bytes.length enc + 10) '\x00' in
  Bytes.blit enc 0 buf 10 (Bytes.length enc);
  match Record.decode_backward buf ~end_pos:(Bytes.length buf) with
  | Some (r', start) ->
    check_int "start" 10 start;
    check_int "seqno" 9 r'.Record.seqno
  | None -> Alcotest.fail "backward decode failed"

let test_record_corruption_detected () =
  let r = mk_commit [ range 1 0 "payload bytes here" ] in
  let enc = Record.encode r in
  (* Flip each byte in turn; decode must never return a record that differs
     from the original silently — CRC catches all single-byte flips. *)
  for i = 0 to Bytes.length enc - 1 do
    let b = Bytes.copy enc in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
    match Record.decode b ~pos:0 with
    | None -> ()
    | Some _ -> Alcotest.failf "flip at %d accepted" i
  done

let test_record_truncation_detected () =
  let r = mk_commit [ range 1 0 "some payload" ] in
  let enc = Record.encode r in
  for keep = 0 to Bytes.length enc - 1 do
    let b = Bytes.sub enc 0 keep in
    check_bool "truncated rejected" true (Record.decode b ~pos:0 = None)
  done

let test_wrap_record () =
  let w = Record.wrap ~seqno:3 ~pad:100 in
  check_int "size" (Record.wrap_size + 100) (Record.encoded_size w);
  let enc = Record.encode w in
  match Record.decode enc ~pos:0 with
  | Some (w', total) ->
    check_bool "kind" true (w'.Record.kind = Record.Wrap);
    check_int "pad" 100 w'.Record.pad;
    check_int "total" (Record.wrap_size + 100) total
  | None -> Alcotest.fail "wrap decode failed"

(* --- Status block --- *)

let test_status_roundtrip () =
  let st =
    { Status.log_size = 1 lsl 20; data_start = 512; head = 9999;
      head_seqno = 123; truncations = 7 }
  in
  match Status.decode (Status.encode st) with
  | Ok st' -> check_bool "equal" true (st = st')
  | Error e -> Alcotest.fail e

let test_status_corruption () =
  let st = Status.initial ~log_size:4096 in
  let b = Status.encode st in
  Bytes.set b 20 '\xFF';
  match Status.decode b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt status accepted"

(* --- Log manager --- *)

let fresh_log ?(size = 64 * 1024) () =
  let dev = Mem_device.create ~size () in
  Log_manager.format dev;
  match Log_manager.open_log dev with
  | Ok l -> l
  | Error e -> Alcotest.fail e

let test_log_append_and_scan () =
  let l = fresh_log () in
  check_bool "starts empty" true (Log_manager.is_empty l);
  let _, s1 = Log_manager.append l ~tid:1 [ range 1 0 "one" ] in
  let _, s2 = Log_manager.append l ~tid:2 [ range 1 10 "two" ] in
  check_int "seqnos consecutive" (s1 + 1) s2;
  Log_manager.force l;
  let seen = ref [] in
  Log_manager.iter_live l ~f:(fun ~off:_ r -> seen := r.Record.tid :: !seen);
  Alcotest.(check (list int)) "scan order" [ 1; 2 ] (List.rev !seen);
  check_int "record count" 2 (Log_manager.record_count l)

let test_log_reopen_finds_tail () =
  let dev = Mem_device.create ~size:(64 * 1024) () in
  Log_manager.format dev;
  let l = Result.get_ok (Log_manager.open_log dev) in
  for i = 1 to 10 do
    ignore (Log_manager.append l ~tid:i [ range 1 (i * 8) "datadata" ])
  done;
  Log_manager.force l;
  let l2 = Result.get_ok (Log_manager.open_log dev) in
  check_int "tail recovered" (Log_manager.tail l) (Log_manager.tail l2);
  check_int "seqno recovered" (Log_manager.next_seqno l) (Log_manager.next_seqno l2);
  check_int "used recovered" (Log_manager.used_bytes l) (Log_manager.used_bytes l2);
  check_int "records recovered" 10 (Log_manager.record_count l2)

let test_log_torn_tail_discarded () =
  let c = Crash_device.create ~size:(64 * 1024) () in
  let dev = Crash_device.device c in
  Log_manager.format dev;
  let l = Result.get_ok (Log_manager.open_log dev) in
  ignore (Log_manager.append l ~tid:1 [ range 1 0 "committed" ]);
  Log_manager.force l;
  ignore (Log_manager.append l ~tid:2 [ range 1 50 "torn away" ]);
  (* No force: the second record is lost by the crash. *)
  Crash_device.crash c;
  let l2 = Result.get_ok (Log_manager.open_log dev) in
  check_int "only first survives" 1 (Log_manager.record_count l2);
  let tids = ref [] in
  Log_manager.iter_live l2 ~f:(fun ~off:_ r -> tids := r.Record.tid :: !tids);
  Alcotest.(check (list int)) "tid 1 only" [ 1 ] !tids

let test_log_wraparound () =
  (* Small log; append until it wraps several times, truncating (move_head)
     as we go. The live window must always scan correctly. *)
  let l = fresh_log ~size:4096 () in
  let live = ref [] in (* (seqno, tid) oldest-first *)
  for i = 1 to 200 do
    let data = String.make (50 + (i mod 37)) (Char.chr (65 + (i mod 26))) in
    (* Keep the log under half full by reclaiming the oldest record when
       needed. *)
    let rec append () =
      match Log_manager.append l ~tid:i [ range 1 0 data ] with
      | _, s -> s
      | exception Log_manager.Log_full ->
        (match !live with
        | [] -> Alcotest.fail "log full but nothing live"
        | _ ->
          (* Reclaim roughly half of the live records. *)
          let n = (List.length !live + 1) / 2 in
          let rec drop k = function
            | l when k = 0 -> l
            | _ :: tl -> drop (k - 1) tl
            | [] -> []
          in
          live := drop n !live;
          let offs = ref [] in
          Log_manager.iter_live l ~f:(fun ~off r ->
              offs := (r.Record.seqno, off) :: !offs);
          (match !live with
          | (s0, _) :: _ ->
            let off0 = List.assoc s0 (List.rev !offs) in
            Log_manager.move_head l ~new_head:off0 ~new_head_seqno:s0
          | [] ->
            Log_manager.reset_empty l);
          append ())
    in
    let s = append () in
    live := !live @ [ (s, i) ]
  done;
  (* Final scan must contain exactly the live records, wrap markers aside. *)
  let seen = ref [] in
  Log_manager.iter_live l ~f:(fun ~off:_ r ->
      if r.Record.kind = Record.Commit then
        seen := (r.Record.seqno, r.Record.tid) :: !seen);
  Alcotest.(check (list (pair int int))) "live set" !live (List.rev !seen)

let test_log_backward_iteration () =
  let l = fresh_log () in
  for i = 1 to 5 do
    ignore (Log_manager.append l ~tid:i [ range 1 0 (string_of_int i) ])
  done;
  let fwd = ref [] and bwd = ref [] in
  Log_manager.iter_live l ~f:(fun ~off:_ r -> fwd := r.Record.tid :: !fwd);
  Log_manager.(iter_backward (view l)) ~f:(fun ~off:_ r ->
      bwd := r.Record.tid :: !bwd);
  Alcotest.(check (list int)) "backward = reverse forward" !fwd (List.rev !bwd)

let test_log_backward_across_wrap () =
  let l = fresh_log ~size:4096 () in
  (* Fill, reclaim everything, keep appending to force a wrap. *)
  let last_seq = ref 0 in
  (try
     while true do
       last_seq := snd (Log_manager.append l ~tid:9 [ range 1 0 (String.make 200 'x') ])
     done
   with Log_manager.Log_full -> ());
  Log_manager.reset_empty l;
  for i = 1 to 6 do
    ignore (Log_manager.append l ~tid:(100 + i) [ range 1 0 (String.make 200 'y') ])
  done;
  let bwd = ref [] in
  Log_manager.(iter_backward (view l)) ~f:(fun ~off:_ r ->
      if r.Record.kind = Record.Commit then bwd := r.Record.tid :: !bwd);
  Alcotest.(check (list int)) "wrapped backward scan"
    [ 101; 102; 103; 104; 105; 106 ] !bwd

let test_log_full () =
  let l = fresh_log ~size:4096 () in
  Alcotest.check_raises "oversized record" Log_manager.Log_full (fun () ->
      ignore (Log_manager.append l ~tid:1 [ range 1 0 (String.make 8192 'z') ]))

(* --- buffered tail (group commit) --- *)

(* [encode_into] must produce the exact wire image [encode] does even when
   the spool already holds bytes — all displacements and the checksum are
   record-relative. *)
let test_record_encode_into_offset () =
  let module B = Rvm_util.Bytebuf in
  let r =
    mk_commit ~seqno:3 ~tid:5
      [ range 1 0 "hello"; range 2 64 (String.make 100 'q'); range 1 9 "" ]
  in
  let b = B.create ~capacity:8 () in
  B.u32 b 0xabcdef01;
  Record.encode_into ~seqno:r.Record.seqno b r;
  let all = B.contents b in
  let suffix = Bytes.sub all 4 (Bytes.length all - 4) in
  Alcotest.(check string)
    "identical wire image"
    (Bytes.to_string (Record.encode r))
    (Bytes.to_string suffix)

let test_log_spool_defers_writes () =
  let dev = Mem_device.create ~size:(64 * 1024) () in
  Log_manager.format dev;
  let l = Result.get_ok (Log_manager.open_log dev) in
  let w0 = dev.Device.stats.Device.writes in
  ignore (Log_manager.append l ~tid:1 [ range 1 0 "aaa" ]);
  ignore (Log_manager.append l ~tid:2 [ range 1 8 "bbb" ]);
  check_int "no device writes while spooling" w0 dev.Device.stats.Device.writes;
  check_bool "unflushed" true (Log_manager.unflushed l);
  check_bool "bytes spooled" true (Log_manager.spooled_bytes l > 0);
  (* Scans must observe spooled records (the overlay). *)
  let tids = ref [] in
  Log_manager.iter_live l ~f:(fun ~off:_ r -> tids := r.Record.tid :: !tids);
  Alcotest.(check (list int)) "spooled records visible" [ 1; 2 ] (List.rev !tids);
  Log_manager.force l;
  check_int "one sequential write per force" (w0 + 1)
    dev.Device.stats.Device.writes;
  check_int "spool empty after force" 0 (Log_manager.spooled_bytes l);
  check_bool "flushed" false (Log_manager.unflushed l);
  (* And the drained image reopens to the same records. *)
  let l2 = Result.get_ok (Log_manager.open_log dev) in
  check_int "records durable" 2 (Log_manager.record_count l2)

let test_log_spool_wrap_two_writes () =
  let dev = Mem_device.create ~size:4096 () in
  Log_manager.format dev;
  let l = Result.get_ok (Log_manager.open_log dev) in
  (* Advance the tail near the end of the area, then reclaim everything so
     the next batch of appends straddles the wrap point. *)
  (try
     while true do
       ignore (Log_manager.append l ~tid:1 [ range 1 0 (String.make 200 'x') ])
     done
   with Log_manager.Log_full -> ());
  Log_manager.reset_empty l;
  let w0 = dev.Device.stats.Device.writes in
  for i = 1 to 8 do
    ignore (Log_manager.append l ~tid:i [ range 1 0 (String.make 200 'y') ])
  done;
  check_int "no writes before the force" w0 dev.Device.stats.Device.writes;
  Log_manager.force l;
  let writes = dev.Device.stats.Device.writes - w0 in
  check_bool
    (Printf.sprintf "wrapping drain used %d writes (1..2)" writes)
    true
    (writes >= 1 && writes <= 2);
  let l2 = Result.get_ok (Log_manager.open_log dev) in
  check_int "all records durable" (Log_manager.record_count l)
    (Log_manager.record_count l2)

let test_log_spool_watermark () =
  let dev = Mem_device.create ~size:(64 * 1024) () in
  Log_manager.format dev;
  let l = Result.get_ok (Log_manager.open_log ~max_spool_bytes:512 dev) in
  let w0 = dev.Device.stats.Device.writes in
  let s0 = dev.Device.stats.Device.syncs in
  for i = 1 to 10 do
    ignore (Log_manager.append l ~tid:i [ range 1 0 (String.make 300 'w') ])
  done;
  check_bool "watermark drained early" true
    (dev.Device.stats.Device.writes > w0);
  check_bool "spool stays bounded" true (Log_manager.spooled_bytes l <= 1024);
  check_int "draining never syncs" s0 dev.Device.stats.Device.syncs;
  check_bool "drained but not durable" true (Log_manager.unflushed l);
  Log_manager.force l;
  check_int "force syncs once" (s0 + 1) dev.Device.stats.Device.syncs;
  check_bool "durable after force" false (Log_manager.unflushed l)

(* The spool is invisible in the bytes that reach the device: the same
   append/reclaim history leaves a byte-identical image whether the log is
   forced after every append (each record its own drain, at its own
   offset) or only every third — across explicit wrap markers, pad-to-end
   records and the unwritten implicit-wrap sliver. *)
let test_log_spool_image_identical () =
  let drive ~every =
    let dev = Mem_device.create ~size:4096 () in
    Log_manager.format dev;
    let l = Result.get_ok (Log_manager.open_log dev) in
    for i = 1 to 120 do
      let len = 30 + (i * 97 mod 331) in
      let rec append () =
        try ignore (Log_manager.append l ~tid:i [ range 1 0 (String.make len 'a') ])
        with Log_manager.Log_full ->
          Log_manager.reset_empty l;
          append ()
      in
      append ();
      if i mod every = 0 then Log_manager.force l
    done;
    Log_manager.force l;
    Mem_device.snapshot dev
  in
  Alcotest.(check string)
    "device images byte-identical"
    (Bytes.to_string (drive ~every:1))
    (Bytes.to_string (drive ~every:3))

let test_log_free_space_accounting () =
  let l = fresh_log ~size:8192 () in
  let cap = Log_manager.capacity l in
  check_int "initially free" cap (Log_manager.free_bytes l);
  let r = mk_commit [ range 1 0 "0123456789" ] in
  ignore (Log_manager.append_record l r);
  check_int "free drops by record size"
    (cap - Record.encoded_size r)
    (Log_manager.free_bytes l);
  Log_manager.reset_empty l;
  check_int "reset restores space" cap (Log_manager.free_bytes l)

(* --- Parallel-commit control records --- *)

let decoded r =
  match Record.decode (Record.encode r) ~pos:0 with
  | Some (r', _) -> r'
  | None -> Alcotest.fail "control record does not decode"

(* Every control [Pcommit.record] builds survives the wire and classifies
   back as itself; an intent keeps its data ranges after the control. *)
let test_pcommit_roundtrip () =
  let data = [ range 3 64 "branch"; range 4 0 "data" ] in
  let controls =
    Pcommit.
      [
        Intent { gid = "p1.7"; shard = 2 };
        Stage { gid = "p1.7"; participants = [ 0; 2; 5 ] };
        Resolution { gid = "p1.7"; decision = Committed };
        Resolution { gid = "p1.8"; decision = Aborted };
      ]
  in
  List.iter
    (fun c ->
      let ranges = match c with Pcommit.Intent _ -> data | _ -> [] in
      let r =
        decoded
          (Pcommit.record ~tid:9 ~flags:Record.Flags.no_restore ~ranges c)
      in
      check_bool "classifies as itself" true (Pcommit.classify r = `Control c);
      check_bool "caller's flags kept" true
        Record.Flags.(has r.Record.flags no_restore);
      check_int "tid" 9 r.Record.tid;
      match r.Record.ranges with
      | control :: rest ->
        check_bool "control range first" true (Pcommit.is_control control);
        let fields = List.map (fun g -> Record.(g.seg, g.off, g.data)) in
        check_bool "data ranges follow" true (fields rest = fields ranges)
      | [] -> Alcotest.fail "no control range")
    controls;
  check_bool "plain record" true
    (Pcommit.classify (decoded (mk_commit [ range 1 0 "x" ])) = `Plain)

(* A parallel-commit flag with missing, corrupt or contradicting evidence
   is malformed, never a control. *)
let test_pcommit_malformed () =
  let malformed what r =
    check_bool what true (Pcommit.classify (decoded r) = `Malformed)
  in
  let intent =
    Pcommit.record ~ranges:[ range 1 0 "data" ]
      (Pcommit.Intent { gid = "g"; shard = 0 })
  in
  malformed "intent payload under the stage flag"
    { intent with Record.flags = Record.Flags.stage };
  malformed "stage payload under the resolution flag"
    {
      (Pcommit.record (Pcommit.Stage { gid = "g"; participants = [ 0 ] })) with
      Record.flags = Record.Flags.resolution;
    };
  malformed "no control range"
    (mk_commit ~flags:Record.Flags.intent [ range 1 0 "data" ]);
  malformed "corrupt payload"
    {
      intent with
      Record.ranges =
        List.map
          (fun g ->
            if Pcommit.is_control g then
              { g with Record.data = Bytes.of_string "junk" }
            else g)
          intent.Record.ranges;
    }

let suite =
  [
    ("record.roundtrip", `Quick, test_record_roundtrip);
    ("record.at-offset", `Quick, test_record_roundtrip_at_offset);
    ("record.backward", `Quick, test_record_backward);
    ("record.corruption", `Quick, test_record_corruption_detected);
    ("record.truncation", `Quick, test_record_truncation_detected);
    ("record.wrap", `Quick, test_wrap_record);
    ("status.roundtrip", `Quick, test_status_roundtrip);
    ("status.corruption", `Quick, test_status_corruption);
    ("log.append-scan", `Quick, test_log_append_and_scan);
    ("log.reopen", `Quick, test_log_reopen_finds_tail);
    ("log.torn-tail", `Quick, test_log_torn_tail_discarded);
    ("log.wraparound", `Quick, test_log_wraparound);
    ("log.backward", `Quick, test_log_backward_iteration);
    ("log.backward-wrap", `Quick, test_log_backward_across_wrap);
    ("log.full", `Quick, test_log_full);
    ("record.encode-into", `Quick, test_record_encode_into_offset);
    ("log.spool.defers-writes", `Quick, test_log_spool_defers_writes);
    ("log.spool.wrap-two-writes", `Quick, test_log_spool_wrap_two_writes);
    ("log.spool.watermark", `Quick, test_log_spool_watermark);
    ("log.spool.image-identical", `Quick, test_log_spool_image_identical);
    ("log.free-space", `Quick, test_log_free_space_accounting);
    ("pcommit.roundtrip", `Quick, test_pcommit_roundtrip);
    ("pcommit.malformed", `Quick, test_pcommit_malformed);
  ]
