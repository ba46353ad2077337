(* Property-based tests (qcheck, run under alcotest).

   The central property is the recovery contract: after an arbitrary
   sequence of transactions (mixed modes, aborts, flushes, truncations)
   followed by a crash — possibly tearing the last unsynced writes — the
   recovered state equals the state produced by some whole-transaction
   prefix of the commit order that includes every explicitly durable
   commit. That single statement covers atomicity (no torn transactions),
   permanence (flushed commits survive) and bounded persistence (no-flush
   commits may or may not survive, but only in commit order). *)

open Rvm_core
module Crash_device = Rvm_disk.Crash_device
module Mem_device = Rvm_disk.Mem_device
module Record = Rvm_log.Record
module Intervals = Rvm_util.Intervals
module Rng = Rvm_util.Rng

let region_len = 2 * 4096

(* --- generators --- *)

type op =
  | Commit of (int * int * char) list * Types.commit_mode
  | Abort of (int * int * char) list
  | Flush
  | Truncate

let gen_range =
  QCheck.Gen.(
    map3
      (fun off len c -> (off, len, c))
      (int_bound (region_len - 65))
      (int_range 1 64)
      (map Char.chr (int_range 65 90)))

let gen_op =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map2
            (fun rs flush ->
              Commit (rs, if flush then Types.Flush else Types.No_flush))
            (list_size (int_range 1 4) gen_range)
            bool );
        (2, map (fun rs -> Abort rs) (list_size (int_range 1 3) gen_range));
        (1, return Flush);
        (1, return Truncate);
      ])

let gen_ops = QCheck.Gen.(list_size (int_range 1 40) gen_op)

let show_op = function
  | Commit (rs, m) ->
    Printf.sprintf "Commit[%s]%s"
      (String.concat ";"
         (List.map (fun (o, l, c) -> Printf.sprintf "%d+%d'%c'" o l c) rs))
      (match m with Types.Flush -> "!" | Types.No_flush -> "~")
  | Abort rs -> Printf.sprintf "Abort[%d ranges]" (List.length rs)
  | Flush -> "Flush"
  | Truncate -> "Truncate"

let arb_ops =
  QCheck.make gen_ops ~print:(fun ops -> String.concat " " (List.map show_op ops))

(* --- the recovery property --- *)

type model_txn = { writes : (int * Bytes.t) list }

let apply_model base_state txns k =
  let st = Bytes.copy base_state in
  List.iteri
    (fun i txn ->
      if i < k then
        List.iter
          (fun (off, data) -> Bytes.blit data 0 st off (Bytes.length data))
          txn.writes)
    txns;
  st

let run_recovery_scenario ~torn ~truncation_mode ops seed =
  let rng = Rng.create ~seed:(Int64.of_int seed) in
  let log_crash = Crash_device.create ~name:"plog" ~size:(64 * 1024) () in
  let seg_crash = Crash_device.create ~name:"pseg" ~size:(4 * region_len) () in
  Rvm.create_log (Crash_device.device log_crash);
  let resolve _ = Crash_device.device seg_crash in
  let options =
    { Options.default with Options.truncation_mode; truncation_threshold = 0.4 }
  in
  let rvm =
    Rvm.initialize ~options ~log:(Crash_device.device log_crash) ~resolve ()
  in
  let region = Rvm.map rvm ~seg:1 ~seg_off:0 ~len:region_len () in
  let base = region.Region.vaddr in
  (* Committed transactions in order, and the durable prefix length. *)
  let committed = ref [] in
  let durable = ref 0 in
  let mark_all_durable () = durable := List.length !committed in
  List.iter
    (fun op ->
      match op with
      | Commit (ranges, mode) ->
        let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
        let writes =
          List.map
            (fun (off, len, c) ->
              let data = Bytes.make len c in
              Rvm.modify rvm tid ~addr:(base + off) data;
              (off, data))
            ranges
        in
        Rvm.end_transaction rvm tid ~mode;
        committed := !committed @ [ { writes } ];
        if mode = Types.Flush then mark_all_durable ()
      | Abort ranges ->
        let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
        List.iter
          (fun (off, len, c) ->
            Rvm.modify rvm tid ~addr:(base + off) (Bytes.make len c))
          ranges;
        Rvm.abort_transaction rvm tid
      | Flush ->
        Rvm.flush rvm;
        mark_all_durable ()
      | Truncate -> Rvm.truncate rvm)
    ops;
  (* Crash. *)
  if torn then begin
    Crash_device.crash_torn log_crash ~rng;
    Crash_device.crash_torn seg_crash ~rng
  end
  else begin
    Crash_device.crash log_crash;
    Crash_device.crash seg_crash
  end;
  let rvm2 =
    Rvm.initialize ~options ~log:(Crash_device.device log_crash) ~resolve ()
  in
  let region2 = Rvm.map rvm2 ~seg:1 ~seg_off:0 ~len:region_len () in
  let recovered = Rvm.load rvm2 ~addr:region2.Region.vaddr ~len:region_len in
  let blank = Bytes.make region_len '\000' in
  let txns = !committed in
  let n = List.length txns in
  let matches = ref None in
  for k = n downto !durable do
    if !matches = None && Bytes.equal recovered (apply_model blank txns k) then
      matches := Some k
  done;
  match !matches with
  | Some _ -> true
  | None ->
    QCheck.Test.fail_reportf
      "recovered state matches no prefix >= %d of %d committed transactions"
      !durable n

let prop_recovery_epoch =
  QCheck.Test.make ~name:"recovery matches a committed prefix (epoch)"
    ~count:60 arb_ops (fun ops ->
      run_recovery_scenario ~torn:false ~truncation_mode:Types.Epoch ops 1)

let prop_recovery_torn =
  QCheck.Test.make ~name:"recovery matches a committed prefix (torn crash)"
    ~count:60 arb_ops (fun ops ->
      run_recovery_scenario ~torn:true ~truncation_mode:Types.Epoch ops 2)

let prop_recovery_incremental =
  QCheck.Test.make
    ~name:"recovery matches a committed prefix (incremental truncation)"
    ~count:60 arb_ops (fun ops ->
      run_recovery_scenario ~torn:false ~truncation_mode:Types.Incremental ops 3)

(* --- intervals vs a bitmap model --- *)

let prop_intervals =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 40)
        (map2 (fun lo len -> (lo, len)) (int_bound 199) (int_range 0 60)))
  in
  QCheck.Test.make ~name:"interval set agrees with bitmap model" ~count:200
    (QCheck.make gen) (fun ops ->
      let n = 300 in
      let bitmap = Array.make n false in
      let iv = Intervals.create () in
      (* A second set fed the same ranges shifted past [n]: sets made by
         [create] share no state, so neither ever holds the other's. *)
      let twin = Intervals.create () in
      List.for_all
        (fun (lo, len) ->
          let len = min len (n - lo) in
          (* model gaps *)
          let model_gaps = ref [] in
          let cur = ref None in
          for x = lo to lo + len - 1 do
            if not bitmap.(x) then begin
              (match !cur with
              | None -> cur := Some (x, 1)
              | Some (s, l) when s + l = x -> cur := Some (s, l + 1)
              | Some g ->
                model_gaps := g :: !model_gaps;
                cur := Some (x, 1));
              bitmap.(x) <- true
            end
            else
              match !cur with
              | Some g ->
                model_gaps := g :: !model_gaps;
                cur := None
              | None -> ()
          done;
          (match !cur with Some g -> model_gaps := g :: !model_gaps | None -> ());
          (* Reported gaps, in the order reported: the model's are
             ascending, so the comparison checks the order too. *)
          let gaps = ref [] in
          Intervals.add_uncovered iv ~lo ~len ~f:(fun ~lo ~len ->
              gaps := (lo, len) :: !gaps);
          Intervals.add twin ~lo:(lo + n) ~len;
          let model_inter q qlen =
            let hit = ref false in
            for x = max q 0 to min (q + qlen) n - 1 do
              if bitmap.(x) then hit := true
            done;
            !hit
          in
          List.rev !gaps = List.rev !model_gaps
          && Intervals.byte_count iv
             = Array.fold_left (fun a b -> if b then a + 1 else a) 0 bitmap
          && Intervals.to_list twin
             = List.map (fun (lo, len) -> (lo + n, len)) (Intervals.to_list iv)
          && List.for_all
               (fun (q, qlen) ->
                 Intervals.inter_nonempty iv ~lo:q ~len:qlen = model_inter q qlen)
               [ (lo - 3, 3); (lo + len, 7); (lo, 1); (0, 16); (150, 40); (260, 0) ])
        ops)

(* --- log record round-trip --- *)

let gen_record =
  QCheck.Gen.(
    let gen_rrange =
      map3
        (fun seg off data -> { Record.seg; off; data = Bytes.of_string data })
        (int_range 0 5) (int_bound 100_000) (string_size (int_bound 200))
    in
    map3
      (fun tid flags ranges ->
        Record.commit ~seqno:(tid * 7) ~tid ~flags ranges)
      (int_bound 1_000_000)
      (int_bound 3)
      (list_size (int_bound 6) gen_rrange))

let prop_record_roundtrip =
  QCheck.Test.make ~name:"log record encode/decode round-trip" ~count:300
    (QCheck.make gen_record) (fun r ->
      let enc = Record.encode r in
      match Record.decode enc ~pos:0 with
      | Some (r', total) ->
        total = Bytes.length enc
        && r'.Record.tid = r.Record.tid
        && r'.Record.seqno = r.Record.seqno
        && r'.Record.flags = r.Record.flags
        && List.length r'.Record.ranges = List.length r.Record.ranges
        && List.for_all2
             (fun (a : Record.range) (b : Record.range) ->
               a.Record.seg = b.Record.seg
               && a.Record.off = b.Record.off
               && Bytes.equal a.Record.data b.Record.data)
             r.Record.ranges r'.Record.ranges
        && (match Record.decode_backward enc ~end_pos:(Bytes.length enc) with
           | Some (_, start) -> start = 0
           | None -> false)
      | None -> false)

(* --- optimization equivalence: same recovered state with and without
   the intra-transaction optimization --- *)

let run_with_options ~intra ops =
  let log_dev = Mem_device.create ~name:"olog" ~size:(256 * 1024) () in
  Rvm.create_log log_dev;
  let seg_dev = Mem_device.create ~name:"oseg" ~size:(4 * region_len) () in
  let options = { Options.default with Options.intra_optimization = intra } in
  let rvm = Rvm.initialize ~options ~log:log_dev ~resolve:(fun _ -> seg_dev) () in
  let region = Rvm.map rvm ~seg:1 ~seg_off:0 ~len:region_len () in
  let base = region.Region.vaddr in
  List.iter
    (fun op ->
      match op with
      | Commit (ranges, mode) ->
        let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
        List.iter
          (fun (off, len, c) ->
            Rvm.modify rvm tid ~addr:(base + off) (Bytes.make len c))
          ranges;
        Rvm.end_transaction rvm tid ~mode
      | Abort ranges ->
        let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
        List.iter
          (fun (off, len, c) ->
            Rvm.modify rvm tid ~addr:(base + off) (Bytes.make len c))
          ranges;
        Rvm.abort_transaction rvm tid
      | Flush -> Rvm.flush rvm
      | Truncate -> Rvm.truncate rvm)
    ops;
  Rvm.flush rvm;
  Rvm.truncate rvm;
  Mem_device.snapshot seg_dev

let prop_intra_equivalence =
  QCheck.Test.make
    ~name:"intra optimization does not change durable state" ~count:40 arb_ops
    (fun ops ->
      Bytes.equal (run_with_options ~intra:true ops)
        (run_with_options ~intra:false ops))

(* --- allocator: arbitrary op sequences keep invariants and never hand out
   overlapping blocks --- *)

let prop_allocator =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 60)
        (frequency
           [ (3, map (fun s -> `Alloc (1 + s)) (int_bound 500)); (2, return `Free) ]))
  in
  QCheck.Test.make ~name:"allocator invariants under random ops" ~count:50
    (QCheck.make gen) (fun ops ->
      let log_dev = Mem_device.create ~name:"alog" ~size:(512 * 1024) () in
      Rvm.create_log log_dev;
      let seg_dev = Mem_device.create ~name:"aseg" ~size:(128 * 1024) () in
      let rvm = Rvm.initialize ~log:log_dev ~resolve:(fun _ -> seg_dev) () in
      let region = Rvm.map rvm ~seg:1 ~seg_off:0 ~len:(16 * 4096) () in
      let base = region.Region.vaddr in
      let tid0 = Rvm.begin_transaction rvm ~mode:Types.Restore in
      let h = Rvm_alloc.Rds.init rvm tid0 ~base ~len:(16 * 4096) in
      Rvm.end_transaction rvm tid0 ~mode:Types.Flush;
      let live = ref [] in
      List.iter
        (fun op ->
          let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
          (match op with
          | `Alloc size -> (
            match Rvm_alloc.Rds.alloc h tid ~size with
            | p -> live := (p, size) :: !live
            | exception Types.Rvm_error _ -> ())
          | `Free -> (
            match !live with
            | (p, _) :: rest ->
              Rvm_alloc.Rds.free h tid p;
              live := rest
            | [] -> ()));
          Rvm.end_transaction rvm tid ~mode:Types.Flush)
        ops;
      Rvm_alloc.Rds.check h;
      (* No two live blocks overlap. *)
      let sorted = List.sort compare !live in
      let rec no_overlap = function
        | (p1, s1) :: ((p2, _) :: _ as rest) ->
          p1 + s1 <= p2 && no_overlap rest
        | _ -> true
      in
      no_overlap sorted)

(* --- circular log manager: random appends and head movements keep the
   live window consistent, and reopening the device agrees exactly --- *)

let prop_log_manager =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 80)
        (frequency
           [
             (5, map (fun n -> `Append (1 + n)) (int_bound 300));
             (2, map (fun k -> `Reclaim k) (int_bound 10));
             (1, return `Reopen);
           ]))
  in
  QCheck.Test.make ~name:"circular log: model, wrap, reopen agreement"
    ~count:80 (QCheck.make gen) (fun ops ->
      let module LM = Rvm_log.Log_manager in
      let dev = Mem_device.create ~name:"qlog" ~size:8192 () in
      LM.format dev;
      let lm = ref (Result.get_ok (LM.open_log dev)) in
      (* Model: live commit records as (seqno, tid, size). *)
      let live = ref [] in
      let next_tid = ref 1 in
      let reclaim k =
        (* Drop the k oldest live commits by moving the head to the
           (k+1)-th one (or emptying the log). *)
        let keep = ref [] in
        let dropped = ref 0 in
        List.iter
          (fun e -> if !dropped < k then incr dropped else keep := e :: !keep)
          !live;
        let kept = List.rev !keep in
        (match kept with
        | (s0, _) :: _ ->
          let off0 = ref None in
          LM.iter_live !lm ~f:(fun ~off r ->
              if r.Record.seqno = s0 then off0 := Some off);
          LM.move_head !lm ~new_head:(Option.get !off0) ~new_head_seqno:s0
        | [] -> LM.reset_empty !lm);
        live := kept
      in
      let check_agreement () =
        let tids = ref [] in
        LM.iter_live !lm ~f:(fun ~off:_ r ->
            if r.Record.kind = Record.Commit then tids := r.Record.tid :: !tids);
        List.rev !tids = List.map (fun (_, tid) -> tid) !live
      in
      List.for_all
        (fun op ->
          (match op with
          | `Append size ->
            let tid = !next_tid in
            incr next_tid;
            let data = Bytes.make size (Char.chr (65 + (tid mod 26))) in
            let rec try_append attempts =
              if attempts > 20 then ()
              else
                match
                  LM.append !lm ~tid [ { Record.seg = 1; off = 0; data } ]
                with
                | _, seqno -> live := !live @ [ (seqno, tid) ]
                | exception LM.Log_full ->
                  (* Reclaim half the live records and retry; a record
                     bigger than the whole log is simply skipped. *)
                  if !live = [] then ()
                  else begin
                    reclaim ((List.length !live + 1) / 2);
                    try_append (attempts + 1)
                  end
            in
            try_append 0
          | `Reclaim k -> reclaim (min k (List.length !live))
          | `Reopen ->
            LM.force !lm;
            lm := Result.get_ok (LM.open_log dev));
          check_agreement ())
        ops)

(* --- bounded open: the chunked scan must stop exactly where a scan of
   the whole device stops. The reference below is that whole-device scan
   (read every byte, then walk from the head), run on the same image at
   every reopen: after crashes that lose the spool, after a torn final
   record, on wrapped logs several chunks long whose records straddle
   chunk boundaries and leave stale records past the tail. --- *)

let whole_device_scan (dev : Rvm_disk.Device.t) =
  let st = Result.get_ok (Rvm_log.Status.read dev) in
  let area =
    Rvm_disk.Device.read_bytes dev ~off:0 ~len:dev.Rvm_disk.Device.size
  in
  let log_size = st.Rvm_log.Status.log_size in
  let data_start = st.Rvm_log.Status.data_start in
  let seen = ref [] in
  let rec go off seqno used records =
    if log_size - off < Record.wrap_size then
      go_at data_start seqno (used + (log_size - off)) records
    else go_at off seqno used records
  and go_at off seqno used records =
    match Record.decode area ~pos:off with
    | Some (r, total) when r.Record.seqno = seqno -> (
      seen := (off, seqno) :: !seen;
      match r.Record.kind with
      | Record.Wrap -> go data_start (seqno + 1) (used + total) (records + 1)
      | Record.Commit ->
        go (off + total) (seqno + 1) (used + total) (records + 1))
    | _ -> (off, seqno, used, records)
  in
  let found =
    go st.Rvm_log.Status.head st.Rvm_log.Status.head_seqno 0 0
  in
  (found, List.rev !seen)

let prop_bounded_open =
  (* [lead] 100 KB records are appended and all but the last reclaimed
     first, so the head starts anywhere in the first lap and the ops wrap
     the log often. Some records are longer than a chunk. *)
  let gen =
    QCheck.Gen.(
      pair (int_bound 9)
        (list_size (int_range 1 40)
           (frequency
              [
                (4, map (fun n -> `Append (1 + n)) (int_bound 2_000));
                (3, map (fun n -> `Append (1 + n)) (int_bound 100_000));
                (1, map (fun n -> `Append (200_000 + n)) (int_bound 150_000));
                (2, return `Force);
                (1, map (fun k -> `Reclaim k) (int_bound 6));
                (1, return `Crash);
                (1, map (fun f -> `Tear f) (float_bound_exclusive 1.));
              ])))
  in
  QCheck.Test.make ~name:"bounded open finds the whole-device scan's tail"
    ~count:60 (QCheck.make gen) (fun (lead, ops) ->
      let module LM = Rvm_log.Log_manager in
      let dev = Mem_device.create ~name:"blog" ~size:(1024 * 1024) () in
      LM.format dev;
      let lm = ref (Result.get_ok (LM.open_log dev)) in
      let agree = ref true in
      (* Reopen from the device (a crash: the spool is lost) and compare
         with the reference scan of the same image; the opened log's live
         records, read from the kept image, must be the reference's too. *)
      let reopen () =
        let (tail, next_seqno, used, records), seen = whole_device_scan dev in
        let l = Result.get_ok (LM.open_log dev) in
        let live = ref [] in
        LM.iter_live l ~f:(fun ~off r ->
            live := (off, r.Record.seqno) :: !live);
        agree :=
          !agree && LM.tail l = tail
          && LM.next_seqno l = next_seqno
          && LM.used_bytes l = used
          && LM.record_count l = records
          && List.rev !live = seen;
        lm := l
      in
      let commits () =
        let acc = ref [] in
        LM.iter_live !lm ~f:(fun ~off r ->
            if r.Record.kind = Record.Commit then acc := (off, r) :: !acc);
        List.rev !acc
      in
      let reclaim k =
        match List.filteri (fun i _ -> i >= k) (commits ()) with
        | (off, r) :: _ ->
          LM.move_head !lm ~new_head:off ~new_head_seqno:r.Record.seqno
        | [] -> LM.reset_empty !lm
      in
      let tid = ref 0 in
      let ops =
        List.init lead (fun _ -> `Append 100_000)
        @ (if lead > 1 then [ `Force; `Reclaim (lead - 1) ] else [])
        @ ops
      in
      List.iter
        (fun op ->
          match op with
          | `Append size ->
            incr tid;
            let data = Bytes.make size (Char.chr (65 + (!tid mod 26))) in
            let rec go attempts =
              let range = { Record.seg = 1; off = 0; data } in
              match LM.append !lm ~tid:!tid [ range ] with
              | _ -> ()
              | exception LM.Log_full ->
                if attempts < 4 && not (LM.is_empty !lm) then begin
                  reclaim ((List.length (commits ()) + 1) / 2);
                  go (attempts + 1)
                end
            in
            go 0
          | `Force -> LM.force !lm
          | `Reclaim k -> reclaim k
          | `Crash -> reopen ()
          | `Tear frac -> (
            LM.force !lm;
            match List.rev (commits ()) with
            | (off, r) :: _ ->
              let size = float_of_int (Record.encoded_size r) in
              let pos = off + int_of_float (frac *. size) in
              let b = Rvm_disk.Device.read_bytes dev ~off:pos ~len:1 in
              Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x5a));
              Rvm_disk.Device.write_bytes dev ~off:pos b;
              reopen ()
            | [] -> ()))
        ops;
      reopen ();
      !agree)

(* --- buffered log tail: the spool must be invisible in the bytes that
   reach the device. Any append/force/reclaim history — including wraps,
   pad-to-end records, the unwritten implicit-wrap sliver and watermark
   drains mid-stream — leaves the same image once the log is forced as
   the same history forced after every append, where each record is its
   own drain and lands at its own offset. --- *)

let prop_spool_image =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 60)
        (frequency
           [
             (6, map (fun n -> `Append (1 + n)) (int_bound 300));
             (2, return `Force);
             (1, map (fun k -> `Reclaim k) (int_bound 6));
           ]))
  in
  QCheck.Test.make
    ~name:"buffered tail leaves a byte-identical device image" ~count:80
    (QCheck.make gen) (fun ops ->
      let module LM = Rvm_log.Log_manager in
      let drive ~force_each =
        let dev = Mem_device.create ~name:"gclog" ~size:8192 () in
        LM.format dev;
        (* A small watermark so long runs also exercise early drains. *)
        let lm = Result.get_ok (LM.open_log ~max_spool_bytes:1024 dev) in
        let live = ref [] in
        let next_tid = ref 1 in
        let reclaim k =
          let keep = ref [] in
          let dropped = ref 0 in
          List.iter
            (fun e -> if !dropped < k then incr dropped else keep := e :: !keep)
            !live;
          let kept = List.rev !keep in
          (match kept with
          | s0 :: _ ->
            let off0 = ref None in
            LM.iter_live lm ~f:(fun ~off r ->
                if r.Record.seqno = s0 then off0 := Some off);
            LM.move_head lm ~new_head:(Option.get !off0) ~new_head_seqno:s0
          | [] -> LM.reset_empty lm);
          live := kept
        in
        List.iter
          (fun op ->
            match op with
            | `Append size ->
              let tid = !next_tid in
              incr next_tid;
              let data = Bytes.make size (Char.chr (65 + (tid mod 26))) in
              let rec try_append attempts =
                if attempts > 20 then ()
                else
                  match
                    LM.append lm ~tid [ { Record.seg = 1; off = 0; data } ]
                  with
                  | _, seqno ->
                    live := !live @ [ seqno ];
                    if force_each then LM.force lm
                  | exception LM.Log_full ->
                    if !live = [] then ()
                    else begin
                      reclaim ((List.length !live + 1) / 2);
                      try_append (attempts + 1)
                    end
              in
              try_append 0
            | `Force -> LM.force lm
            | `Reclaim k -> reclaim (min k (List.length !live)))
          ops;
        LM.force lm;
        Mem_device.snapshot dev
      in
      Bytes.equal (drive ~force_each:false) (drive ~force_each:true))

(* --- simulated disk: extent tracking vs a per-sector reference --- *)

module Clock = Rvm_util.Clock
module Cost_model = Rvm_util.Cost_model
module Sim_device = Rvm_disk.Sim_device

type sim_op = Write of int * int | Again | Sync

(* The reference keeps one table entry per dirty sector and, at sync,
   sorts them into runs of consecutive sectors, charging the runs highest
   start first. *)
let reference_sim ~sector ~seek_fraction ~disk ops =
  let clock = Clock.simulated () in
  let dirty = Hashtbl.create 64 in
  let ios = ref 0 and busy = ref 0. in
  let last = ref None in
  let write off len =
    last := Some (off, len);
    if len > 0 then
      for s = off / sector to (off + len - 1) / sector do
        Hashtbl.replace dirty s ()
      done
  in
  List.iter
    (function
      | Write (off, len) -> write off len
      | Again -> Option.iter (fun (off, len) -> write off len) !last
      | Sync ->
        let sectors =
          List.sort compare (Hashtbl.fold (fun s () acc -> s :: acc) dirty [])
        in
        let runs =
          List.fold_left
            (fun acc s ->
              match acc with
              | (start, n) :: rest when start + n = s -> (start, n + 1) :: rest
              | _ -> (s, 1) :: acc)
            [] sectors
        in
        List.iter
          (fun (_, n) ->
            incr ios;
            let us =
              Cost_model.disk_service_us disk ~seek_fraction
                ~bytes:(n * sector) ()
            in
            busy := !busy +. us;
            Clock.charge_io clock us)
          runs;
        Hashtbl.reset dirty)
    ops;
  (Clock.now_us clock, !ios, !busy)

let prop_sim_device_extents =
  let gen =
    QCheck.Gen.(
      oneofl [ 1; 512; 4096 ] >>= fun sector ->
      bool >>= fun seek ->
      let unit = max sector 64 in
      let op =
        frequency
          [
            ( 6,
              map2
                (fun off len -> Write (off, len))
                (int_bound (16 * unit)) (int_bound (3 * unit)) );
            (1, return Again);
            (2, return Sync);
          ]
      in
      map
        (fun ops -> (sector, (if seek then 1.0 else 0.08), ops))
        (list_size (int_range 1 60) op))
  in
  let print (sector, seek, ops) =
    Printf.sprintf "sector=%d seek=%g [%s]" sector seek
      (String.concat "; "
         (List.map
            (function
              | Write (o, l) -> Printf.sprintf "W(%d,%d)" o l
              | Again -> "again"
              | Sync -> "sync")
            ops))
  in
  QCheck.Test.make ~name:"sim device extents charge like per-sector tracking"
    ~count:300 (QCheck.make ~print gen) (fun (sector, seek_fraction, ops) ->
      let disk = Cost_model.dec5000.Cost_model.log_disk in
      let size = 20 * max sector 64 in
      let clock = Clock.simulated () in
      let sim =
        Sim_device.create ~seek_fraction ~sector
          ~base:(Mem_device.of_bytes (Bytes.make size '\000'))
          ~clock ~disk ()
      in
      let dev = Sim_device.device sim in
      let buf = Bytes.make size 'w' in
      let last = ref None in
      let write off len =
        last := Some (off, len);
        dev.Rvm_disk.Device.write ~off ~buf ~pos:0 ~len
      in
      List.iter
        (function
          | Write (off, len) -> write off len
          | Again -> Option.iter (fun (off, len) -> write off len) !last
          | Sync -> dev.Rvm_disk.Device.sync ())
        ops;
      let now, ios, busy = reference_sim ~sector ~seek_fraction ~disk ops in
      Float.equal (Clock.now_us clock) now
      && Sim_device.io_count sim = ios
      && Float.equal (Sim_device.busy_us sim) busy)

(* --- lock manager: held-key index vs a full-table reference --- *)

module Lock_mgr = Rvm_layers.Lock_mgr

(* The reference finds an owner's keys by scanning every lock ever
   created, the way release worked before the held-key index. *)
module Lock_ref = struct
  type t = {
    locks : (string, (int * Lock_mgr.mode) list) Hashtbl.t;
    waits : (int, int list) Hashtbl.t;
    stamps : (string, int * int) Hashtbl.t;
  }

  let create () =
    { locks = Hashtbl.create 8; waits = Hashtbl.create 8; stamps = Hashtbl.create 8 }

  let holders t key = Option.value (Hashtbl.find_opt t.locks key) ~default:[]

  let rec reaches t seen src dst =
    src = dst
    || (not (List.mem src !seen))
       && begin
            seen := src :: !seen;
            List.exists
              (fun o -> reaches t seen o dst)
              (Option.value (Hashtbl.find_opt t.waits src) ~default:[])
          end

  let wait_for t ~owner ~key mode =
    let hs = holders t key in
    let others = List.filter (fun (o, _) -> o <> owner) hs in
    (* The textbook compatibility matrix: S-S, S-U and U-S share; every
       pair with X, and U-U, conflict. Modes rank S < U < X. *)
    let shares a b =
      match (a, b) with
      | Lock_mgr.Shared, Lock_mgr.Shared
      | Lock_mgr.Shared, Lock_mgr.Update
      | Lock_mgr.Update, Lock_mgr.Shared ->
        true
      | _ -> false
    in
    let rank = function
      | Lock_mgr.Shared -> 0
      | Lock_mgr.Update -> 1
      | Lock_mgr.Exclusive -> 2
    in
    let blockers =
      List.filter_map
        (fun (o, m) -> if shares mode m then None else Some o)
        others
    in
    if blockers = [] then begin
      let merged =
        match List.assoc_opt owner hs with
        | Some held when rank held > rank mode -> held
        | _ -> mode
      in
      Hashtbl.replace t.locks key ((owner, merged) :: List.remove_assoc owner hs);
      Hashtbl.remove t.waits owner;
      `Granted
    end
    else
      let blockers = List.sort_uniq compare blockers in
      if List.exists (fun b -> reaches t (ref []) b owner) blockers then `Deadlock
      else begin
        Hashtbl.replace t.waits owner blockers;
        `Wait blockers
      end

  let held_keys t ~owner =
    Hashtbl.fold
      (fun key hs acc -> if List.mem_assoc owner hs then key :: acc else acc)
      t.locks []
    |> List.sort compare

  let stamp_held t ~owner s =
    List.iter (fun key -> Hashtbl.replace t.stamps key s) (held_keys t ~owner)

  let release_all t ~owner =
    List.iter
      (fun key ->
        Hashtbl.replace t.locks key (List.remove_assoc owner (holders t key)))
      (held_keys t ~owner);
    Hashtbl.remove t.waits owner;
    Hashtbl.fold (fun o bs acc -> (o, bs) :: acc) t.waits []
    |> List.iter (fun (o, bs) ->
           match List.filter (fun b -> b <> owner) bs with
           | [] -> Hashtbl.remove t.waits o
           | bs -> Hashtbl.replace t.waits o bs)

  let wait_edges t =
    Hashtbl.fold (fun o bs acc -> (o, List.sort compare bs) :: acc) t.waits []
    |> List.sort compare
end

(* --- inter-transaction subsumption: flat triples vs interval maps --- *)

(* The reference check: each region's covered set shifted to segment
   offsets, merged per segment into one interval map, and compared
   segment by segment. *)
module Subsumption_ref = struct
  let merge_covered l =
    let tbl = Hashtbl.create 4 in
    List.iter
      (fun (seg, iv) ->
        let cur =
          match Hashtbl.find_opt tbl seg with
          | Some cur -> cur
          | None ->
            let cur = Intervals.create () in
            Hashtbl.replace tbl seg cur;
            cur
        in
        Intervals.iter iv ~f:(fun ~lo ~len -> Intervals.add cur ~lo ~len))
      l;
    Hashtbl.fold (fun seg iv acc -> (seg, iv) :: acc) tbl []

  let subsumes_entry ~newer ~older =
    List.for_all
      (fun (seg, iv) ->
        match List.assoc_opt seg newer with
        | Some niv -> Intervals.subsumes niv iv
        | None -> Intervals.is_empty iv)
      older

  let covered parts =
    merge_covered
      (List.map
         (fun (seg, base, iv) ->
           let shifted = Intervals.create () in
           Intervals.iter iv ~f:(fun ~lo ~len ->
               Intervals.add shifted ~lo:(base + lo) ~len);
           (seg, shifted))
         parts)
end

(* Regions of [sub_len] bytes, three per segment at adjacent offsets, so
   intervals that end at a region's edge meet the next region's in
   segment coordinates. A part is one region's region-relative
   intervals. *)
let sub_len = 8

let gen_part =
  QCheck.Gen.(
    map3
      (fun seg r ivs -> (seg, r * sub_len, ivs))
      (int_range 1 2) (int_bound 2)
      (list_size (int_range 1 3)
         (int_bound (sub_len - 1) >>= fun lo ->
          map (fun len -> (lo, len)) (int_range 1 (sub_len - lo)))))

(* An older set drawn from the newer one — some intervals dropped, the
   rest trimmed or grown by a byte at an end — makes both answers
   common; independent draws cover segments the newer never touched. *)
let gen_derived newer =
  QCheck.Gen.(
    let tweak (lo, len) =
      frequency
        [
          (3, return (Some (lo, len)));
          (1, return None);
          (1, return (if len > 1 then Some (lo + 1, len - 1) else None));
          (1, return (if lo + len < sub_len then Some (lo, len + 1) else None));
          (1, return (if lo > 0 then Some (lo - 1, len + 1) else None));
        ]
    in
    flatten_l
      (List.map
         (fun (seg, base, ivs) ->
           map
             (fun ivs -> (seg, base, List.filter_map Fun.id ivs))
             (flatten_l (List.map tweak ivs)))
         newer))

let gen_covered_pair =
  QCheck.Gen.(
    list_size (int_range 0 4) gen_part >>= fun newer ->
    frequency
      [
        (3, gen_derived newer);
        (1, list_size (int_range 0 4) gen_part);
      ]
    >|= fun older -> (newer, older))

let prop_covered_subsumption =
  let to_iv (seg, base, ivs) =
    let iv = Intervals.create () in
    List.iter (fun (lo, len) -> Intervals.add iv ~lo ~len) ivs;
    (seg, base, iv)
  in
  let print (newer, older) =
    let side parts =
      String.concat " "
        (List.map
           (fun (seg, base, ivs) ->
             Printf.sprintf "s%d@%d{%s}" seg base
               (String.concat ","
                  (List.map (fun (lo, len) -> Printf.sprintf "%d+%d" lo len) ivs)))
           parts)
    in
    Printf.sprintf "newer: %s / older: %s" (side newer) (side older)
  in
  QCheck.Test.make
    ~name:"covered-set subsumption agrees with per-segment interval maps"
    ~count:1000 (QCheck.make ~print gen_covered_pair) (fun (newer, older) ->
      let newer = List.map to_iv newer and older = List.map to_iv older in
      let flat parts =
        List.sort compare (Subsumption_ref.covered parts)
        |> List.concat_map (fun (seg, iv) ->
               List.map (fun (lo, len) -> (seg, lo, lo + len)) (Intervals.to_list iv))
      in
      Covered.to_list (Covered.of_parts newer) = flat newer
      && Covered.to_list (Covered.of_parts older) = flat older
      && Covered.subsumes ~newer:(Covered.of_parts newer)
           ~older:(Covered.of_parts older)
         = Subsumption_ref.subsumes_entry
             ~newer:(Subsumption_ref.covered newer)
             ~older:(Subsumption_ref.covered older))

(* --- uncommitted page references vs a reference count --- *)

type ref_op =
  | Begin of Types.restore_mode
  | Set of int * int * int * int  (* active txn pick, region, offset, len *)
  | End of int * Types.commit_mode
  | Abort_txn of int
  | Flush_all

(* Two adjacent regions of one segment, four small pages each: segment
   page [p] is page [p mod 4] of region [p / 4]. *)
let ref_ps = 256
let ref_region_len = 4 * ref_ps

let gen_ref_ops =
  QCheck.Gen.(
    list_size (int_range 1 60)
      (frequency
         [
           ( 2,
             map
               (fun r -> Begin (if r then Types.Restore else Types.No_restore))
               bool );
           ( 6,
             int_bound 7 >>= fun k ->
             int_bound 1 >>= fun r ->
             int_bound (ref_region_len - 1) >>= fun off ->
             int_range 1 (min (2 * ref_ps) (ref_region_len - off)) >|= fun len ->
             Set (k, r, off, len) );
           ( 3,
             map2
               (fun k f -> End (k, if f then Types.Flush else Types.No_flush))
               (int_bound 7) bool );
           (1, map (fun k -> Abort_txn k) (int_bound 7));
           (1, return Flush_all);
         ]))

let show_ref_op = function
  | Begin m -> if m = Types.Restore then "begin" else "begin~nr"
  | Set (k, r, off, len) -> Printf.sprintf "set(#%d,r%d,%d+%d)" k r off len
  | End (k, m) -> Printf.sprintf "end(#%d%s)" k (if m = Types.Flush then "!" else "~")
  | Abort_txn k -> Printf.sprintf "abort(#%d)" k
  | Flush_all -> "flush"

(* After every step, each page's uncommitted count equals the number of
   active transactions plus undrained, unsubsumed no-flush commits with a
   covered byte in that page; once everything resolves and flushes, every
   count is zero. The model tracks covered bytes as a segment bitmap and
   drops a spooled commit when a newer one covers all of its bytes. *)
let prop_uncommitted_refs =
  let seg_len = 2 * ref_region_len in
  QCheck.Test.make ~name:"uncommitted page references match a reference count"
    ~count:200
    (QCheck.make gen_ref_ops ~print:(fun ops ->
         String.concat " " (List.map show_ref_op ops)))
    (fun ops ->
      let log_dev = Mem_device.create ~name:"ulog" ~size:(1024 * 1024) () in
      Rvm.create_log log_dev;
      let seg_dev = Mem_device.create ~name:"useg" ~size:seg_len () in
      let options =
        { Options.default with Options.page_size = ref_ps; auto_truncate = false }
      in
      let rvm =
        Rvm.initialize ~options ~log:log_dev ~resolve:(fun _ -> seg_dev) ()
      in
      let regions =
        Array.init 2 (fun r ->
            Rvm.map rvm ~seg:1 ~seg_off:(r * ref_region_len) ~len:ref_region_len
              ())
      in
      let active = ref [] and spool = ref [] in
      let touches cov p =
        Bytes.exists (fun c -> c <> '\000') (Bytes.sub cov (p * ref_ps) ref_ps)
      in
      let is_empty cov = not (Bytes.exists (fun c -> c <> '\000') cov) in
      let subset a b =
        let ok = ref true in
        Bytes.iteri (fun i c -> if c <> '\000' && Bytes.get b i = '\000' then ok := false) a;
        !ok
      in
      let counts () =
        List.init (seg_len / ref_ps) (fun p ->
            let r = regions.(p / 4) in
            ( Rvm_vm.Page_table.uncommitted r.Region.pages (p mod 4),
              List.length (List.filter (fun (_, _, cov) -> touches cov p) !active)
              + List.length (List.filter (fun cov -> touches cov p) !spool) ))
      in
      let agree () =
        List.for_all (fun (got, want) -> got = want) (counts ())
        && (Rvm.query rvm).Rvm.spool_records = List.length !spool
      in
      let pick k =
        match !active with
        | [] -> None
        | l -> Some (List.nth l (k mod List.length l))
      in
      let remove tid = active := List.filter (fun (t, _, _) -> t <> tid) !active in
      let step = function
        | Begin mode ->
          let tid = Rvm.begin_transaction rvm ~mode in
          active := (tid, mode, Bytes.make seg_len '\000') :: !active
        | Set (k, r, off, len) -> (
          match pick k with
          | None -> ()
          | Some (tid, _, cov) ->
            Rvm.set_range rvm tid ~addr:(regions.(r).Region.vaddr + off) ~len;
            Bytes.fill cov ((r * ref_region_len) + off) len '\001')
        | End (k, mode) -> (
          match pick k with
          | None -> ()
          | Some (tid, _, cov) ->
            Rvm.end_transaction rvm tid ~mode;
            remove tid;
            if not (is_empty cov) then
              spool :=
                match mode with
                | Types.Flush -> []
                | Types.No_flush ->
                  cov :: List.filter (fun old -> not (subset old cov)) !spool)
        | Abort_txn k -> (
          match pick k with
          | Some (tid, Types.Restore, _) ->
            Rvm.abort_transaction rvm tid;
            remove tid
          | _ -> ())
        | Flush_all ->
          Rvm.flush rvm;
          spool := []
      in
      let ok = List.for_all (fun op -> step op; agree ()) ops in
      List.iter
        (fun (tid, _, _) -> Rvm.end_transaction rvm tid ~mode:Types.No_flush)
        !active;
      Rvm.flush rvm;
      ok && List.for_all (fun (got, _) -> got = 0) (counts ()))

type lock_op =
  | Wait_for of int * int * Lock_mgr.mode
  | Release of int
  | Release_stamped of int

let prop_lock_mgr_index =
  let owners = 5 and keys = 6 in
  let key k = "k" ^ string_of_int k in
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 80)
        (frequency
           [
             ( 6,
               map3
                 (fun o k m -> Wait_for (o, k, m))
                 (int_range 1 owners) (int_bound (keys - 1))
                 (oneofl [ Lock_mgr.Shared; Lock_mgr.Update; Lock_mgr.Exclusive ])
             );
             (1, map (fun o -> Release o) (int_range 1 owners));
             (1, map (fun o -> Release_stamped o) (int_range 1 owners));
           ]))
  in
  let print ops =
    String.concat "; "
      (List.map
         (function
           | Wait_for (o, k, m) ->
             Printf.sprintf "wait(%d,%s,%s)" o (key k)
               (match m with
               | Lock_mgr.Shared -> "S"
               | Lock_mgr.Update -> "U"
               | Lock_mgr.Exclusive -> "X")
           | Release o -> Printf.sprintf "release(%d)" o
           | Release_stamped o -> Printf.sprintf "stamp+release(%d)" o)
         ops)
  in
  QCheck.Test.make ~name:"lock manager held-key index matches full-table scan"
    ~count:300 (QCheck.make ~print gen) (fun ops ->
      let lm = Lock_mgr.create () and r = Lock_ref.create () in
      let lsn = ref 0 in
      let agree () =
        Lock_mgr.wait_edges lm = Lock_ref.wait_edges r
        && List.for_all
             (fun k ->
               Lock_mgr.holders lm ~key:(key k) = Lock_ref.holders r (key k)
               && Lock_mgr.stamp lm ~key:(key k)
                  = Hashtbl.find_opt r.Lock_ref.stamps (key k))
             (List.init keys Fun.id)
        && List.for_all
             (fun o -> Lock_mgr.held_keys lm ~owner:o = Lock_ref.held_keys r ~owner:o)
             (List.init owners (fun o -> o + 1))
      in
      List.for_all
        (fun op ->
          let same =
            match op with
            | Wait_for (owner, k, mode) ->
              Lock_mgr.wait_for lm ~owner ~key:(key k) mode
              = Lock_ref.wait_for r ~owner ~key:(key k) mode
            | Release owner ->
              Lock_mgr.release_all lm ~owner;
              Lock_ref.release_all r ~owner;
              true
            | Release_stamped owner ->
              incr lsn;
              Lock_mgr.stamp_held lm ~owner (!lsn, owner);
              Lock_mgr.release_all lm ~owner;
              Lock_ref.stamp_held r ~owner (!lsn, owner);
              Lock_ref.release_all r ~owner;
              true
          in
          same && agree ())
        ops)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_recovery_epoch;
      prop_recovery_torn;
      prop_recovery_incremental;
      prop_intervals;
      prop_record_roundtrip;
      prop_intra_equivalence;
      prop_allocator;
      prop_log_manager;
      prop_bounded_open;
      prop_spool_image;
      prop_sim_device_extents;
      prop_lock_mgr_index;
      prop_covered_subsumption;
      prop_uncommitted_refs;
    ]
