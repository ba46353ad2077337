(* rvmutl — RVM log utility.

   Mirrors the administrative companion of the original RVM release plus
   the post-mortem debugging workflow of section 6: "All we had to do was
   to save a copy of the log before truncation, and to build a post-mortem
   tool to search and display the history of modifications recorded by the
   log."

     rvmutl create-log  LOG --size BYTES
     rvmutl create-seg  SEG --size BYTES
     rvmutl status      LOG
     rvmutl dump        LOG [--data]
     rvmutl history     LOG --seg ID --off OFF [--len LEN]
     rvmutl recover     LOG --map ID=PATH [--map ID=PATH ...]
     rvmutl stats       LOG [--json] [--heap-seg SEG --heap-base ADDR]
     rvmutl check       [--ops N] [--seed S] [--exhaustive] [--sector B]
                        [--incremental] [--shards N] [--mid-truncation]
                        [--elr] [--btree]
     rvmutl trace       LOG --out t.json [--txns N] [--accounts N]
                        [--batch B] [--seed S] [--top N]
     rvmutl serve       [--workload tpca|ycsb-a..ycsb-f] [--requests N]
                        [--seed S] [--load TPS]... [--batch B]...
                        [--sessions N --think-ms MS] [--log-size BYTES]
                        [--monitor] [--window-ms MS] [--postmortem FILE]
                        tpca: [--accounts N] [--zipf-s S] [--read-pct PCT]
                              [--trace FILE]
                        ycsb-*: [--records N]
     rvmutl benchdiff   OLD.json NEW.json
*)

module Device = Rvm_disk.Device
module File_device = Rvm_disk.File_device
module Log_manager = Rvm_log.Log_manager
module Record = Rvm_log.Record
module Status = Rvm_log.Status
module Clock = Rvm_util.Clock
module Cost_model = Rvm_util.Cost_model

open Cmdliner

let open_log path =
  let dev = File_device.open_existing ~path in
  match Log_manager.open_log dev with
  | Ok lm -> lm
  | Error e ->
    Printf.eprintf "rvmutl: %s: %s\n" path e;
    exit 1

(* --- create-log --- *)

let create_log path size =
  let dev = File_device.create ~truncate:true ~path ~size () in
  Log_manager.format dev;
  dev.Device.close ();
  Printf.printf "formatted %s as a %d-byte RVM log\n" path size

(* --- create-seg --- *)

let create_seg path size =
  let dev = File_device.create ~truncate:true ~path ~size () in
  dev.Device.sync ();
  dev.Device.close ();
  Printf.printf "created %d-byte external data segment %s\n" size path

(* --- status --- *)

let status path =
  let lm = open_log path in
  let st = Log_manager.status lm in
  Printf.printf "log:          %s\n" path;
  Printf.printf "size:         %d bytes (%d usable)\n" st.Status.log_size
    (Log_manager.capacity lm);
  Printf.printf "head:         offset %d, seqno %d\n" st.Status.head
    st.Status.head_seqno;
  Printf.printf "tail:         offset %d, next seqno %d\n" (Log_manager.tail lm)
    (Log_manager.next_seqno lm);
  Printf.printf "live:         %d records, %d bytes (%.1f%% full)\n"
    (Log_manager.record_count lm)
    (Log_manager.used_bytes lm)
    (100.
    *. float_of_int (Log_manager.used_bytes lm)
    /. float_of_int (Log_manager.capacity lm));
  Printf.printf "truncations:  %d\n" st.Status.truncations

(* --- dump --- *)

let pp_record ~data ~off (r : Record.t) =
  match r.Record.kind with
  | Record.Wrap ->
    Printf.printf "%8d  seq %-6d WRAP (pad %d)\n" off r.Record.seqno r.Record.pad
  | Record.Commit ->
    Printf.printf "%8d  seq %-6d tid %-6d t=%dus flags=%#x ranges=%d (%d bytes)\n"
      off r.Record.seqno r.Record.tid r.Record.timestamp_us r.Record.flags
      (List.length r.Record.ranges)
      (Record.data_bytes r);
    List.iter
      (fun (rg : Record.range) ->
        Printf.printf "          seg %d [%d, %d)" rg.Record.seg rg.Record.off
          (rg.Record.off + Bytes.length rg.Record.data);
        if data then begin
          print_string "  ";
          let n = min 32 (Bytes.length rg.Record.data) in
          for i = 0 to n - 1 do
            Printf.printf "%02x" (Char.code (Bytes.get rg.Record.data i))
          done;
          if Bytes.length rg.Record.data > n then print_string "..."
        end;
        print_newline ())
      r.Record.ranges

let dump path data =
  let lm = open_log path in
  Log_manager.iter_live lm ~f:(fun ~off r -> pp_record ~data ~off r);
  Printf.printf "%d live records\n" (Log_manager.record_count lm)

(* --- history: the post-mortem debugger --- *)

let history path seg off len =
  let lm = open_log path in
  let lo = off and hi = off + len in
  let hits = ref 0 in
  Log_manager.iter_live lm ~f:(fun ~off:rec_off r ->
      if r.Record.kind = Record.Commit then
        List.iter
          (fun (rg : Record.range) ->
            let rlo = rg.Record.off in
            let rhi = rlo + Bytes.length rg.Record.data in
            if rg.Record.seg = seg && rlo < hi && lo < rhi then begin
              incr hits;
              let slo = max lo rlo and shi = min hi rhi in
              Printf.printf
                "seq %-6d tid %-6d t=%dus @ log offset %d wrote [%d, %d): "
                r.Record.seqno r.Record.tid r.Record.timestamp_us rec_off slo
                shi;
              for i = slo to min (shi - 1) (slo + 31) do
                Printf.printf "%02x"
                  (Char.code (Bytes.get rg.Record.data (i - rlo)))
              done;
              if shi - slo > 32 then print_string "...";
              print_newline ()
            end)
          r.Record.ranges);
  Printf.printf
    "%d modification(s) of segment %d range [%d, %d) in the live log\n" !hits
    seg lo hi

(* --- recover --- *)

let parse_map s =
  match String.index_opt s '=' with
  | Some i ->
    let id = int_of_string (String.sub s 0 i) in
    let path = String.sub s (i + 1) (String.length s - i - 1) in
    (id, path)
  | None -> failwith (Printf.sprintf "bad --map %S (expected ID=PATH)" s)

let recover path maps =
  let lm = open_log path in
  let table = Hashtbl.create 4 in
  let resolve id =
    match Hashtbl.find_opt table id with
    | Some seg -> seg
    | None -> (
      match List.assoc_opt id maps with
      | Some seg_path ->
        let seg =
          Rvm_core.Segment.create ~id (File_device.open_existing ~path:seg_path)
        in
        Hashtbl.replace table id seg;
        seg
      | None ->
        Printf.eprintf "rvmutl: no --map for segment %d\n" id;
        exit 1)
  in
  let outcome =
    Rvm_core.Recovery.recover ~resolve ~clock:Clock.null
      ~model:Cost_model.dec5000 lm
  in
  Printf.printf "recovered: %d records, %d bytes applied to %d segment(s)\n"
    outcome.Rvm_core.Recovery.records_seen
    outcome.Rvm_core.Recovery.bytes_applied
    (List.length outcome.Rvm_core.Recovery.segments_touched)

(* --- stats: observability snapshot --- *)

let read_file_bytes path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = Bytes.create n in
  really_input ic b 0 n;
  close_in ic;
  b

(* Attach the Rds heap held in a segment image and publish its occupancy
   gauges. Both files are copied into memory devices first — stats must
   never mutate the log or segment it inspects, and recovery writes. *)
let heap_stats obs ~log_path ~seg_path ~base =
  let module Rds = Rvm_alloc.Rds in
  let log_dev =
    Rvm_disk.Mem_device.of_bytes ~name:"stats-log" (read_file_bytes log_path)
  in
  let seg_bytes = read_file_bytes seg_path in
  let seg_dev = Rvm_disk.Mem_device.of_bytes ~name:"stats-seg" seg_bytes in
  let rvm =
    Rvm_core.Rvm.reinitialize ~log:log_dev ~resolve:(fun _ -> seg_dev) ()
  in
  ignore
    (Rvm_core.Rvm.map rvm ~vaddr:base ~seg:1 ~seg_off:0
       ~len:(Bytes.length seg_bytes) ());
  let heap = Rds.attach rvm ~base in
  let gauge name v = Rvm_obs.Counter.add (Rvm_obs.Registry.counter obs name) v in
  gauge "rds.allocated.bytes" (Rds.allocated_bytes heap);
  gauge "rds.free.bytes" (Rds.free_bytes heap);
  gauge "rds.free.list.length" (Rds.free_list_length heap);
  gauge "rds.blocks" (Rds.block_count heap);
  gauge "rds.heap.bytes" (Rds.heap_len heap)

let stats path json heap_seg heap_base =
  let obs = Rvm_obs.Registry.create () in
  let file = File_device.open_existing ~path in
  let dev = Rvm_disk.Stack.with_stats ~obs ~prefix:"disk.log" () file in
  let lm =
    match Log_manager.open_log ~obs dev with
    | Ok lm -> lm
    | Error e ->
      Printf.eprintf "rvmutl: %s: %s\n" path e;
      exit 1
  in
  (* The disk.log.* traffic is the open scan's: the status block and the
     live window in whole chunks, which its image spares any live scan.
     Publish the log's own state alongside it. *)
  let gauge name v = Rvm_obs.Counter.add (Rvm_obs.Registry.counter obs name) v in
  gauge "log.live.records" (Log_manager.record_count lm);
  gauge "log.live.bytes" (Log_manager.used_bytes lm);
  gauge "log.capacity.bytes" (Log_manager.capacity lm);
  gauge "log.truncations.total"
    (Log_manager.status lm).Status.truncations;
  dev.Device.close ();
  (match heap_seg with
  | Some seg_path -> heap_stats obs ~log_path:path ~seg_path ~base:heap_base
  | None -> ());
  if json then
    print_string (Rvm_obs.Json.to_string_pretty (Rvm_obs.Registry.to_json obs))
  else Format.printf "%a@." Rvm_obs.Registry.pp obs

(* --- check: the deterministic crash-point explorers --- *)

module Crash = Rvm_check.Crash

(* Print the outcome; on a violation, print the shrunk counterexample (if
   the explorer has an op list to shrink) and exit 1. *)
let verdict ?shrink o =
  Format.printf "%a@." Crash.pp_outcome o;
  if o.Crash.violations <> [] then begin
    Option.iter (fun pp -> Format.printf "@.shrinking...@.%t@." pp) shrink;
    exit 1
  end

let shrink ?edits ~to_string ~violates ops ppf =
  Crash.pp_counterexample ~to_string ppf
    (Rvm_check.Shrink.minimize ?edits ~check:violates ops)

let check ops_n seed exhaustive sector incremental shards mid_truncation elr
    btree =
  if sector <= 0 then begin
    Printf.eprintf "rvmutl: --sector must be positive (got %d)\n" sector;
    exit 2
  end;
  if ops_n < 0 then begin
    Printf.eprintf "rvmutl: --ops must be non-negative (got %d)\n" ops_n;
    exit 2
  end;
  if shards < 1 then begin
    Printf.eprintf "rvmutl: --shards must be at least 1 (got %d)\n" shards;
    exit 2
  end;
  let core (c : Crash.config) = { c with Crash.sector; exhaustive } in
  let truncation_mode =
    if incremental then Rvm_core.Types.Incremental else Rvm_core.Types.Epoch
  in
  (* A small log keeps the truncators due from the first commits, so the
     Step ops in the workload really advance runs. *)
  let log_size default = if mid_truncation then 16 * 1024 else default in
  let rng = Rvm_util.Rng.create ~seed:(Int64.of_int seed) in
  if btree then begin
    let module Bc = Rvm_check.Btree_check in
    let config =
      { Bc.core = core Bc.default_config.Bc.core }
    in
    Printf.printf
      "B-tree structural explorer (minimum degree %d, sector %d%s)\n\n"
      Bc.degree sector
      (if exhaustive then ", exhaustive" else "");
    let o = Bc.run ~config () in
    verdict o;
    if List.exists (fun c -> Crash.counter o c = 0) [ "splits"; "merges"; "borrows" ]
    then begin
      print_endline
        "coverage failure: the scripted workload did not reach every \
         structural path";
      exit 1
    end
  end
  else if elr then begin
    let module Ec = Rvm_check.Elr_check in
    let config =
      {
        Ec.default_config with
        Ec.shards;
        seed = Int64.of_int seed;
        core = core Ec.default_config.Ec.core;
      }
    in
    Printf.printf
      "ELR pipeline explorer (%d shards, %d requests, %d%% lookups, seed %d)\n\n"
      shards config.Ec.requests Ec.read_pct seed;
    match Ec.run ~config () with
    | o -> verdict o
    | exception Invalid_argument msg ->
      (* The run wrapped an audit trail: membership is unreadable. *)
      Printf.eprintf "rvmutl: %s\n" msg;
      exit 2
  end
  else begin
    let module Ex = Rvm_check.Explorer in
    let module Workload = Rvm_check.Workload in
    let defaults = Ex.for_shards shards in
    let config =
      {
        defaults with
        Ex.core = core defaults.Ex.core;
        truncation_mode;
        mid_truncation;
        log_size = log_size defaults.Ex.log_size;
      }
    in
    let ops = Workload.generate ~mid_truncation ~rng ~ops:ops_n ~shards () in
    Printf.printf "workload (%d ops, %d shard%s, seed %d): %s\n\n" ops_n shards
      (if shards = 1 then "" else "s")
      seed (Workload.to_string ops);
    verdict
      ~shrink:
        (shrink ~edits:Ex.edits ~to_string:Workload.op_to_string
           ~violates:(Ex.violates ~config) ops)
      (Ex.run ~config ops)
  end

(* --- trace: causal tracing of a TPC-A run --- *)

let trace path out txns accounts batch seed top_n =
  if txns <= 0 then begin
    Printf.eprintf "rvmutl: --txns must be positive (got %d)\n" txns;
    exit 2
  end;
  if accounts <= 0 then begin
    Printf.eprintf "rvmutl: --accounts must be positive (got %d)\n" accounts;
    exit 2
  end;
  let module Tpca = Rvm_workload.Tpca in
  let module Driver = Rvm_workload.Driver in
  let module Registry = Rvm_obs.Registry in
  let file = File_device.open_existing ~path in
  (* Simulated clock + latency-modeled devices: the trace timeline is the
     paper hardware's microseconds, deterministic for a given seed. *)
  let clock = Clock.simulated () in
  let model = Cost_model.dec5000 in
  let log_dev =
    Rvm_disk.Stack.with_latency ~clock ~disk:model.Cost_model.log_disk () file
  in
  let options = Rvm_core.Options.default in
  let layout =
    Tpca.layout ~accounts ~base:0x200000
      ~page_size:options.Rvm_core.Options.page_size
  in
  let seg_mem = Rvm_disk.Mem_device.create ~size:layout.Tpca.total_len () in
  let seg_dev =
    Rvm_disk.Stack.with_latency ~clock ~disk:model.Cost_model.data_disk ()
      seg_mem
  in
  let obs = Registry.create ~trace_capacity:(max 4096 (txns * 24)) () in
  let rvm =
    Rvm_core.Rvm.initialize ~options ~clock ~model ~obs ~log:log_dev
      ~resolve:(fun _ -> seg_dev)
      ()
  in
  ignore
    (Rvm_core.Rvm.map rvm ~vaddr:layout.Tpca.base ~seg:1 ~seg_off:0
       ~len:layout.Tpca.total_len ());
  let state = Tpca.create layout Tpca.Random ~seed:(Int64.of_int seed) in
  let eng_flush = Driver.of_rvm ~commit_mode:Rvm_core.Types.Flush rvm in
  let eng_noflush = Driver.of_rvm ~commit_mode:Rvm_core.Types.No_flush rvm in
  for i = 1 to txns do
    (* Batches of no-flush commits closed by a flush, the paper's intended
       usage; the closing commit's force covers the whole batch, so every
       log.drain / disk.log.sync in the trace sits under the transaction
       that triggered it. *)
    let eng =
      if batch > 1 && i mod batch <> 0 && i <> txns then eng_noflush
      else eng_flush
    in
    Tpca.transaction state eng
  done;
  (* Snapshot before terminate: terminate's final drain/force is engine
     shutdown, not part of any transaction. *)
  let spans = Registry.events obs in
  Rvm_core.Rvm.terminate rvm;
  Rvm_obs.Export.write_chrome_trace ~process_name:"rvm-tpca" ~path:out spans;
  Printf.printf
    "traced %d TPC-A transaction(s) (%d accounts, batch %d, seed %d): %d \
     span(s)\nwrote %s (load in Perfetto or chrome://tracing)\n\n"
    txns accounts batch seed (List.length spans) out;
  Format.printf "%a@." (Rvm_obs.Export.pp_top ~slowest:top_n) spans

(* --- serve: the transaction server over any workload --- *)

(* The monitor's verdict at the end of a --monitor run. *)
let print_verdict mon =
  let module M = Rvm_obs.Monitor in
  let incs = M.incidents mon in
  let windows = Rvm_obs.Timeseries.completed (M.timeseries mon) in
  if incs = [] then
    Printf.printf "monitor: healthy - zero incidents over %d windows\n"
      windows
  else begin
    Printf.printf "monitor: %d incident(s) over %d windows\n"
      (List.length incs) windows;
    List.iter
      (fun (i : M.incident) ->
        Printf.printf "  [%s] %s opened t=%.2fs %s\n"
          (M.severity_to_string i.M.i_severity)
          i.M.i_rule
          (i.M.opened_at_us /. 1e6)
          (match i.M.closed_at_us with
          | Some t -> Printf.sprintf "closed t=%.2fs" (t /. 1e6)
          | None -> "(open at end of run)");
        match i.M.i_reasons with
        | r :: _ -> Printf.printf "      %s\n" r
        | [] -> ())
      incs
  end

(* --trace: one cell of any workload, its world's span ring resized to
   hold everything, exported as Chrome trace_event JSON — the background
   truncator's steps show up interleaved with the commit batches that
   triggered them. [obs] is the built world's registry; [serve] serves
   the world and answers the committed count. *)
let serve_traced (obs, serve) ~requests ~label out =
  Rvm_obs.Registry.set_trace_capacity obs (max 16384 (requests * 24));
  let committed = serve () in
  let spans = Rvm_obs.Registry.events obs in
  Rvm_obs.Export.write_chrome_trace ~process_name:"rvm-server" ~path:out spans;
  Printf.printf
    "traced %d request(s) (%s): %d span(s)\n\
     wrote %s (load in Perfetto or chrome://tracing)\n\n"
    committed label (List.length spans) out

(* Every workload is served one way. The sweep crosses every --load (open
   loop) and the --sessions closed loop with every --batch, on one default
   grid. --monitor serves one cell instead, the first load (else the
   closed loop, else 40 tps) x the first batch (else 8), streaming a
   health line per closed window and ending with the row, the verdict and
   the postmortem JSON. --trace (without --monitor) first serves that one
   cell traced. A workload brings its per-cell config builder, its run
   functions, its traced world and its table. *)
let serve requests accounts seed loads batches sessions think_ms trace_out
    log_size zipf_s read_pct monitor window_ms postmortem_out workload records
    =
  let module S = Rvm_server.Server in
  let module Y = Rvm_server.Ycsb_run in
  let module J = Rvm_obs.Json in
  let usage fmt =
    Printf.ksprintf (fun m -> prerr_endline ("rvmutl: " ^ m); exit 2) fmt
  in
  if requests <= 0 then usage "--requests must be positive (got %d)" requests;
  if read_pct < 0 || read_pct > 100 then
    usage "--read-pct must be in [0, 100] (got %d)" read_pct;
  List.iter
    (fun b -> if b <= 0 then usage "--batch must be positive (got %d)" b)
    batches;
  List.iter
    (fun t -> if t <= 0. then usage "--load must be positive (got %g)" t)
    loads;
  Option.iter
    (fun n -> if n <= 0 then usage "--sessions must be positive (got %d)" n)
    sessions;
  if think_ms < 0. then
    usage "--think-ms must be non-negative (got %g)" think_ms;
  if monitor && window_ms <= 0. then
    usage "--window-ms must be positive (got %g)" window_ms;
  let seed = Int64.of_int seed in
  let closed =
    Option.map
      (fun n -> S.Closed_loop { sessions = n; think_us = think_ms *. 1e3 })
      sessions
  in
  let grid =
    let loads = if loads = [] then [ 10.; 20.; 40.; 80.; 160. ] else loads in
    let batches = if batches = [] then [ 1; 8 ] else batches in
    List.concat_map
      (fun load -> List.map (fun b -> (load, b)) batches)
      (List.map (fun t -> S.Open_loop t) loads @ Option.to_list closed)
  in
  let one =
    ( (match (loads, closed) with
      | t :: _, _ -> S.Open_loop t
      | [], Some l -> l
      | [], None -> S.default_config.S.load),
      match batches with b :: _ -> b | [] -> S.default_config.S.batch_max )
  in
  let window_us = window_ms *. 1e3 in
  let on_window mon _ =
    Option.iter print_endline (Rvm_obs.Monitor.health_line mon)
  in
  (* [ok] is the row's serial-reference verdict, where it has one *)
  let serve_workload ~cell ~run ~run_monitored ~world ~pp_table ~to_json ~ok =
    if monitor then begin
      let result, mon = run_monitored (cell one) in
      Format.printf "@\n%a@?" pp_table [ result ];
      print_verdict mon;
      let args = List.tl (Array.to_list Sys.argv) in
      J.write_file ~path:postmortem_out
        (Rvm_obs.Monitor.postmortem mon
           ~run:
             [
               ("tool", J.String "rvmutl serve --monitor");
               (* the flags, so the postmortem names its own rerun *)
               ("args", J.List (List.map (fun a -> J.String a) args));
               ("result", to_json result);
             ]);
      Printf.printf "wrote postmortem %s\n" postmortem_out
    end
    else begin
      let load, batch = one in
      Option.iter
        (fun out ->
          serve_traced (world (cell one)) ~requests
            ~label:
              (Printf.sprintf "%s, batch %d, log %d B, seed %Ld"
                 (S.load_name load) batch log_size seed)
            out)
        trace_out;
      let rows = List.map (fun c -> run (cell c)) grid in
      Format.printf "%a@?" pp_table rows;
      if not (List.for_all ok rows) then begin
        print_endline "serial-reference mismatch";
        exit 1
      end
    end
  in
  let module W = Rvm_workload.Ycsb in
  let mix =
    List.find_opt (fun m -> W.mix_name m = workload) W.[ A; B; C; D; E; F ]
  in
  match mix with
  | None when workload <> "tpca" ->
    usage "unknown --workload %S (expected tpca or ycsb-a..ycsb-f)" workload
  | None ->
    if accounts <= 0 then usage "--accounts must be positive (got %d)" accounts;
    if zipf_s < 0. then usage "--zipf-s must be non-negative (got %g)" zipf_s;
    let cell (load, batch_max) =
      {
        S.default_config with
        S.requests;
        accounts;
        seed;
        load;
        batch_max;
        log_size;
        zipf_s;
        read_pct;
      }
    in
    serve_workload ~cell ~run:S.run
      ~run_monitored:(S.run_monitored ~window_us ~on_window)
      ~world:(fun c ->
        let w = S.build_world c in
        ( w.S.obs,
          fun () ->
            let tally, _, _ = S.serve w (S.scheduler_of c w) in
            tally.Rvm_server.Scheduler.committed ))
      ~pp_table:S.pp_table ~to_json:S.result_to_json ~ok:(fun _ -> true)
  | Some mix ->
    if records <= 0 then usage "--records must be positive (got %d)" records;
    let cell (load, batch_max) =
      {
        Y.default_config with
        Y.mix;
        records;
        requests;
        seed;
        load;
        batch_max;
        log_size;
      }
    in
    serve_workload ~cell ~run:Y.run
      ~run_monitored:(Y.run_monitored ~window_us ~on_window)
      ~world:(fun c ->
        let w = Y.build_world c in
        ( w.Y.obs,
          fun () ->
            let r = Y.serve c w in
            r.Y.committed ))
      ~pp_table:Y.pp_table ~to_json:Y.result_to_json ~ok:(fun r ->
        r.Y.serial_equal)

(* --- benchdiff: the bench artifact regression gate --- *)

let benchdiff old_path new_path =
  let module J = Rvm_obs.Json in
  let module Gate = Rvm_obs.Gate in
  let read p =
    try J.read_file ~path:p
    with Sys_error e | J.Parse_error e ->
      Printf.eprintf "rvmutl: %s: %s\n" p e;
      exit 2
  in
  let report = Gate.check ~old:(read old_path) ~new_:(read new_path) in
  Printf.printf "benchdiff %s -> %s\n" old_path new_path;
  Format.printf "%a@?" Gate.pp_report report;
  if report.Gate.failures <> [] then exit 1

(* --- command line --- *)

let log_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"LOG" ~doc:"Log file.")

let size_arg =
  Arg.(
    required
    & opt (some int) None
    & info [ "size" ] ~docv:"BYTES" ~doc:"Size in bytes.")

let create_log_cmd =
  Cmd.v
    (Cmd.info "create-log" ~doc:"Format a file as an empty RVM log.")
    Term.(const create_log $ log_arg $ size_arg)

let create_seg_cmd =
  Cmd.v
    (Cmd.info "create-seg" ~doc:"Create a zeroed external data segment file.")
    Term.(const create_seg $ log_arg $ size_arg)

let status_cmd =
  Cmd.v
    (Cmd.info "status" ~doc:"Show the log status block and live statistics.")
    Term.(const status $ log_arg)

let dump_cmd =
  let data =
    Arg.(value & flag & info [ "data" ] ~doc:"Show range payloads (hex).")
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"List every live record in the log.")
    Term.(const dump $ log_arg $ data)

let history_cmd =
  let seg =
    Arg.(
      required
      & opt (some int) None
      & info [ "seg" ] ~docv:"ID" ~doc:"Segment identifier.")
  in
  let off =
    Arg.(
      required
      & opt (some int) None
      & info [ "off" ] ~docv:"OFF" ~doc:"Byte offset within the segment.")
  in
  let len =
    Arg.(value & opt int 1 & info [ "len" ] ~docv:"LEN" ~doc:"Range length.")
  in
  Cmd.v
    (Cmd.info "history"
       ~doc:
         "Post-mortem debugging (paper section 6): show the history of \
          modifications to an address range recorded in the live log.")
    Term.(const history $ log_arg $ seg $ off $ len)

let recover_cmd =
  let maps =
    Arg.(
      value
      & opt_all
          (conv
             ( (fun s ->
                 try Ok (parse_map s) with Failure m -> Error (`Msg m)),
               fun ppf (id, p) -> Format.fprintf ppf "%d=%s" id p ))
          []
      & info [ "map" ] ~docv:"ID=PATH" ~doc:"Segment id to file mapping.")
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Apply the log to its external data segments and empty it.")
    Term.(const recover $ log_arg $ maps)

let stats_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the snapshot as JSON instead of text.")
  in
  let heap_seg =
    Arg.(
      value
      & opt (some string) None
      & info [ "heap-seg" ] ~docv:"SEG"
          ~doc:
            "Also attach the Rds allocator heap held in this segment file \
             (recovered against the log in memory, never mutating either \
             file) and publish its occupancy: allocated and free bytes, \
             free-list length, block count.")
  in
  let heap_base =
    Arg.(
      value
      & opt int (16 * 4096)
      & info [ "heap-base" ] ~docv:"ADDR"
          ~doc:
            "Virtual address the heap was created at (Rds stores absolute \
             pointers, so the attach address must match).")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Open a log through the instrumented device stack and dump the \
          observability snapshot: per-layer disk traffic, append/scan \
          accounting and log occupancy. With --heap-seg, allocator heap \
          occupancy gauges are included.")
    Term.(const stats $ log_arg $ json $ heap_seg $ heap_base)

let check_cmd =
  let ops =
    Arg.(
      value & opt int 20
      & info [ "ops" ] ~docv:"N" ~doc:"Workload length in operations.")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"S" ~doc:"Workload generator seed.")
  in
  let exhaustive =
    Arg.(
      value & flag
      & info [ "exhaustive" ]
          ~doc:
            "Check every admissible torn position of every write instead of \
             capping the variants per write.")
  in
  let sector =
    Arg.(
      value & opt int 512
      & info [ "sector" ] ~docv:"BYTES"
          ~doc:"Hardware sector size (writes within one sector are atomic).")
  in
  let incremental =
    Arg.(
      value & flag
      & info [ "incremental" ]
          ~doc:"Run the workload with incremental (Figure 7) truncation.")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Explore the sharded multi-log engine with $(docv) shards: \
             workloads mix single-shard and cross-shard (parallel-commit) \
             transactions, and crash points are boundaries in the global \
             write/sync order across every shard's devices — including the \
             inter-shard boundaries of each commit round. 1 (the default) \
             checks the single-log engine.")
  in
  let mid_truncation =
    Arg.(
      value & flag
      & info [ "mid-truncation" ]
          ~doc:
            "Generate workloads that drive the background truncator in \
             bounded steps (leaving runs suspended between them) instead of \
             whole truncations, with the inline commit-path trigger \
             disabled — so crash points land at every truncator step \
             boundary, interleaved with concurrent commits.")
  in
  let elr =
    Arg.(
      value & flag
      & info [ "elr" ]
          ~doc:
            "Explore the early-lock-release commit pipeline instead: a real \
             server run (ELR scheduler, lock manager, snapshot lookups) \
             over recorder-wrapped devices, re-crashed at every \
             write/sync boundary and torn variant, checking that no write \
             ack or lookup ack ever preceded the durability of the state \
             it vouches for, that survivors form per-shard spool-order \
             prefixes, and that recovered balances match the serial \
             reference over exactly the surviving set. Combines with \
             --shards, --seed, --sector, --exhaustive; ignores --ops.")
  in
  let btree =
    Arg.(
      value & flag
      & info [ "btree" ]
          ~doc:
            "Explore the recoverable B-tree instead: a scripted workload \
             that forces splits, sibling borrows, merges, an aborted \
             structural transaction and mid-history truncations runs over \
             recorder-wrapped devices, then every write/sync boundary and \
             torn variant is recovered, the heap and tree reattached, both \
             invariant checkers run, and the contents compared against the \
             committed snapshots. Combines with --sector and --exhaustive; \
             ignores --ops and --seed (the workload is fixed so coverage \
             of every rebalancing shape is guaranteed).")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Deterministic crash-point explorer: run a generated workload, \
          re-crash it at every recorded write/sync boundary (plus torn \
          variants of the straddling write), recover each image and check \
          the recovered bytes against the commit-prefix contract. With \
          --shards N, the workload runs on N logs and every cross-shard \
          commit must also recover all-or-none; with --elr, the \
          early-lock-release commit pipeline's ack-durability contract is \
          checked instead. Exits non-zero with a shrunk counterexample on \
          violation.")
    Term.(
      const check $ ops $ seed $ exhaustive $ sector $ incremental $ shards
      $ mid_truncation $ elr $ btree)

let trace_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "out" ] ~docv:"PATH"
          ~doc:"Write the Chrome trace_event JSON here.")
  in
  let txns =
    Arg.(
      value & opt int 200
      & info [ "txns" ] ~docv:"N" ~doc:"TPC-A transactions to run.")
  in
  let accounts =
    Arg.(
      value & opt int 256
      & info [ "accounts" ] ~docv:"N" ~doc:"TPC-A account records.")
  in
  let batch =
    Arg.(
      value & opt int 4
      & info [ "batch" ] ~docv:"B"
          ~doc:
            "Commit batching: $(docv)-1 no-flush commits closed by one \
             flush. 1 means every commit flushes.")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"S" ~doc:"Workload seed (trace is \
                                        deterministic per seed).")
  in
  let top =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"N"
          ~doc:"Slowest commits to list in the cost summary.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a TPC-A workload against the log with causal tracing on, \
          export a Chrome trace_event JSON (one track per layer, every \
          device op rooted under its transaction), and print a top-style \
          per-transaction cost summary: p50/p95/p99 commit latency split \
          into encode, spool, drain and sync.")
    Term.(const trace $ log_arg $ out $ txns $ accounts $ batch $ seed $ top)

let serve_cmd =
  let requests =
    Arg.(
      value & opt int 400
      & info [ "requests" ] ~docv:"N" ~doc:"Requests per sweep cell.")
  in
  let accounts =
    Arg.(
      value & opt int 1000
      & info [ "accounts" ] ~docv:"N" ~doc:"TPC-A account records.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"S"
          ~doc:"Master seed (the whole table is deterministic per seed).")
  in
  let loads =
    Arg.(
      value & opt_all float []
      & info [ "load" ] ~docv:"TPS"
          ~doc:
            "Open-loop offered load in transactions per simulated second; \
             repeatable. Default sweep: 10, 20, 40, 80, 160.")
  in
  let batches =
    Arg.(
      value & opt_all int []
      & info [ "batch" ] ~docv:"B"
          ~doc:
            "Commit batch bound; repeatable. 1 forces the log on every \
             commit. Default: 1 and 8.")
  in
  let sessions =
    Arg.(
      value
      & opt (some int) None
      & info [ "sessions" ] ~docv:"N"
          ~doc:
            "Also run closed-loop rows with $(docv) client sessions, one \
             per --batch; with --monitor and no --load, the monitored cell.")
  in
  let think_ms =
    Arg.(
      value & opt float 100.
      & info [ "think-ms" ] ~docv:"MS"
          ~doc:"Mean think time for the closed-loop row.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Before the sweep, run one cell (first load x first batch) of \
             the workload with causal tracing on and export Chrome \
             trace_event JSON to $(docv) — background truncation steps \
             appear interleaved with the commit batches on their own \
             track.")
  in
  let log_size =
    Arg.(
      value
      & opt int (4 * 1024 * 1024)
      & info [ "log-size" ] ~docv:"BYTES"
          ~doc:
            "Log capacity of every served cell; a small log makes the \
             workload wrap it and background truncation fire.")
  in
  let zipf_s =
    Arg.(
      value
      & opt float Rvm_server.Server.default_config.Rvm_server.Server.zipf_s
      & info [ "zipf-s" ] ~docv:"S"
          ~doc:
            "Account-key skew exponent; 0 is uniform, 0.99 is the classic \
             hot-key contention point, above 1 a handful of accounts take \
             most of the traffic.")
  in
  let read_pct =
    Arg.(
      value & opt int 0
      & info [ "read-pct" ] ~docv:"PCT"
          ~doc:
            "Percentage of requests issued as read-only balance lookups, \
             served lock-free from the multi-version snapshot path.")
  in
  let monitor =
    Arg.(
      value & flag
      & info [ "monitor" ]
          ~doc:
            "Run one monitored cell (first load x first batch) instead of \
             the sweep: windowed telemetry on the scheduler's quantum tick, \
             SLO rules (commit-p99-burst, abort-rate, admission-shed, \
             truncation-starvation, durable-lsn-stall, and shard-imbalance \
             on a sharded engine) opening typed incidents, a top-style \
             health line per window, and a postmortem JSON artifact at \
             exit.")
  in
  let window_ms =
    Arg.(
      value & opt float 500.
      & info [ "window-ms" ] ~docv:"MS"
          ~doc:"Telemetry window in simulated milliseconds for --monitor.")
  in
  let postmortem =
    Arg.(
      value
      & opt string "POSTMORTEM.json"
      & info [ "postmortem" ] ~docv:"FILE"
          ~doc:"Where --monitor writes the postmortem JSON report.")
  in
  let workload =
    Arg.(
      value & opt string "tpca"
      & info [ "workload" ] ~docv:"NAME"
          ~doc:
            "Workload to serve: $(b,tpca) (the default banking mix) or \
             $(b,ycsb-a)..$(b,ycsb-f), the key-value mixes over the \
             recoverable B-tree — read-heavy, read-modify-write, scans and \
             latest-skewed inserts, node-granularity locking, with every \
             row checked against the serial reference model.")
  in
  let records =
    Arg.(
      value & opt int 10_000
      & info [ "records" ] ~docv:"N"
          ~doc:"Initial key population for --workload ycsb-*.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the simulated transaction server (a workload's requests \
          through the cooperative scheduler, admission control and commit \
          batcher) across a load sweep and print the saturation table: \
          throughput, shed and abort counts, latency percentiles, and \
          device syncs per committed transaction. Every workload takes \
          the same load, batch, session and monitor flags. With --monitor, \
          run one cell under the SLO health monitor instead.")
    Term.(
      const serve $ requests $ accounts $ seed $ loads $ batches $ sessions
      $ think_ms $ trace_out $ log_size $ zipf_s $ read_pct $ monitor
      $ window_ms $ postmortem $ workload $ records)

let benchdiff_cmd =
  let old_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OLD.json" ~doc:"Baseline bench artifact.")
  in
  let new_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"NEW.json" ~doc:"Candidate bench artifact.")
  in
  Cmd.v
    (Cmd.info "benchdiff"
       ~doc:
         "The bench artifact regression gate: check NEW.json against \
          OLD.json with the declared table in Rvm_obs.Gate. Every leaf has \
          a declared direction and may not move the wrong way by more than \
          10% (configuration keys only warn on drift; undeclared leaves, \
          missing metrics and changed row counts fail), and NEW.json must \
          satisfy its artifact's absolute bounds. Exits non-zero on any \
          failure.")
    Term.(const benchdiff $ old_arg $ new_arg)

let () =
  let info =
    Cmd.info "rvmutl" ~version:"1.0"
      ~doc:"RVM log utility: create, inspect, recover, check, post-mortem."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            create_log_cmd; create_seg_cmd; status_cmd; dump_cmd; history_cmd;
            recover_cmd; stats_cmd; check_cmd; trace_cmd; serve_cmd;
            benchdiff_cmd;
          ]))
