module Device = Rvm_disk.Device
module Stack = Rvm_disk.Stack
module Log_manager = Rvm_log.Log_manager
module Record = Rvm_log.Record
module Pcommit = Rvm_log.Pcommit
module Intervals = Rvm_util.Intervals
module Clock = Rvm_util.Clock
module Cost_model = Rvm_util.Cost_model
module Page_table = Rvm_vm.Page_table
module Vm_sim = Rvm_vm.Vm_sim
module Registry = Rvm_obs.Registry
module Trace = Rvm_obs.Trace
module C = Rvm_obs.Counter
module Lv = Statistics.Live

let src = Logs.Src.create "rvm" ~doc:"RVM engine"

module L = (val Logs.src_log src : Logs.LOG)

type tid = int

(* A committed-but-unwritten no-flush transaction (section 5.1.1: "new-value
   and commit records can be spooled rather than forced to the log"). *)
type spool_entry = {
  sp_lsn : int;  (* logical commit LSN assigned at spool time *)
  sp_record : Record.t;  (* the commit record; the log stamps its seqno *)
  sp_size : int;  (* encoded record size *)
  sp_covered : Covered.t;  (* its bytes in segment coordinates, for inter-opt *)
  sp_regions : Txn.per_region list;
      (* the transaction's covered sets: the uncommitted page refs released
         when the record is written or dropped *)
}

type t = {
  mutable opts : Options.t;
  clock : Clock.t;
  model : Cost_model.t;
  vm : Vm_sim.t option;
  log : Log_manager.t;
  resolve : int -> Device.t;
  segments : (int, Segment.t) Hashtbl.t;
  space : Addr_space.t;
  txns : (int, Txn.t) Hashtbl.t;
  mutable next_tid : int;
  mutable spool : spool_entry array;
      (* commit order, the first [spool_len] live; the rest [no_entry] *)
  mutable spool_len : int;
  mutable spool_bytes : int;
  mutable commit_lsn : int;
      (* Logical commit counter: one per committed transaction that wrote
         anything (including cross-shard intents), assigned the moment the
         commit is spooled — the "logically committed" point early lock
         release keys on. *)
  mutable durable_lsn : int;
      (* Horizon below which every assigned LSN's record is known forced.
         Maintained lazily by {!durable_lsn} and {!note_logged} off
         [logged_lsn] and the log's forced seqno. *)
  mutable logged_lsn : int;
  mutable logged_seqno : int;
      (* The LSN and record seqno of the newest commit record that has
         reached the log manager. Spooled entries reach it when the spool
         drains and assigns their seqno; a subsumption-dropped entry never
         does (its effects ride the newer record that subsumed it). *)
  mutable trunc : Truncator.t option;
      (* The truncation state machine ({!Truncator}) — owns the
         incremental page queue and all epoch/incremental dispatch.
         [Some] from construction on; an option only because it closes
         over [t]. *)
  obs : Registry.t;
  s_begin : Registry.scope;
  s_commit : Registry.scope;
  s_encode : Registry.scope;
  s_no_flush : Registry.scope;
  live : Lv.live;
  undo : Undo.pool;  (* the arenas of finished Restore transactions *)
  mutable terminated : bool;
  pending_pages : (string, Txn.per_region list) Hashtbl.t;
      (* gid -> covered sets of that transaction's intent on this shard,
         whose uncommitted page refs are released when the resolution
         record is appended. While held they block incremental truncation
         from writing those pages out, which is what keeps the intent's
         evidence in the log. *)
}

type query_result = {
  active_tids : tid list;
  mapped_regions : int;
  log_used_bytes : int;
  log_free_bytes : int;
  spool_bytes : int;
  spool_records : int;
}

(* --- small helpers --- *)

let cpu t us = Clock.charge_cpu t.clock us
let copy_cost t bytes = float_of_int bytes *. t.model.Cost_model.cpu_per_byte_copy_us
let checksum_cost t bytes =
  float_of_int bytes *. t.model.Cost_model.cpu_per_byte_checksum_us

let check_live t =
  if t.terminated then Types.error "instance has been terminated"

let now_us t =
  if Clock.is_null t.clock then
    int_of_float (Unix.gettimeofday () *. 1_000_000.)
  else int_of_float (Clock.now_us t.clock)

let segment t seg_id =
  match Hashtbl.find_opt t.segments seg_id with
  | Some s -> s
  | None ->
    let s = Segment.create ~id:seg_id (t.resolve seg_id) in
    Hashtbl.add t.segments seg_id s;
    s

let find_txn t tid =
  match Hashtbl.find t.txns tid with
  | txn when Txn.is_active txn -> txn
  | _ -> Types.error "transaction %d is no longer active" tid
  | exception Not_found -> Types.error "unknown transaction %d" tid

let vm_touch t (region : Region.t) ~region_off ~len ~write =
  match t.vm with
  | Some vm when len > 0 ->
    let ps = region.Region.page_size in
    for p = region_off / ps to (region_off + len - 1) / ps do
      Vm_sim.touch vm ~page:(Region.vm_page region ~region_page:p) ~write
    done
  | _ -> ()

(* A transaction holds one uncommitted reference on every page its covered
   intervals reach, however many of them a page holds. *)
let rec release_page_refs = function
  | [] -> ()
  | (pr : Txn.per_region) :: rest ->
    let region = pr.Txn.region and iv = pr.Txn.covered in
    let ps = region.Region.page_size in
    let next = ref 0 in
    for i = 0 to Intervals.interval_count iv - 1 do
      let lo = Intervals.lo_at iv i in
      let last = (lo + Intervals.len_at iv i - 1) / ps in
      for p = max (lo / ps) !next to last do
        Page_table.decr_uncommitted region.Region.pages p
      done;
      next := last + 1
    done;
    release_page_refs rest

let truncator t =
  match t.trunc with Some tr -> tr | None -> assert false

(* --- commits awaiting the log --- *)

(* What a drained or dropped spool slot holds, so the spool array keeps no
   written record alive. *)
let no_entry =
  {
    sp_lsn = 0;
    sp_record = Record.wrap ~seqno:0 ~pad:0;
    sp_size = 0;
    sp_covered = Covered.of_regions [];
    sp_regions = [];
  }

let push_spool t e =
  if t.spool_len = Array.length t.spool then begin
    let a = Array.make (max 16 (2 * t.spool_len)) no_entry in
    Array.blit t.spool 0 a 0 t.spool_len;
    t.spool <- a
  end;
  t.spool.(t.spool_len) <- e;
  t.spool_len <- t.spool_len + 1

(* Commit records reach the log in LSN order, and a force makes every
   record appended before it durable. So when the newest commit record is
   forced, every older one is; and an older one forced while a newer one
   is not was forced before the newer one reached the log. Advancing the
   horizon whenever the newest record is forced — before each new one
   arrives, and on every query — therefore finds the newest forced LSN.
   LSNs that never reached the log (subsumption-dropped spool entries)
   are strictly older than the record that subsumed them and are covered
   by its durability. *)
let advance_durable t =
  if t.logged_seqno <= Log_manager.forced_seqno t.log then
    t.durable_lsn <- t.logged_lsn

let note_logged t ~lsn ~seqno =
  advance_durable t;
  t.logged_lsn <- lsn;
  t.logged_seqno <- seqno

(* --- log writing --- *)

(* The one way a record of [size] encoded bytes reaches this engine's log
   (no force): append, charge the record's CPU, count its bytes and queue
   the pages its data ranges cover for incremental truncation (control
   ranges cover none). Returns the record's sequence number. *)
let rec append_record t record ~retried =
  try Log_manager.append_record t.log record
  with Log_manager.Log_full ->
    if retried then
      Types.error
        "log full: a single transaction exceeds the log capacity (%d bytes)"
        (Log_manager.capacity t.log)
    else begin
      (* Reclaim space synchronously and retry once — completing any
         suspended background run first, then a full epoch. *)
      Truncator.sync_epoch (truncator t);
      append_record t record ~retried:true
    end

let log_record t (record : Record.t) ~size =
  let seqno = append_record t record ~retried:false in
  cpu t (t.model.Cost_model.log_record_us +. checksum_cost t size);
  C.add t.live.Lv.bytes_logged size;
  Truncator.note_logged_ranges (truncator t)
    ~log_off:(Log_manager.last_offset t.log) ~seqno record.Record.ranges;
  seqno

(* Write one commit record and release its transaction's page refs. *)
let write_commit_record t record ~size ~regions =
  let seqno = log_record t record ~size in
  release_page_refs regions;
  seqno

(* Write every spooled record (commit order) without forcing. *)
let drain_spool t =
  let spool = t.spool and n = t.spool_len in
  t.spool_len <- 0;
  t.spool_bytes <- 0;
  for i = 0 to n - 1 do
    let e = spool.(i) in
    spool.(i) <- no_entry;
    let seqno =
      write_commit_record t e.sp_record ~size:e.sp_size ~regions:e.sp_regions
    in
    note_logged t ~lsn:e.sp_lsn ~seqno
  done

let force_log t =
  (* [Log_manager.force] runs under a [log.force] span on the shared
     registry, which bumps [log.force.count] — the counter behind
     [Statistics.forces]. No separate increment here. *)
  Log_manager.force t.log;
  cpu t t.model.Cost_model.syscall_us

let flush t =
  check_live t;
  drain_spool t;
  force_log t;
  C.incr t.live.Lv.flushes

(* --- truncation (delegated to the state machine in {!Truncator}) --- *)

let maybe_truncate t = Truncator.maybe_truncate (truncator t)

let truncate t =
  check_live t;
  Truncator.truncate_now (truncator t)

let truncation_step t =
  check_live t;
  Truncator.step (truncator t)

let truncation_due t = Truncator.due (truncator t)
let truncation_urgent t = Truncator.urgent (truncator t)
let truncation_active t = Truncator.active (truncator t)
let log_occupancy t = Truncator.occupancy (truncator t)

(* --- initialization / termination / mapping --- *)

let create_log dev = Log_manager.format dev

let attach ?(options = Options.default) ?(clock = Clock.null)
    ?(model = Cost_model.dec5000) ?obs ?vm ?intent_decision ~log ~resolve () =
  Options.validate options;
  let obs = match obs with Some o -> o | None -> Registry.create () in
  (* The flight recorder is always on: if the caller did not size the
     trace ring, keep the last 512 spans so post-mortems (abort, failed
     recovery, crash counterexamples) always have a tail to show. *)
  if Registry.trace_capacity obs = 0 then Registry.set_trace_capacity obs 512;
  (* Span durations follow the simulated clock when there is one, so traces
     report simulated microseconds consistently with the cost model. *)
  if not (Clock.is_null clock) then
    Registry.set_time_source obs (fun () -> Clock.now_us clock);
  (* Per-layer disk accounting at the engine's edges of the stack. *)
  let log = Stack.with_stats ~obs ~prefix:"disk.log" () log in
  let resolve id = Stack.with_stats ~obs ~prefix:"disk.seg" () (resolve id) in
  let lm =
    match Log_manager.open_log ~obs log with
    | Ok lm -> lm
    | Error e -> Types.error "initialize: %s" e
  in
  let t =
    {
      opts = options;
      clock;
      model;
      vm;
      log = lm;
      resolve;
      segments = Hashtbl.create 8;
      space = Addr_space.create ~page_size:options.Options.page_size;
      txns = Hashtbl.create 16;
      next_tid = 1;
      spool = [||];
      spool_len = 0;
      spool_bytes = 0;
      commit_lsn = 0;
      durable_lsn = 0;
      logged_lsn = 0;
      logged_seqno = 0;
      trunc = None;
      obs;
      s_begin = Registry.instant_scope obs "txn.begin";
      s_commit = Registry.scope obs "txn.commit";
      s_encode = Registry.scope obs "commit.encode";
      s_no_flush = Registry.scope obs "commit.no_flush";
      live = Lv.create obs;
      undo = Undo.pool ();
      terminated = false;
      pending_pages = Hashtbl.create 4;
    }
  in
  t.trunc <-
    Some
      (Truncator.create
         {
           Truncator.log = lm;
           obs;
           clock;
           model;
           vm;
           live = t.live;
           options = (fun () -> t.opts);
           regions = (fun () -> Addr_space.regions t.space);
           segment = (fun id -> segment t id);
           intent_decision;
         });
  t

(* Crash recovery before anything is mapped: mapped data must be the
   committed image. The span bumps [recovery.count] — the counter behind
   [Statistics.recoveries]. *)
let recover t =
  if not (Log_manager.is_empty t.log) then
    Registry.span t.obs "recovery" (fun () ->
        match
          Recovery.recover ~obs:t.obs ~resolve:(fun id -> segment t id)
            ~clock:t.clock ~model:t.model t.log
        with
        | outcome ->
          L.info (fun m ->
              m "recovery applied %d records (%d bytes)"
                outcome.Recovery.records_seen outcome.Recovery.bytes_applied)
        | exception e ->
          (* A failed recovery is exactly what the flight recorder is for:
             dump what the engine did right up to the failure. *)
          L.err (fun m ->
              m "recovery failed: %s@,%a" (Printexc.to_string e)
                (Registry.pp_tail ?n:None) t.obs);
          raise e)

let initialize ?options ?clock ?model ?obs ?vm ?intent_decision ~log ~resolve
    () =
  let t =
    attach ?options ?clock ?model ?obs ?vm ?intent_decision ~log ~resolve ()
  in
  recover t;
  t

let reinitialize ?options ?obs ?intent_decision ~log ~resolve () =
  (* A simulated clock (never the null one) keeps [now_us] off the wall
     clock, so replaying the same durable image always produces the same
     instance state, log contents and trace — the property the crash-point
     explorer's exhaustive enumeration rests on. *)
  initialize ?options ?obs ?intent_decision ~clock:(Clock.simulated ())
    ~model:Cost_model.dec5000 ~log ~resolve ()

let active_transactions t = Hashtbl.length t.txns

let terminate t =
  check_live t;
  if active_transactions t > 0 then
    Types.error "terminate: %d transactions still active"
      (active_transactions t);
  drain_spool t;
  force_log t;
  t.terminated <- true

let map t ?vaddr ~seg ~seg_off ~len () =
  check_live t;
  let page_size = Addr_space.page_size t.space in
  let vaddr =
    match vaddr with
    | Some v -> v
    | None -> Addr_space.suggest_vaddr t.space ~len
  in
  let sg = segment t seg in
  if seg_off + len > Segment.size sg then
    Types.error "map: [%d, %d) exceeds segment %d of size %d" seg_off
      (seg_off + len) seg (Segment.size sg);
  let region = Region.v ~seg:sg ~seg_off ~vaddr ~length:len ~page_size in
  Addr_space.add t.space region;
  (* The log was emptied by recovery at initialize time and unmap
     truncates, so the segment alone holds the committed image. *)
  (match t.opts.Options.map_mode with
  | Options.Copy ->
    (* En-masse copy from the external data segment (section 3.2). *)
    Segment.read_into sg ~off:seg_off ~buf:region.Region.buf ~pos:0 ~len;
    cpu t (copy_cost t len);
    (match t.vm with
    | Some vm ->
      Vm_sim.load_sequential vm
        ~first:(Region.vm_page region ~region_page:0)
        ~count:(Region.page_count region)
    | None -> ())
  | Options.Demand ->
    (* External-pager mode: contents arrive lazily. The image is read here
       for functional correctness, but the transfer time is charged per
       page at fault time by the paging simulator, so the read itself is
       free and no page starts resident. *)
    Clock.suspend t.clock (fun () ->
        Segment.read_into sg ~off:seg_off ~buf:region.Region.buf ~pos:0 ~len));
  L.debug (fun m ->
      m "mapped segment %d [%d, %d) at %#x" seg seg_off (seg_off + len) vaddr);
  region

let unmap t (region : Region.t) =
  check_live t;
  if not region.Region.mapped then Types.error "unmap: region is not mapped";
  if region.Region.active_txns > 0 then
    Types.error "unmap: region has %d uncommitted transactions"
      region.Region.active_txns;
  (* Flush spooled commits and truncate so no live log record references
     the region once it is gone, and the segment holds the full committed
     image for a future map. *)
  drain_spool t;
  force_log t;
  Truncator.sync_epoch (truncator t);
  (match t.vm with
  | Some vm ->
    for p = 0 to Region.page_count region - 1 do
      Vm_sim.drop vm ~page:(Region.vm_page region ~region_page:p)
    done
  | None -> ());
  Addr_space.remove t.space region;
  Undo.drain t.undo;
  region.Region.mapped <- false

(* --- transactions --- *)

(* Span attribute values for the modes, built once. *)
let restore_attr = Trace.String "restore"
let no_restore_attr = Trace.String "no-restore"

let mode_attr = function
  | Types.Restore -> restore_attr
  | Types.No_restore -> no_restore_attr

let flush_attr = Trace.String "flush"
let no_flush_attr = Trace.String "no-flush"

let begin_transaction t ~mode =
  check_live t;
  let tid = t.next_tid in
  t.next_tid <- t.next_tid + 1;
  let undo =
    match mode with
    | Types.Restore -> Undo.take t.undo
    | Types.No_restore -> Undo.empty
  in
  Hashtbl.add t.txns tid
    (Txn.create ~tid ~mode ~started_us:(now_us t)
       ~per_call:(not t.opts.Options.intra_optimization) ~undo);
  (* A point event, not a span: begin/end are separate API calls, so the
     causal root for everything a transaction does is the [txn.commit]
     span around [end_transaction]. *)
  Registry.open_span t.obs t.s_begin;
  Registry.add_int t.obs "txn_id" tid;
  Registry.add_attr t.obs "mode" (mode_attr mode);
  Registry.close_span t.obs t.s_begin;
  tid

(* Save the old values of the gaps of [lo, hi) that [covered] does not
   cover yet, in increasing order. *)
let rec save_gaps t undo region covered ~lo ~hi =
  let lo = Intervals.first_uncovered covered ~lo ~hi in
  if lo < hi then begin
    let next = Intervals.first_covered covered ~lo ~hi in
    Undo.save undo region ~region_off:lo ~len:(next - lo);
    cpu t (copy_cost t (next - lo));
    save_gaps t undo region covered ~lo:next ~hi
  end

let set_range t tid ~addr ~len =
  check_live t;
  if len < 0 then Types.error "set_range: negative length";
  let txn = find_txn t tid in
  C.incr t.live.Lv.set_ranges;
  cpu t t.model.Cost_model.set_range_call_us;
  if len > 0 then begin
    let region = Addr_space.find t.space ~addr ~len in
    let pr = Txn.per_region txn region in
    let covered = pr.Txn.covered in
    if Intervals.is_empty covered then
      region.Region.active_txns <- region.Region.active_txns + 1;
    let region_off = Region.to_region_off region ~addr in
    Txn.add_call txn pr ~region_off ~len;
    (* Uncommitted reference counts (incremental truncation must not write
       these pages until the transaction resolves): one per page the
       covered set reaches, so a page gains a reference when the set had
       no byte in it before this call. *)
    let ps = region.Region.page_size in
    for p = region_off / ps to (region_off + len - 1) / ps do
      if not (Intervals.inter_nonempty covered ~lo:(p * ps) ~len:ps) then
        Page_table.incr_uncommitted region.Region.pages p
    done;
    (* Old values are saved only for newly covered bytes: a duplicate
       set_range is harmless (section 5.2). Skipped entirely in no-restore
       mode — "RVM does not have to copy data on a set-range". *)
    (match txn.Txn.mode with
    | Types.No_restore -> ()
    | Types.Restore ->
      save_gaps t txn.Txn.undo region covered ~lo:region_off
        ~hi:(region_off + len));
    Intervals.add covered ~lo:region_off ~len;
    vm_touch t region ~region_off ~len ~write:true
  end

(* Ranges logged by a transaction. With the intra-transaction optimization
   on (the default), these are the coalesced intervals; with it off (the
   ablation, [Txn.per_call]), one range per set_range call as declared.
   Data is read from the region at commit time either way, so every range
   carries final values and multiple updates to one range cost one
   record. *)
let rec build_ranges t ~intra (prs : Txn.per_region list) i =
  match prs with
  | [] -> []
  | pr :: rest ->
    let iv = pr.Txn.covered in
    if i = if intra then Intervals.interval_count iv else pr.Txn.call_count
    then build_ranges t ~intra rest 0
    else begin
      (* Span [i] of [pr]: its [i]-th covered interval, or with the
         optimization off its [i]-th set_range call. *)
      let lo = if intra then Intervals.lo_at iv i else pr.Txn.calls.(2 * i) in
      let len =
        if intra then Intervals.len_at iv i else pr.Txn.calls.((2 * i) + 1)
      in
      let region = pr.Txn.region in
      let data = Bytes.sub region.Region.buf lo len in
      cpu t (copy_cost t len);
      let range =
        {
          Record.seg = Segment.id region.Region.seg;
          off = Region.to_seg_off region ~region_off:lo;
          data;
        }
      in
      (* Consed on the way out of the recursion: the ranges come out in
         order, and so do the copy charges. *)
      range :: build_ranges t ~intra prs (i + 1)
    end

(* [Record.commit] without its optional arguments, each of which would
   allocate an option. *)
let commit_record ~tid ~timestamp_us ~flags ranges =
  { Record.kind = Record.Commit; seqno = 0; tid; timestamp_us; flags; ranges;
    pad = 0 }

let logged_bytes acc (r : Record.range) = acc + 32 + Bytes.length r.Record.data
let naive_bytes acc pr = acc + Txn.naive_bytes pr

let finish_txn t (txn : Txn.t) status =
  txn.Txn.status <- status;
  Hashtbl.remove t.txns txn.Txn.tid;
  if txn.Txn.mode = Types.Restore then Undo.give t.undo txn.Txn.undo;
  List.iter
    (fun (pr : Txn.per_region) ->
      if not (Intervals.is_empty pr.Txn.covered) then
        pr.Txn.region.Region.active_txns <-
          pr.Txn.region.Region.active_txns - 1)
    (Txn.regions txn)

(* Inter-transaction optimization (section 5.2): a no-flush commit whose
   modifications subsume an earlier unflushed transaction's makes the
   older spooled records redundant — recovery applies newest-first. The
   spool is compacted in place. *)
let drop_subsumed t covered =
  let kept = ref 0 in
  for i = 0 to t.spool_len - 1 do
    let old = t.spool.(i) in
    if Covered.subsumes ~newer:covered ~older:old.sp_covered then begin
      t.spool_bytes <- t.spool_bytes - old.sp_size;
      C.add t.live.Lv.inter_saved old.sp_size;
      C.incr t.live.Lv.records_dropped;
      release_page_refs old.sp_regions
    end
    else begin
      if !kept < i then t.spool.(!kept) <- old;
      incr kept
    end
  done;
  if !kept < t.spool_len then begin
    Array.fill t.spool !kept (t.spool_len - !kept) no_entry;
    t.spool_len <- !kept
  end

(* A No_flush commit: its record waits in the spool until a flush, a
   Flush commit or spool overflow writes it (section 5.1.1). *)
let spool_commit t ~lsn ~tid ~flags ~regions ranges =
  let record = commit_record ~tid ~timestamp_us:(now_us t) ~flags ranges in
  let entry =
    {
      sp_lsn = lsn;
      sp_record = record;
      sp_size = Record.encoded_size record;
      sp_covered = Covered.of_regions regions;
      sp_regions = regions;
    }
  in
  if t.opts.Options.inter_optimization then drop_subsumed t entry.sp_covered;
  push_spool t entry;
  t.spool_bytes <- t.spool_bytes + entry.sp_size;
  C.add t.live.Lv.bytes_spooled entry.sp_size;
  if t.spool_bytes > t.opts.Options.spool_max_bytes then begin
    drain_spool t;
    force_log t;
    C.incr t.live.Lv.flushes
  end

(* The commit body, for a local commit ([intent = None]) or for this
   shard's branch of a cross-shard transaction ([Some (gid, shard)],
   DESIGN.md section 10). An intent commits as a Flush commit does — one
   record, written at once after the spool — with three differences: the
   record carries the control payload before the branch's ranges and is
   written even when the branch modified nothing (status resolution counts
   evidence per participant); it is not forced (the shard layer forces
   all participants in one concurrent round); and its uncommitted page
   refs stay held under [gid] until {!append_resolution}, which keeps
   incremental truncation from writing the pages out (and the head from
   moving past the intent) while the transaction's fate is open. *)
let commit t tid txn ~mode ~intent =
  cpu t t.model.Cost_model.txn_overhead_us;
  let regions = Txn.regions txn in
  let obs = t.obs in
  Registry.open_span obs t.s_encode;
  let ranges =
    match build_ranges t ~intra:(not txn.Txn.per_call) regions 0 with
    | ranges -> ranges
    | exception e ->
      Registry.close_span obs t.s_encode;
      raise e
  in
  let logged_bytes = List.fold_left logged_bytes 0 ranges in
  Registry.add_int obs "ranges" (List.length ranges);
  Registry.add_int obs "bytes" logged_bytes;
  Registry.close_span obs t.s_encode;
  let naive_bytes = List.fold_left naive_bytes 0 regions in
  let flags =
    (match mode with Types.No_flush -> Record.Flags.no_flush | Types.Flush -> 0)
    lor
    match txn.Txn.mode with
    | Types.No_restore -> Record.Flags.no_restore
    | Types.Restore -> 0
  in
  C.add t.live.Lv.intra_saved (naive_bytes - logged_bytes);
  (match (intent, ranges) with
  | None, [] ->
    (* Nothing modified: no record at all. *)
    release_page_refs regions
  | _ -> begin
    t.commit_lsn <- t.commit_lsn + 1;
    let lsn = t.commit_lsn in
    match mode with
    | Types.Flush -> (
      (* Spooled records precede this one in commit order. *)
      drain_spool t;
      let timestamp_us = now_us t in
      match intent with
      | None ->
        let record = commit_record ~tid ~timestamp_us ~flags ranges in
        let seqno =
          write_commit_record t record ~size:(Record.encoded_size record)
            ~regions
        in
        note_logged t ~lsn ~seqno;
        force_log t
      | Some (gid, shard) ->
        let record =
          Pcommit.record ~tid ~timestamp_us ~flags ~ranges
            (Pcommit.Intent { gid; shard })
        in
        let seqno = log_record t record ~size:(Record.encoded_size record) in
        note_logged t ~lsn ~seqno;
        if regions <> [] then
          Hashtbl.replace t.pending_pages gid
            (regions
            @ Option.value (Hashtbl.find_opt t.pending_pages gid) ~default:[]))
    | Types.No_flush -> (
      Registry.open_span obs t.s_no_flush;
      match spool_commit t ~lsn ~tid ~flags ~regions ranges with
      | () -> Registry.close_span obs t.s_no_flush
      | exception e ->
        Registry.close_span obs t.s_no_flush;
        raise e)
  end);
  finish_txn t txn Txn.Committed;
  C.incr t.live.Lv.txns_committed

let end_transaction t tid ~mode =
  check_live t;
  let txn = find_txn t tid in
  (* The transaction-rooted span: everything commit causes — encode,
     spooling, log writes, forces, even truncation triggered by this
     commit filling the log — happens inside it, so every device-level
     span in a trace chains up to exactly one [txn.commit]. *)
  let obs = t.obs in
  Registry.open_span obs t.s_commit;
  Registry.add_int obs "txn_id" tid;
  Registry.add_attr obs "mode" (mode_attr txn.Txn.mode);
  Registry.add_attr obs "commit"
    (match mode with
    | Types.Flush -> flush_attr
    | Types.No_flush -> no_flush_attr);
  match
    commit t tid txn ~mode ~intent:None;
    maybe_truncate t
  with
  | () -> Registry.close_span obs t.s_commit
  | exception e ->
    Registry.close_span obs t.s_commit;
    raise e

(* --- parallel commit (DESIGN.md section 10) --- *)

let end_transaction_intent t tid ~gid ~shard =
  check_live t;
  let txn = find_txn t tid in
  Registry.span t.obs "txn.intent"
    ~attrs:[ ("txn_id", Trace.Int tid); ("gid", Trace.String gid) ]
    (fun () -> commit t tid txn ~mode:Types.Flush ~intent:(Some (gid, shard)))

(* The staged transaction record, written to the coordinating shard's log:
   names the participants so status resolution knows whose intents to
   look for. Control payload only; not forced. *)
let append_stage t ~gid ~participants =
  check_live t;
  let record =
    Pcommit.record ~timestamp_us:(now_us t)
      (Pcommit.Stage { gid; participants })
  in
  ignore (log_record t record ~size:(Record.encoded_size record))

(* The explicit commit-or-abort decision, converting an implicit commit to
   an explicit one (or recording an orphan abort). Releases the pages the
   gid's intent held on this shard. Not forced: the decision is
   recomputable from the intents and staged record, so losing an
   unforced resolution is safe. The truncator carries the record —
   re-appended past every head move — until {!retire_resolution}, because
   once a truncation applies the intent and reclaims the staged evidence,
   this record may be the only durable copy of the decision any
   participant's recovery can find. *)
let append_resolution t ~gid ~decision =
  check_live t;
  let record =
    Pcommit.record ~timestamp_us:(now_us t)
      (Pcommit.Resolution { gid; decision })
  in
  Truncator.hold_resolution (truncator t) ~gid record;
  ignore (log_record t record ~size:(Record.encoded_size record));
  (match Hashtbl.find_opt t.pending_pages gid with
  | Some pages ->
    Hashtbl.remove t.pending_pages gid;
    release_page_refs pages
  | None -> ());
  maybe_truncate t

(* The shard layer calls this once every participant's own resolution
   record for [gid] is durable: from then on each shard's recovery finds
   its local copy (or none is needed once all logs are truncated past the
   transaction), so this shard no longer carries it across truncations. *)
let retire_resolution t ~gid =
  check_live t;
  Truncator.retire_resolution (truncator t) ~gid

let abort_transaction t tid =
  check_live t;
  let txn = find_txn t tid in
  if txn.Txn.mode = Types.No_restore then
    Types.error
      "abort: transaction %d was begun in no-restore mode (the application \
       promised never to abort)"
      tid;
  Registry.span t.obs "txn.abort" ~attrs:[ ("txn_id", Trace.Int tid) ]
    (fun () ->
      (* Each byte was saved exactly once, at first coverage, so restoring
         in any order yields the pre-transaction image; newest first keeps
         the copy charges in the order they have always been summed. *)
      let undo = txn.Txn.undo in
      for i = Undo.count undo - 1 downto 0 do
        Undo.restore undo i;
        cpu t (copy_cost t (Undo.length undo i))
      done;
      release_page_refs (Txn.regions txn);
      finish_txn t txn Txn.Aborted;
      C.incr t.live.Lv.txns_aborted);
  (* Aborts are rare and usually surprising: dump the flight recorder so
     the last things the engine did are in the log next to the abort. *)
  L.info (fun m ->
      m "transaction %d aborted@,%a" tid (Registry.pp_tail ?n:None) t.obs)

(* --- memory access --- *)

(* The region holding [addr, addr+len), its pages touched: every access
   below starts here. *)
let access t ~addr ~len ~write =
  let region = Addr_space.find t.space ~addr ~len in
  vm_touch t region ~region_off:(Region.to_region_off region ~addr) ~len ~write;
  region

let read_into t ~addr ~len buf ~pos =
  let region = access t ~addr ~len ~write:false in
  Bytes.blit region.Region.buf (Region.to_region_off region ~addr) buf pos len

(* [max len 0]: a negative length fails in [read_into], after the address
   check, as it always has. *)
let load t ~addr ~len =
  let buf = Bytes.create (max len 0) in
  read_into t ~addr ~len buf ~pos:0;
  buf

let store t ~addr bytes =
  let len = Bytes.length bytes in
  let region = access t ~addr ~len ~write:true in
  Bytes.blit bytes 0 region.Region.buf (Region.to_region_off region ~addr) len;
  cpu t (copy_cost t len)

let store_string t ~addr s = store t ~addr (Bytes.unsafe_of_string s)

let modify t tid ~addr bytes =
  set_range t tid ~addr ~len:(Bytes.length bytes);
  store t ~addr bytes

let get_u8 t ~addr =
  let r = access t ~addr ~len:1 ~write:false in
  Bytes.get_uint8 r.Region.buf (Region.to_region_off r ~addr)

let set_u8 t ~addr v =
  let r = access t ~addr ~len:1 ~write:true in
  Bytes.set_uint8 r.Region.buf (Region.to_region_off r ~addr) (v land 0xff)

let get_i32 t ~addr =
  let r = access t ~addr ~len:4 ~write:false in
  Bytes.get_int32_le r.Region.buf (Region.to_region_off r ~addr)

let set_i32 t ~addr v =
  let r = access t ~addr ~len:4 ~write:true in
  Bytes.set_int32_le r.Region.buf (Region.to_region_off r ~addr) v

let get_i64 t ~addr =
  let r = access t ~addr ~len:8 ~write:false in
  Bytes.get_int64_le r.Region.buf (Region.to_region_off r ~addr)

let set_i64 t ~addr v =
  let r = access t ~addr ~len:8 ~write:true in
  Bytes.set_int64_le r.Region.buf (Region.to_region_off r ~addr) v

let region_of_addr t ~addr = Addr_space.find_opt t.space ~addr

(* --- miscellaneous --- *)

let query t =
  check_live t;
  {
    active_tids = Hashtbl.fold (fun tid _ acc -> tid :: acc) t.txns [];
    mapped_regions = Addr_space.region_count t.space;
    log_used_bytes = Log_manager.used_bytes t.log;
    log_free_bytes = Log_manager.free_bytes t.log;
    spool_bytes = t.spool_bytes;
    spool_records = t.spool_len;
  }

let set_options t f =
  let opts = f t.opts in
  Options.validate opts;
  t.opts <- opts

let unflushed (t : t) =
  t.spool_bytes > 0 || Log_manager.unflushed t.log

let commit_lsn (t : t) = t.commit_lsn

let durable_lsn (t : t) =
  advance_durable t;
  t.durable_lsn

let stats t = Lv.snapshot t.live
let reset_stats t = Lv.reset t.live
let obs t = t.obs
let options t = t.opts
let clock t = t.clock
let log_manager t = t.log
let regions t = Addr_space.regions t.space
