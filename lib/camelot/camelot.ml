module Device = Rvm_disk.Device
module Log_manager = Rvm_log.Log_manager
module Record = Rvm_log.Record
module Intervals = Rvm_util.Intervals
module Clock = Rvm_util.Clock
module Cost_model = Rvm_util.Cost_model
module Page = Rvm_vm.Page
module Page_table = Rvm_vm.Page_table
module Vm_sim = Rvm_vm.Vm_sim
module Region = Rvm_core.Region
module Segment = Rvm_core.Segment
module Addr_space = Rvm_core.Addr_space
module Types = Rvm_core.Types
module Recovery = Rvm_core.Recovery

type config = {
  truncation_threshold : float;
  server_cpu_per_txn_us : float;
  page_batch_settle_us : float;
}

let default_config =
  {
    (* The Disk Manager truncates within a small sliver of the log — the
       "overly aggressive log truncation strategy" the paper conjectures
       (section 7.1.2). *)
    truncation_threshold = 0.02;
    server_cpu_per_txn_us = 2_400.;
    page_batch_settle_us = 900.;
  }

type txn = {
  tid : int;
  mutable covered : (Region.t * Intervals.t) list;  (* by region *)
  mutable calls : (Region.t * int * int) list;  (* pin calls, newest first *)
  mutable saved : (Region.t * int * Bytes.t) list;  (* undo data *)
  pinned : (int * int, Region.t * int) Hashtbl.t;  (* (vaddr, page) *)
}

type descriptor = {
  d_region : Region.t;
  d_page : int;
  d_log_off : int;
  d_seqno : int;
}

type t = {
  config : config;
  clock : Clock.t;
  model : Cost_model.t;
  vm : Vm_sim.t option;
  ipc : Ipc.t;
  log : Log_manager.t;
  resolve : int -> Device.t;
  segments : (int, Segment.t) Hashtbl.t;
  space : Addr_space.t;
  txns : (int, txn) Hashtbl.t;
  mutable next_tid : int;
  queue : descriptor Queue.t;
  queued : (int * int, unit) Hashtbl.t;
  mutable pages_written : int;
  mutable txns_committed : int;
}

let segment t seg_id =
  match Hashtbl.find_opt t.segments seg_id with
  | Some s -> s
  | None ->
    let s = Segment.create ~id:seg_id (t.resolve seg_id) in
    Hashtbl.add t.segments seg_id s;
    s

let initialize ?(config = default_config) ?(clock = Clock.null)
    ?(model = Cost_model.dec5000) ?vm ~log ~resolve () =
  let lm =
    match Log_manager.open_log log with
    | Ok lm -> lm
    | Error e -> Types.error "camelot: %s" e
  in
  let t =
    {
      config;
      clock;
      model;
      vm;
      ipc = Ipc.create ~clock ~model;
      log = lm;
      resolve;
      segments = Hashtbl.create 8;
      space = Addr_space.create ~page_size:Page.default_size;
      txns = Hashtbl.create 16;
      next_tid = 1;
      queue = Queue.create ();
      queued = Hashtbl.create 64;
      pages_written = 0;
      txns_committed = 0;
    }
  in
  if not (Log_manager.is_empty lm) then begin
    Ipc.call t.ipc Ipc.Recovery_manager;
    ignore
      (Recovery.recover ~resolve:(fun id -> segment t id) ~clock ~model lm)
  end;
  t

let map t ?vaddr ~seg ~seg_off ~len () =
  let vaddr =
    match vaddr with
    | Some v -> v
    | None -> Addr_space.suggest_vaddr t.space ~len
  in
  let sg = segment t seg in
  let region =
    Region.v ~seg:sg ~seg_off ~vaddr ~length:len ~page_size:Page.default_size
  in
  Addr_space.add t.space region;
  (* External pager: contents come from the data segment, but lazily — no
     en-masse read, no startup charge; first touches fault (the VM
     simulator prices them against the data disk). *)
  Segment.read_into sg ~off:seg_off ~buf:region.Region.buf ~pos:0 ~len;
  (* Mark the mapping resident for steady-state measurement: the harness
     excludes warmup, and Camelot's integration means pages arriving on
     demand cost faults only on first touch, which the warmup absorbs. *)
  (match t.vm with
  | Some vm ->
    Vm_sim.load_sequential vm
      ~first:(Region.vm_page region ~region_page:0)
      ~count:(Rvm_vm.Page_table.pages region.Region.pages)
  | None -> ());
  Ipc.call t.ipc Ipc.Disk_manager;
  region

let vm_touch t (region : Region.t) ~region_off ~len ~write =
  match t.vm with
  | None -> ()
  | Some vm ->
    Page.iter_pages ~page_size:region.Region.page_size ~off:region_off ~len
      ~f:(fun p ->
        Vm_sim.touch vm ~page:(Region.vm_page region ~region_page:p) ~write)

let begin_transaction t =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  Hashtbl.add t.txns tid
    { tid; covered = []; calls = []; saved = []; pinned = Hashtbl.create 8 };
  (* Register with the Transaction Manager. *)
  Ipc.call t.ipc Ipc.Transaction_manager;
  tid

let find_txn t tid =
  match Hashtbl.find_opt t.txns tid with
  | Some txn -> txn
  | None -> Types.error "camelot: unknown transaction %d" tid

(* The transaction's covered set for [region], created on first use. *)
let covered_of txn (region : Region.t) =
  match
    List.find_opt (fun (r, _) -> r.Region.vaddr = region.Region.vaddr) txn.covered
  with
  | Some (_, iv) -> iv
  | None ->
    let iv = Intervals.create () in
    txn.covered <- (region, iv) :: txn.covered;
    iv

let set_range t tid ~addr ~len =
  let txn = find_txn t tid in
  let region = Addr_space.find t.space ~addr ~len in
  let region_off = Region.to_region_off region ~addr in
  (* Pin request to the Disk Manager: the pages must stay resident (and
     away from the external pager) until commit — Camelot's no-undo rule. *)
  Ipc.call t.ipc Ipc.Disk_manager;
  Page.iter_pages ~page_size:region.Region.page_size ~off:region_off ~len
    ~f:(fun p ->
      let key = (region.Region.vaddr, p) in
      if not (Hashtbl.mem txn.pinned key) then begin
        Hashtbl.add txn.pinned key (region, p);
        Page_table.incr_uncommitted region.Region.pages p;
        match t.vm with
        | Some vm -> Vm_sim.pin vm ~page:(Region.vm_page region ~region_page:p)
        | None -> ()
      end);
  (* Old values for abort, first coverage only. *)
  Intervals.add_uncovered (covered_of txn region) ~lo:region_off ~len
    ~f:(fun ~lo ~len ->
      txn.saved <- (region, lo, Bytes.sub region.Region.buf lo len) :: txn.saved;
      Clock.charge_cpu t.clock
        (float_of_int len *. t.model.Cost_model.cpu_per_byte_copy_us));
  txn.calls <- (region, region_off, len) :: txn.calls

let load t ~addr ~len =
  let region = Addr_space.find t.space ~addr ~len in
  let region_off = Region.to_region_off region ~addr in
  vm_touch t region ~region_off ~len ~write:false;
  Bytes.sub region.Region.buf region_off len

let store t ~addr bytes =
  let len = Bytes.length bytes in
  let region = Addr_space.find t.space ~addr ~len in
  let region_off = Region.to_region_off region ~addr in
  vm_touch t region ~region_off ~len ~write:true;
  Bytes.blit bytes 0 region.Region.buf region_off len;
  Clock.charge_cpu t.clock
    (float_of_int len *. t.model.Cost_model.cpu_per_byte_copy_us)

let release_pins t txn =
  Hashtbl.iter
    (fun _ ((region : Region.t), p) ->
      Page_table.decr_uncommitted region.Region.pages p;
      match t.vm with
      | Some vm -> Vm_sim.unpin vm ~page:(Region.vm_page region ~region_page:p)
      | None -> ())
    txn.pinned

(* Disk Manager truncation: write every dirty page referenced by the
   affected portion of the log, whole pages, in one sorted elevator sweep,
   then move the head. Pages still pinned by uncommitted transactions stop
   the collection (their records cannot be passed). The positioning cost of
   each write grows with the gap to the previous page in the sweep: when
   truncation is frequent and access is random over a large array,
   consecutive dirty pages are far apart and "many opportunities to
   amortize the cost of writing out a dirty page across multiple
   transactions are lost" (section 7.1.2). *)
let truncate t =
  let touched = Hashtbl.create 4 in
  (* Collect the writable prefix of the queue. *)
  let batch = ref [] in
  let rec collect () =
    match Queue.peek_opt t.queue with
    | None -> ()
    | Some d ->
      if Page_table.uncommitted d.d_region.Region.pages d.d_page > 0 then ()
      else begin
        ignore (Queue.pop t.queue);
        Hashtbl.remove t.queued (d.d_region.Region.vaddr, d.d_page);
        batch := d :: !batch;
        collect ()
      end
  in
  collect ();
  let sweep =
    List.sort
      (fun a b ->
        compare
          (Region.vm_page a.d_region ~region_page:a.d_page)
          (Region.vm_page b.d_region ~region_page:b.d_page))
      !batch
  in
  let prev = ref None in
  List.iter
    (fun d ->
      let region = d.d_region in
      let page_size = region.Region.page_size in
      let off = d.d_page * page_size in
      let len = min page_size (region.Region.length - off) in
      (match t.vm with
      | Some vm ->
        (* A page that was evicted must be faulted back in before it can
           be written out — paging activity the paper attributes to the
           Disk Manager. *)
        Vm_sim.ensure_resident vm
          ~page:(Region.vm_page region ~region_page:d.d_page);
        Vm_sim.mark_clean vm
          ~page:(Region.vm_page region ~region_page:d.d_page)
      | None -> ());
      Segment.write region.Region.seg
        ~off:(Region.to_seg_off region ~region_off:off)
        ~buf:region.Region.buf ~pos:off ~len;
      let here = Region.vm_page region ~region_page:d.d_page in
      let gap = match !prev with Some p -> max 1 (here - p) | None -> 1 in
      prev := Some here;
      let seek_fraction = Float.min 1.0 (float_of_int gap /. 8.) in
      Clock.charge_io t.clock
        ((seek_fraction *. t.model.Cost_model.data_disk.Cost_model.seek_us)
        +. (float_of_int len
           *. t.model.Cost_model.data_disk.Cost_model.transfer_us_per_byte)
        +. t.config.page_batch_settle_us);
      t.pages_written <- t.pages_written + 1;
      Hashtbl.replace touched (Segment.id region.Region.seg) region.Region.seg)
    sweep;
  if Hashtbl.length touched > 0 || Queue.is_empty t.queue then begin
    Hashtbl.iter (fun _ seg -> Segment.sync seg) touched;
    match Queue.peek_opt t.queue with
    | Some d ->
      if d.d_log_off <> Log_manager.head t.log then
        Log_manager.move_head t.log ~new_head:d.d_log_off
          ~new_head_seqno:d.d_seqno
    | None ->
      if not (Log_manager.is_empty t.log) then Log_manager.reset_empty t.log
  end

let maybe_truncate t =
  let used_fraction =
    float_of_int (Log_manager.used_bytes t.log)
    /. float_of_int (Log_manager.capacity t.log)
  in
  if used_fraction >= t.config.truncation_threshold then truncate t

let end_transaction t tid =
  let txn = find_txn t tid in
  (* Value logging: one record range per pin call (Camelot has no
     intra-transaction coalescing). *)
  let ranges =
    List.rev_map
      (fun ((region : Region.t), lo, len) ->
        Clock.charge_cpu t.clock
          (float_of_int len
          *. (t.model.Cost_model.cpu_per_byte_copy_us
             +. t.model.Cost_model.cpu_per_byte_checksum_us));
        {
          Record.seg = Segment.id region.Region.seg;
          off = Region.to_seg_off region ~region_off:lo;
          data = Bytes.sub region.Region.buf lo len;
        })
      txn.calls
  in
  (* Commit protocol: one blocking exchange with the Transaction Manager;
     the log write and force happen in the Disk Manager, whose additional
     coordination overlaps the force. *)
  Ipc.call t.ipc Ipc.Transaction_manager;
  Ipc.notify t.ipc Ipc.Disk_manager;
  Ipc.notify t.ipc Ipc.Transaction_manager;
  Ipc.server_work t.ipc Ipc.Disk_manager t.config.server_cpu_per_txn_us;
  if ranges <> [] then begin
    let off, seqno = Log_manager.append t.log ~tid ranges in
    Log_manager.force t.log;
    (* Queue the pages for the Disk Manager, earliest record first, no
       duplicates. *)
    List.iter
      (fun ((region : Region.t), lo, len) ->
        Page.iter_pages ~page_size:region.Region.page_size ~off:lo ~len
          ~f:(fun p ->
            let key = (region.Region.vaddr, p) in
            if not (Hashtbl.mem t.queued key) then begin
              Hashtbl.add t.queued key ();
              Queue.add
                { d_region = region; d_page = p; d_log_off = off; d_seqno = seqno }
                t.queue
            end))
      (List.rev txn.calls)
  end;
  release_pins t txn;
  Hashtbl.remove t.txns tid;
  t.txns_committed <- t.txns_committed + 1;
  maybe_truncate t

let abort_transaction t tid =
  let txn = find_txn t tid in
  Ipc.call t.ipc Ipc.Transaction_manager;
  List.iter
    (fun ((region : Region.t), lo, old_value) ->
      Bytes.blit old_value 0 region.Region.buf lo (Bytes.length old_value))
    txn.saved;
  release_pins t txn;
  Hashtbl.remove t.txns tid

let ipc t = t.ipc
let clock t = t.clock
let log_manager t = t.log
let pages_written t = t.pages_written
let txns_committed t = t.txns_committed
