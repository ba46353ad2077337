(* Log reclamation as a resumable state machine.

   The paper's truncation story (sections 5.1.2, Figures 6 and 7) ran
   inline on the commit path: when log occupancy crossed the threshold,
   the committing transaction paid for an entire epoch or incremental
   sweep. This module carries the same two algorithms, but each run is an
   explicit state machine whose [step] does one bounded unit of work —
   freeze the live window, write one page, sync one segment, re-append
   live 2PC evidence, move the head — and can be suspended between any
   two steps while new commits keep appending to the tail.

   The two algorithms differ only in which bytes reach the segments and
   where the head lands, so a run is one record with a [source]: an
   epoch's frozen [Plan] (Figure 6) or an incremental sweep of the page
   [Queue] (Figure 7). Each source has its own [`Write] stage; both then
   pass through one [`Sync] -> [`Evidence] -> [`Move_head] tail.

   Segment syncs run on the machine's own data-disk {!Clock.lane}: they
   occupy the disk, not the caller, and the head moves only once the
   clock has passed the last sync's completion. Log-disk work stays on
   the caller's clock, so no batch acks before a WAL-ordering force ends.

   WAL ordering is re-established at every step rather than once per run:

   - an incremental page write-out first checks for an unflushed tail and
     spends its step on a force instead, because commits that spooled
     records while the machine was suspended must be durable before the
     page's new values reach the external data segment;
   - an epoch run freezes its window by *planning* ({!Recovery.plan_live})
     — the planned writes carry data copied out of the frozen records, so
     post-freeze commits can overwrite the region buffers freely. The
     incremental head move asks the same planner which pending intents
     lie below the new head;
   - the head target of an incremental run is captured before the live
     resolutions are re-appended, so the fresh resolution copies always
     land past the new head and stay live;
   - the head only moves after every write of the run is synced, and the
     re-append + force of unretired parallel-commit resolutions AND of
     still-pending intents precedes every head move. (The inline
     implementation re-appended pending intents after the move, reasoning
     that a crash in between merely orphan-aborts them — wrong whenever
     the other participants' evidence already adds up to an implicit
     commit; the mid-truncation crash explorer found the window.)

   The page queue restarts at an epoch's freeze: the run applies every
   record below it, and every later append (commits, and the intents the
   run re-appends) is noted in log order as it lands, so the queue at
   completion describes exactly the records still live without reading
   them. Filtering the old queue by freeze seqno would not do: under the
   no-duplicate rule a page dirtied both before and after the freeze
   carries only its pre-freeze descriptor. *)

module Log_manager = Rvm_log.Log_manager
module Record = Rvm_log.Record
module Clock = Rvm_util.Clock
module Cost_model = Rvm_util.Cost_model
module Page_table = Rvm_vm.Page_table
module Vm_sim = Rvm_vm.Vm_sim
module Registry = Rvm_obs.Registry
module C = Rvm_obs.Counter
module Lv = Statistics.Live

(* Incremental truncation page queue descriptor (Figure 7): the page and
   the log offset/seqno of the earliest record referencing it. *)
type descriptor = {
  d_region : Region.t;
  d_page : int;
  d_log_off : int;
  d_seqno : int;
}

type env = {
  log : Log_manager.t;
  obs : Registry.t;
  clock : Clock.t;
  model : Cost_model.t;
  vm : Vm_sim.t option;
  live : Lv.live;
  options : unit -> Options.t;
  regions : unit -> Region.t list;
  segment : int -> Segment.t;
  intent_decision : (string -> [ `Commit | `Abort | `Pending ]) option;
}

(* An epoch writes its frozen plan and moves the head to the freeze
   point; an incremental sweep drains the page queue head until the log
   drops below [target] occupancy or the head is blocked, then moves the
   head to the earliest still-queued record. *)
type frozen = {
  mutable chunks : (int * int * Bytes.t) list;
      (* (seg, off, data), at most a page each *)
  pending : Record.t list;  (* the plan's pending intents, oldest first *)
  freeze : int * int;  (* frozen tail and next seqno *)
}

type sweep = { target : float; mutable blocked : bool }
type source = Plan of frozen | Queue of sweep

type run = {
  source : source;
  mutable stage :
    [ `Write | `Sync | `Evidence | `Move_head of int * int | `Complete ];
  mutable written : int list;  (* segment ids written, ascending *)
}

type t = {
  env : env;
  queue : descriptor Queue.t;
  queued : (int, unit) Hashtbl.t;  (* VM page numbers in the queue *)
  mutable run : run option;
  resolutions : (string, Record.t) Hashtbl.t;
      (* gid -> the resolution record appended on this log but not yet
         known durable on every participant; re-appended past every head
         move until retired *)
  disk : Clock.lane;  (* the data disk: segment syncs run here *)
}

let create env =
  {
    env;
    queue = Queue.create ();
    queued = Hashtbl.create 64;
    run = None;
    resolutions = Hashtbl.create 4;
    disk = Clock.lane ();
  }

let active t = Option.is_some t.run

(* Inlined, so the polls below compare an unboxed float: the scheduler
   asks [due] and [urgent] on every quantum. *)
let[@inline] occupancy t =
  float_of_int (Log_manager.used_bytes t.env.log)
  /. float_of_int (Log_manager.capacity t.env.log)

let due t =
  active t || occupancy t >= (t.env.options ()).Options.truncation_threshold

let urgent t = occupancy t >= (t.env.options ()).Options.truncation_critical

(* Queue the pages of each of [regions] that segment range
   [off, off+len) reaches and no queued descriptor names yet. *)
let rec note_range t ~log_off ~seqno ~seg ~off ~len = function
  | [] -> ()
  | (r : Region.t) :: rest ->
    if
      len > 0
      && Segment.id r.Region.seg = seg
      && off < r.Region.seg_off + r.Region.length
      && off + len > r.Region.seg_off
    then begin
      let lo = max off r.Region.seg_off - r.Region.seg_off in
      let hi =
        min (off + len) (r.Region.seg_off + r.Region.length) - r.Region.seg_off
      in
      let ps = r.Region.page_size in
      for p = lo / ps to (hi - 1) / ps do
        let key = Region.vm_page r ~region_page:p in
        if not (Hashtbl.mem t.queued key) then begin
          Hashtbl.add t.queued key ();
          Queue.add
            { d_region = r; d_page = p; d_log_off = log_off; d_seqno = seqno }
            t.queue
        end
      done
    end;
    note_range t ~log_off ~seqno ~seg ~off ~len rest

let rec note_ranges t ~log_off ~seqno regions = function
  | [] -> ()
  | (range : Record.range) :: rest ->
    note_range t ~log_off ~seqno ~seg:range.Record.seg ~off:range.Record.off
      ~len:(Bytes.length range.Record.data) regions;
    note_ranges t ~log_off ~seqno regions rest

(* Enqueue the pages covered by freshly logged ranges for incremental
   truncation, each at the earliest record that references it (Figure 7's
   "no duplicate page references" rule). Ranges are segment-relative; each
   is projected onto the mapped regions it intersects. *)
let note_logged_ranges t ~log_off ~seqno ranges =
  note_ranges t ~log_off ~seqno (t.env.regions ()) ranges

(* Evidence a head move would reclaim must stay continuously durable, so
   fresh copies go to the tail — past the new head, where the move keeps
   them live — and are forced while the status block still points at the
   old copies. Two kinds:

   - unretired resolutions, the records themselves as the engine handed
     them to [hold_resolution]: the run applied their intents, so a
     recovery that finds another participant's intent may have no other
     evidence of the decision;
   - still-pending parallel-commit intents inside the reclaimed window:
     undecided *here*, but possibly already implicitly committed — if
     every participant's intent and the staged record are durable on the
     other logs, recovery judges the group committed, and reclaiming this
     shard's intent without a live copy would flip that judgment (or lose
     this shard's ranges, which the run deliberately did not apply).

   A re-appended intent is noted like any fresh record: its ranges are
   still unapplied, and after an epoch its new copy is the only live
   record that references them. Returns whether anything was appended;
   the force was then the step's unit of work. *)
let reappend_evidence t pending =
  let log = t.env.log in
  Hashtbl.iter (fun _ r -> ignore (Log_manager.append_record log r))
    t.resolutions;
  List.iter
    (fun (r : Record.t) ->
      let seqno = Log_manager.append_record log r in
      note_logged_ranges t ~log_off:(Log_manager.last_offset log) ~seqno
        r.Record.ranges)
    pending;
  let appended = Hashtbl.length t.resolutions > 0 || pending <> [] in
  if appended then Log_manager.force log;
  appended

let hold_resolution t ~gid record = Hashtbl.replace t.resolutions gid record
let retire_resolution t ~gid = Hashtbl.remove t.resolutions gid

let copy_cost t bytes =
  float_of_int bytes *. t.env.model.Cost_model.cpu_per_byte_copy_us

let seg_write_page t (region : Region.t) page =
  let page_size = region.Region.page_size in
  let off = page * page_size in
  let len = min page_size (region.Region.length - off) in
  (match t.env.vm with
  | Some vm ->
    Vm_sim.ensure_resident vm ~page:(Region.vm_page region ~region_page:page);
    Vm_sim.mark_clean vm ~page:(Region.vm_page region ~region_page:page)
  | None -> ());
  Segment.write region.Region.seg
    ~off:(Region.to_seg_off region ~region_off:off)
    ~buf:region.Region.buf ~pos:off ~len;
  Clock.charge_cpu t.env.clock (copy_cost t len)

(* --- starting runs --- *)

let new_run source = { source; stage = `Write; written = [] }

(* Freeze an epoch (the first step of an epoch run): force any unflushed
   tail, capture the frozen window, and plan its application. The plan's
   data is copied out of the frozen records, so commits appending past
   the freeze while the run is suspended cannot disturb it. The page
   queue restarts here (see the header comment). *)
let start_epoch t =
  let env = t.env in
  if not (Log_manager.is_empty env.log) then begin
    (* Write-ahead ordering: spooled or unsynced records must be durable
       before their new values reach the external data segments, or a
       crash between the plan-write steps and the head movement would
       leave segment data whose log records never survived. *)
    if Log_manager.unflushed env.log then Log_manager.force env.log;
    let freeze = (Log_manager.tail env.log, Log_manager.next_seqno env.log) in
    let plan =
      Recovery.plan_live ~before_seqno:(snd freeze)
        ?intent_decision:env.intent_decision env.log
    in
    (* One plan write per step, bounded by the page size. *)
    let page_size = (env.options ()).Options.page_size in
    let chunks =
      List.concat_map
        (fun (seg, off, data) ->
          let len = Bytes.length data in
          let rec go pos acc =
            if pos >= len then List.rev acc
            else
              let n = min page_size (len - pos) in
              go (pos + n) ((seg, off + pos, Bytes.sub data pos n) :: acc)
          in
          go 0 [])
        plan.Recovery.plan_writes
    in
    Queue.clear t.queue;
    Hashtbl.reset t.queued;
    t.run <-
      Some
        (new_run
           (Plan { chunks; pending = plan.Recovery.plan_preserved; freeze }))
  end

(* Start a run in the configured mode; [target] is an incremental run's
   occupancy goal. *)
let start t ~target =
  match (t.env.options ()).Options.truncation_mode with
  | Types.Epoch -> start_epoch t
  | Types.Incremental ->
    t.run <- Some (new_run (Queue { target; blocked = false }))

(* --- advancing runs --- *)

(* On the disk lane, the span is the disk's busy interval. The records
   backing the synced values were forced before the writes (epoch: at
   freeze; incremental: the per-step unflushed check). *)
let sync_segment t seg_id =
  Clock.on_lane t.env.clock t.disk (fun () ->
      Registry.span t.env.obs "segment.sync" (fun () ->
          Segment.sync (t.env.segment seg_id)))

let wrote r seg_id =
  if not (List.mem seg_id r.written) then
    r.written <- List.merge compare [ seg_id ] r.written

(* The head target ([None]: the head stays) and the pending intents a
   move to it would reclaim. The queue head is stable across suspension
   (only this machine pops), and a tail captured from an emptied queue can
   only precede records appended later — moving the head to it stays
   safe. *)
let head_target t r =
  let log = t.env.log in
  match r.source with
  | Plan p -> (Some p.freeze, p.pending)
  | Queue _ -> (
    let head =
      match Queue.peek_opt t.queue with
      | Some d ->
        if d.d_log_off <> Log_manager.head log then
          Some (d.d_log_off, d.d_seqno)
        else None
      | None ->
        if not (Log_manager.is_empty log) then
          Some (Log_manager.tail log, Log_manager.next_seqno log)
        else None
    in
    (* The pending intents the move reclaims are exactly the plan's
       preserved records below the new head's seqno. Without a liveness
       callback there is no parallel-commit machinery above this engine,
       nothing can be pending, and the log is not read. *)
    match (head, t.env.intent_decision) with
    | Some (_, seqno), (Some _ as intent_decision) ->
      ( head,
        (Recovery.plan_live ~before_seqno:seqno ?intent_decision log)
          .Recovery.plan_preserved )
    | _ -> (head, []))

let rec advance t r =
  match r.stage with
  | `Write -> (
    match r.source with
    | Plan p -> write_plan t r p
    | Queue q -> write_queue t r q)
  | `Sync -> (
    match r.written with
    | seg_id :: rest ->
      r.written <- rest;
      sync_segment t seg_id;
      `Progress
    | [] when !(t.disk) > Clock.now_us t.env.clock ->
      (* The head waits for the last sync to complete. *)
      `Idle
    | [] ->
      r.stage <- `Evidence;
      advance t r)
  | `Evidence -> (
    match head_target t r with
    | None, _ ->
      finish t r;
      `Progress
    | Some (new_head, new_head_seqno), pending ->
      r.stage <- `Move_head (new_head, new_head_seqno);
      if reappend_evidence t pending then `Progress else advance t r)
  | `Move_head (new_head, new_head_seqno) ->
    Log_manager.move_head t.env.log ~new_head ~new_head_seqno;
    (match r.source with
    | Plan _ -> r.stage <- `Complete
    | Queue _ -> finish t r);
    `Progress
  | `Complete ->
    finish t r;
    `Progress

and write_plan t r p =
  match p.chunks with
  | [] ->
    r.stage <- `Sync;
    advance t r
  | (seg_id, off, data) :: rest ->
    p.chunks <- rest;
    let len = Bytes.length data in
    Segment.write (t.env.segment seg_id) ~off ~buf:data ~pos:0 ~len;
    Clock.charge_cpu t.env.clock (copy_cost t len);
    wrote r seg_id;
    `Progress

and write_queue t r q =
  let env = t.env in
  if
    float_of_int (Log_manager.used_bytes env.log)
    <= q.target *. float_of_int (Log_manager.capacity env.log)
  then begin
    end_writes t r;
    `Progress
  end
  else if Log_manager.unflushed env.log then begin
    (* Re-checked before every page write, not once per run: commits may
       have spooled records into the tail while the machine was
       suspended, and the write-out below must not expose new values
       whose log records are not yet durable. The force is this step's
       whole unit of work. *)
    Log_manager.force env.log;
    `Progress
  end
  else
    match Queue.peek_opt t.queue with
    | None ->
      end_writes t r;
      `Progress
    | Some d ->
      let pages = d.d_region.Region.pages in
      if
        (not d.d_region.Region.mapped)
        || Page_table.uncommitted pages d.d_page > 0
        || not (Page_table.reserve pages d.d_page)
      then begin
        C.incr env.live.Lv.incremental_blocked;
        q.blocked <- true;
        end_writes t r;
        (* [`Blocked] only when the machine went idle: if sync/head-move
           steps remain, or the critical fallback chained an epoch run,
           the driver should keep stepping. *)
        if active t then `Progress else `Blocked
      end
      else
        (* Span only around an actual page write-out; blocked and empty
           probes are not steps. Bumps
           [truncation.incremental.step.count]. *)
        Registry.span env.obs "truncation.incremental.step" (fun () ->
            ignore (Queue.pop t.queue);
            Hashtbl.remove t.queued
              (Region.vm_page d.d_region ~region_page:d.d_page);
            seg_write_page t d.d_region d.d_page;
            Page_table.release pages d.d_page;
            wrote r (Segment.id d.d_region.Region.seg);
            `Progress)

(* Leaving the page drain: segment syncs and the head move happen only
   when a page was actually written out or the queue drained — a run
   blocked on its first descriptor must leave the log intact. *)
and end_writes t r =
  if r.written <> [] || Queue.is_empty t.queue then r.stage <- `Sync
  else finish t r

(* An epoch's completion bumps [truncation.epoch.count] — the counter
   behind [Statistics.epoch_truncations] — exactly once per run. Long-
   running transactions can block incremental truncation with the log
   critically full: revert to epoch truncation (section 5.1.2). The
   chained run is stepped by whoever was driving this one. *)
and finish t r =
  t.run <- None;
  match r.source with
  | Plan _ -> Registry.span t.env.obs "truncation.epoch" ignore
  | Queue q ->
    if
      q.blocked
      && occupancy t >= (t.env.options ()).Options.truncation_critical
    then start_epoch t

let step t =
  match t.run with
  | Some r -> advance t r
  | None ->
    let threshold = (t.env.options ()).Options.truncation_threshold in
    if occupancy t < threshold then `Idle
    else begin
      start t ~target:(threshold /. 2.);
      match t.run with
      | Some { source = Plan _; _ } ->
        (* The freeze itself (force + frozen-window plan) was this step's
           unit of work. *)
        `Progress
      | Some r -> advance t r
      | None -> `Idle
    end

(* A synchronous driver waits out the data disk before every step: it
   pays each sync in full, in order. *)
let complete t =
  while active t do
    Clock.join_lanes t.env.clock [ t.disk ];
    Option.iter (fun r -> ignore (advance t r)) t.run
  done

(* --- the synchronous entry points (the pre-refactor API) --- *)

let maybe_truncate t =
  let opts = t.env.options () in
  if
    opts.Options.auto_truncate && (not (active t))
    && occupancy t >= opts.Options.truncation_threshold
  then begin
    start t ~target:(opts.Options.truncation_threshold /. 2.);
    complete t
  end

let truncate_now t =
  complete t;
  start t ~target:0.0;
  complete t

let sync_epoch t =
  complete t;
  start_epoch t;
  complete t
