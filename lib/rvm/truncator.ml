(* Log reclamation as a resumable state machine.

   The paper's truncation story (sections 5.1.2, Figures 6 and 7) ran
   inline on the commit path: when log occupancy crossed the threshold,
   the committing transaction paid for an entire epoch or incremental
   sweep. This module carries the same two algorithms, but each run is an
   explicit state machine whose [step] does one bounded unit of work —
   freeze the live window, write one page, sync one segment, re-append
   live 2PC resolutions, move the head — and can be suspended between any
   two steps while new commits keep appending to the tail.

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

   At epoch completion the page queue is rebuilt from the records still
   live in the log (there are few right after a truncation): descriptors
   cannot be filtered by the freeze seqno, because the no-duplicate rule
   means a page dirtied both before and after the freeze carries only its
   pre-freeze descriptor — dropping it by seqno would lose the post-freeze
   reference and a later head move could pass the unapplied record. *)

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
  reappend_live_resolutions : unit -> bool;
}

(* An epoch run (Figure 6), frozen at start: the plan's writes and the
   preserved pending intents belong to records with seqno < freeze_seqno,
   and the head will move to exactly the frozen tail. *)
type epoch_run = {
  e_freeze_tail : int;
  e_freeze_seqno : int;
  mutable e_writes : (int * int * Bytes.t) list;  (* (seg, off, data) chunks *)
  mutable e_syncs : int list;  (* segment ids touched by the plan *)
  e_preserved : Record.t list;
  mutable e_stage : [ `Write | `Sync | `Resolutions | `Move_head | `Complete ];
  mutable e_unsynced : int;  (* bytes written since the last interim sync *)
  mutable e_unsynced_segs : int list;
}

(* An incremental run (Figure 7): drain the page queue head until the log
   drops below [i_target] occupancy or the head is blocked, then sync the
   touched segments and move the head to the earliest still-queued
   record. *)
type incr_run = {
  i_target : float;
  i_touched : (int, unit) Hashtbl.t;
  mutable i_blocked : bool;
  mutable i_syncs : int list;
  mutable i_new_head : (int * int) option;
  mutable i_stage : [ `Pages | `Sync | `Resolutions | `Move_head ];
  mutable i_unsynced : int;  (* bytes written since the last interim sync *)
  mutable i_unsynced_segs : int list;
}

type run = Epoch of epoch_run | Incremental of incr_run

type t = {
  env : env;
  queue : descriptor Queue.t;
  queued : (int, unit) Hashtbl.t;  (* VM page numbers in the queue *)
  mutable run : run option;
  mutable paced : bool;
      (* true while a background driver is stepping this machine:
         interim sync batching (pause splitting) applies only then —
         synchronous run-to-completion drivers keep the one-sync-per-
         segment cost structure of the pre-refactor inline path *)
}

let create env =
  {
    env;
    queue = Queue.create ();
    queued = Hashtbl.create 64;
    run = None;
    paced = false;
  }

let active t = Option.is_some t.run

let occupancy t =
  float_of_int (Log_manager.used_bytes t.env.log)
  /. float_of_int (Log_manager.capacity t.env.log)

let due t =
  active t || occupancy t >= (t.env.options ()).Options.truncation_threshold

let urgent t = occupancy t >= (t.env.options ()).Options.truncation_critical

(* Mark the pages covered by freshly logged ranges dirty and enqueue them
   for incremental truncation, each at the earliest record that references
   it (Figure 7's "no duplicate page references" rule). Ranges are
   segment-relative; each is projected onto the mapped regions it
   intersects. *)
let note_logged_ranges t ~log_off ~seqno ranges =
  let regions = t.env.regions () in
  List.iter
    (fun (range : Record.range) ->
      let len = Bytes.length range.Record.data in
      if len > 0 then
        List.iter
          (fun (r : Region.t) ->
            if
              Segment.id r.Region.seg = range.Record.seg
              && range.Record.off < r.Region.seg_off + r.Region.length
              && range.Record.off + len > r.Region.seg_off
            then begin
              let lo = max range.Record.off r.Region.seg_off in
              let hi =
                min (range.Record.off + len)
                  (r.Region.seg_off + r.Region.length)
              in
              Rvm_vm.Page.iter_pages ~page_size:r.Region.page_size
                ~off:(lo - r.Region.seg_off) ~len:(hi - lo) ~f:(fun p ->
                  Page_table.set_dirty r.Region.pages p true;
                  let key = Region.vm_page r ~region_page:p in
                  if not (Hashtbl.mem t.queued key) then begin
                    Hashtbl.add t.queued key ();
                    Queue.add
                      { d_region = r; d_page = p; d_log_off = log_off;
                        d_seqno = seqno }
                      t.queue
                  end)
            end)
          regions)
    ranges

(* Rebuild the page queue and dirty bits from the records still live in
   the log — the post-epoch state. See the header comment for why this is
   a rebuild and not a seqno filter. *)
let rebuild_queue t =
  Queue.clear t.queue;
  Hashtbl.reset t.queued;
  List.iter
    (fun (r : Region.t) ->
      List.iter
        (fun p -> Page_table.set_dirty r.Region.pages p false)
        (Page_table.dirty_pages r.Region.pages))
    (t.env.regions ());
  Log_manager.iter_live t.env.log ~f:(fun ~off r ->
      if r.Record.kind = Record.Commit then
        note_logged_ranges t ~log_off:off ~seqno:r.Record.seqno r.Record.ranges)

(* Evidence a head move would reclaim must stay continuously durable, so
   fresh copies go to the tail — past the new head, where the move keeps
   them live — and are forced while the status block still points at the
   old copies. Two kinds:

   - unretired resolutions: the run applied their intents, so a recovery
     that finds another participant's intent may have no other evidence
     of the decision;
   - still-pending parallel-commit intents inside the reclaimed window:
     undecided *here*, but possibly already implicitly committed — if
     every participant's intent and the staged record are durable on the
     other logs, recovery judges the group committed, and reclaiming this
     shard's intent without a live copy would flip that judgment (or lose
     this shard's ranges, which the run deliberately did not apply).

   Returns whether anything was appended; the force was then the step's
   unit of work. *)
let reappend_evidence t pending =
  let env = t.env in
  let resolutions = env.reappend_live_resolutions () in
  List.iter
    (fun (r : Record.t) -> ignore (Log_manager.append_record env.log r))
    pending;
  let appended = resolutions || pending <> [] in
  if appended then Log_manager.force env.log;
  appended

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

(* Freeze an epoch (the first step of an epoch run): force any unflushed
   tail, capture the frozen window, and plan its application. The plan's
   data is copied out of the frozen records, so commits appending past
   [freeze_seqno] while the run is suspended cannot disturb it. *)
let start_epoch t =
  let env = t.env in
  if not (Log_manager.is_empty env.log) then begin
    (* Write-ahead ordering: spooled or unsynced records must be durable
       before their new values reach the external data segments, or a
       crash between the plan-write steps and the head movement would
       leave segment data whose log records never survived. *)
    if Log_manager.unflushed env.log then Log_manager.force env.log;
    let freeze_tail = Log_manager.tail env.log in
    let freeze_seqno = Log_manager.next_seqno env.log in
    let plan =
      Recovery.plan_live ~before_seqno:freeze_seqno
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
    let syncs =
      List.sort_uniq compare (List.map (fun (seg, _, _) -> seg) chunks)
    in
    t.run <-
      Some
        (Epoch
           {
             e_freeze_tail = freeze_tail;
             e_freeze_seqno = freeze_seqno;
             e_writes = chunks;
             e_syncs = syncs;
             e_preserved = plan.Recovery.plan_preserved;
             e_stage = `Write;
             e_unsynced = 0;
             e_unsynced_segs = [];
           })
  end

let start_incremental t ~target =
  t.run <-
    Some
      (Incremental
         {
           i_target = target;
           i_touched = Hashtbl.create 4;
           i_blocked = false;
           i_syncs = [];
           i_new_head = None;
           i_stage = `Pages;
           i_unsynced = 0;
           i_unsynced_segs = [];
         })

(* --- advancing runs --- *)

(* Interim segment syncs keep every step's device charge bounded. The
   segment devices are write-back: a write dirties an extent, and sync
   pays seek + transfer for everything dirty. Without interim syncs a
   run's whole write-out accumulates and the final per-segment sync pays
   for all of it in one step — a multi-second stall at 1993 transfer
   rates, which is exactly the pause this machine exists to eliminate.
   Syncing every [sync_batch_pages] pages caps a step's device time at
   roughly one positioning delay plus one batch of transfer (~25 ms on
   the modelled data disk — comparable to one log force, so truncation
   never charges a quantum much more than a commit does). Early syncs
   are always WAL-safe: the records backing these values were forced
   before the writes (epoch: at freeze; incremental: the per-step
   unflushed check). *)
let sync_batch_pages = 8

let sync_batch t =
  if t.paced then sync_batch_pages * (t.env.options ()).Options.page_size
  else max_int

let interim_sync env segs =
  List.iter
    (fun seg_id ->
      Registry.span env.obs "segment.sync" (fun () ->
          Segment.sync (env.segment seg_id)))
    segs

let rec epoch_advance t (e : epoch_run) =
  let env = t.env in
  match e.e_stage with
  | `Write ->
    if e.e_unsynced >= sync_batch t then begin
      interim_sync env e.e_unsynced_segs;
      e.e_unsynced <- 0;
      e.e_unsynced_segs <- [];
      `Progress
    end
    else begin
      match e.e_writes with
      | [] ->
        e.e_stage <- `Sync;
        epoch_advance t e
      | (seg_id, off, data) :: rest ->
        e.e_writes <- rest;
        let len = Bytes.length data in
        Segment.write (env.segment seg_id) ~off ~buf:data ~pos:0 ~len;
        Clock.charge_cpu env.clock (copy_cost t len);
        e.e_unsynced <- e.e_unsynced + len;
        if not (List.mem seg_id e.e_unsynced_segs) then
          e.e_unsynced_segs <- seg_id :: e.e_unsynced_segs;
        `Progress
    end
  | `Sync -> (
    match e.e_syncs with
    | [] ->
      e.e_stage <- `Resolutions;
      epoch_advance t e
    | seg_id :: rest ->
      e.e_syncs <- rest;
      Registry.span env.obs "segment.sync" (fun () ->
          Segment.sync (env.segment seg_id));
      `Progress)
  | `Resolutions ->
    e.e_stage <- `Move_head;
    if reappend_evidence t e.e_preserved then `Progress
    else epoch_advance t e
  | `Move_head ->
    Log_manager.move_head env.log ~new_head:e.e_freeze_tail
      ~new_head_seqno:e.e_freeze_seqno;
    e.e_stage <- `Complete;
    `Progress
  | `Complete ->
    (* The span bumps [truncation.epoch.count] — the same counter behind
       [Statistics.epoch_truncations] — exactly once per completed run.
       The preserved pending intents were re-appended (and forced) by the
       [`Resolutions] stage, before the head moved: "a crash after the
       move merely orphan-aborts them" is not true, because an intent
       undecided here may already be implicitly committed by the evidence
       on the other participants' logs. *)
    Registry.span env.obs "truncation.epoch" (fun () -> rebuild_queue t);
    t.run <- None;
    `Progress

and incr_advance t (i : incr_run) =
  let env = t.env in
  let below_target () =
    float_of_int (Log_manager.used_bytes env.log)
    <= i.i_target *. float_of_int (Log_manager.capacity env.log)
  in
  match i.i_stage with
  | `Pages ->
    if below_target () then begin
      incr_finish_pages t i;
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
    else if i.i_unsynced >= sync_batch t then begin
      interim_sync env i.i_unsynced_segs;
      i.i_unsynced <- 0;
      i.i_unsynced_segs <- [];
      `Progress
    end
    else begin
      match Queue.peek_opt t.queue with
      | None ->
        incr_finish_pages t i;
        `Progress
      | Some d ->
        let pages = d.d_region.Region.pages in
        if
          (not d.d_region.Region.mapped)
          || Page_table.uncommitted pages d.d_page > 0
          || not (Page_table.reserve pages d.d_page)
        then begin
          C.incr env.live.Lv.incremental_blocked;
          i.i_blocked <- true;
          incr_finish_pages t i;
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
              Page_table.set_dirty pages d.d_page false;
              Page_table.release pages d.d_page;
              let seg_id = Segment.id d.d_region.Region.seg in
              Hashtbl.replace i.i_touched seg_id ();
              i.i_unsynced <-
                i.i_unsynced + (env.options ()).Options.page_size;
              if not (List.mem seg_id i.i_unsynced_segs) then
                i.i_unsynced_segs <- seg_id :: i.i_unsynced_segs;
              `Progress)
    end
  | `Sync -> (
    match i.i_syncs with
    | [] ->
      i.i_stage <- `Resolutions;
      incr_advance t i
    | seg_id :: rest ->
      i.i_syncs <- rest;
      Registry.span env.obs "segment.sync" (fun () ->
          Segment.sync (env.segment seg_id));
      `Progress)
  | `Resolutions -> (
    (* The head target is captured before the re-append below, so the
       fresh resolution copies land past the new head and stay live. The
       queue head is stable across suspension (only this machine pops),
       and a tail captured from an emptied queue can only precede records
       appended later — moving the head to it stays safe. *)
    let new_head =
      match Queue.peek_opt t.queue with
      | Some d ->
        if d.d_log_off <> Log_manager.head env.log then
          Some (d.d_log_off, d.d_seqno)
        else None
      | None ->
        if not (Log_manager.is_empty env.log) then
          Some (Log_manager.tail env.log, Log_manager.next_seqno env.log)
        else None
    in
    match new_head with
    | None ->
      incr_finish t i;
      `Progress
    | Some nh ->
      i.i_new_head <- Some nh;
      i.i_stage <- `Move_head;
      (* The pending intents the move reclaims are exactly the plan's
         preserved records below the new head's seqno. Without a liveness
         callback there is no parallel-commit machinery above this engine,
         nothing can be pending, and the log is not read. *)
      let pending =
        match env.intent_decision with
        | None -> []
        | Some _ as intent_decision ->
          (Recovery.plan_live ~before_seqno:(snd nh) ?intent_decision
             env.log)
            .Recovery.plan_preserved
      in
      if reappend_evidence t pending then `Progress else incr_advance t i)
  | `Move_head ->
    (match i.i_new_head with
    | Some (new_head, new_head_seqno) ->
      Log_manager.move_head env.log ~new_head ~new_head_seqno
    | None -> assert false);
    incr_finish t i;
    `Progress

(* Leaving the page-drain stage: segment syncs and the head move happen
   only when a page was actually written out or the queue drained —
   a run blocked on its first descriptor must leave the log intact. *)
and incr_finish_pages t i =
  if Hashtbl.length i.i_touched > 0 || Queue.is_empty t.queue then begin
    i.i_syncs <- Hashtbl.fold (fun id () acc -> id :: acc) i.i_touched [];
    i.i_stage <- `Sync
  end
  else incr_finish t i

(* Long-running transactions can block incremental truncation with the
   log critically full: revert to epoch truncation (section 5.1.2). The
   chained run is stepped by whoever was driving this one. *)
and incr_finish t i =
  t.run <- None;
  if
    i.i_blocked
    && occupancy t >= (t.env.options ()).Options.truncation_critical
  then start_epoch t

let advance t =
  match t.run with
  | None -> `Idle
  | Some (Epoch e) -> epoch_advance t e
  | Some (Incremental i) -> incr_advance t i

let step t =
  t.paced <- true;
  match t.run with
  | Some _ -> advance t
  | None ->
    let opts = t.env.options () in
    if occupancy t >= opts.Options.truncation_threshold then begin
      (match opts.Options.truncation_mode with
      | Types.Epoch -> start_epoch t
      | Types.Incremental ->
        start_incremental t
          ~target:(opts.Options.truncation_threshold /. 2.));
      match t.run with
      | Some (Epoch _) ->
        (* The freeze itself (force + frozen-window plan) was this step's
           unit of work. *)
        `Progress
      | Some (Incremental _) -> advance t
      | None -> `Idle
    end
    else `Idle

let complete t =
  t.paced <- false;
  while active t do
    ignore (advance t)
  done

(* --- the synchronous entry points (the pre-refactor API) --- *)

let maybe_truncate t =
  let opts = t.env.options () in
  if
    opts.Options.auto_truncate && (not (active t))
    && occupancy t >= opts.Options.truncation_threshold
  then begin
    (match opts.Options.truncation_mode with
    | Types.Epoch -> start_epoch t
    | Types.Incremental ->
      start_incremental t ~target:(opts.Options.truncation_threshold /. 2.));
    complete t
  end

let truncate_now t =
  complete t;
  (match (t.env.options ()).Options.truncation_mode with
  | Types.Epoch -> start_epoch t
  | Types.Incremental -> start_incremental t ~target:0.0);
  complete t

let sync_epoch t =
  complete t;
  start_epoch t;
  complete t
