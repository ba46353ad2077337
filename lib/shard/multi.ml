module Log_manager = Rvm_log.Log_manager
module Pcommit = Rvm_log.Pcommit
module Rvm = Rvm_core.Rvm
module Region = Rvm_core.Region
module Recovery = Rvm_core.Recovery
module Segment = Rvm_core.Segment
module Addr_space = Rvm_core.Addr_space
module Options = Rvm_core.Options
module Types = Rvm_core.Types
module Statistics = Rvm_core.Statistics
module Clock = Rvm_util.Clock
module Cost_model = Rvm_util.Cost_model
module Registry = Rvm_obs.Registry
module Twopc = Rvm_layers.Twopc

let src = Logs.Src.create "rvm.shard" ~doc:"Sharded multi-log RVM"

module L = (val Logs.src_log src : Logs.LOG)

type gtid = int

type txn = {
  g_mode : Types.restore_mode;
  locals : (int, Rvm.tid) Hashtbl.t;  (* shard -> local tid *)
  mutable order : int list;  (* shards in first-touch order, newest first *)
}

type t = {
  routing : Routing.t;
  shards : Rvm.t array;
  clock : Clock.t;
  obs : Registry.t;
  space : Addr_space.t;
      (* every shard's regions: one address space, so no two shards can
         map overlapping ranges (section 4.1) *)
  txns : (gtid, txn) Hashtbl.t;
  mutable next_gtid : int;
  incarnation : int;
  in_flight : (string, unit) Hashtbl.t;
      (* gids mid-protocol: intents appended, resolutions not yet. The
         per-shard engines consult this through their [intent_decision]
         callback when a truncation runs mid-protocol. *)
  mutable unresolved : (string * int list) list;
      (* no-flush cross-shard commits awaiting a global flush (newest
         first): (gid, participants). Implicit commit happens at the flush;
         resolutions are appended right after it. *)
  mutable retirable : (string * (int * int) list) list;
      (* resolved gids whose resolution records have been appended to every
         participant but not yet forced everywhere: (gid, per-participant
         (shard, force-epoch at append)). The per-shard engines keep those
         records live across truncations; once every participant has been
         forced past its append epoch the copies are all durable and
         {!flush} retires them on each engine — lazily, without ever
         issuing a force of its own for retirement. *)
  force_epoch : int array;
      (* per-shard count of the forces this layer has issued (engine-
         internal forces are invisible here, which only delays
         retirement — never unsound) *)
  lanes : Clock.lane array;
      (* one simulated worker core per shard: engine work addressed to a
         shard runs on its lane, so per-shard CPU and log waits overlap
         across shards. Callers only block on a lane at the points where
         the protocol says they must — a Flush-mode commit, a global
         force. No-ops on a null clock. *)
  shard_committed : Rvm_obs.Counter.t array;
      (* per-shard committed-transaction counters ([shard.<i>.committed]
         in the shared registry, so windowed telemetry can spot one
         shard racing ahead of — or starving behind — the others) *)
  mutable cross_committed : int;
  mutable cross_aborted : int;
  mutable commit_lsn : int;
      (* global logical commit counter, assigned at commit dispatch *)
  mutable durable_lsn : int;
      (* horizon below which global LSNs are durable on every participant *)
  lsn_pending : (int * (int * int) list) Queue.t;
      (* (global lsn, per-participant (shard, local Rvm commit LSN)) in
         commit order; a global commit is durable once every participant's
         engine reports its local LSN forced *)
  mutable terminated : bool;
}

let check_live t =
  if t.terminated then Types.error "shard instance has been terminated"

let shard_count t = Array.length t.shards
let shard t i = t.shards.(i)
let routing t = t.routing
let obs t = t.obs
let clock t = t.clock
let stats t = Rvm.stats t.shards.(0)  (* shared registry: merged totals *)
let cross_committed t = t.cross_committed
let cross_aborted t = t.cross_aborted
let commit_lsn t = t.commit_lsn

let durable_lsn t =
  let durable (s, local) = Rvm.durable_lsn t.shards.(s) >= local in
  let rec drain () =
    match Queue.peek_opt t.lsn_pending with
    | Some (lsn, locals) when List.for_all durable locals ->
      ignore (Queue.pop t.lsn_pending);
      t.durable_lsn <- lsn;
      drain ()
    | _ -> ()
  in
  drain ();
  t.durable_lsn

let create_logs devices = Array.iter Rvm.create_log devices

(* --- recovery-time status resolution (the ParallelCommits.tla recovery
   action). Judges every gid from the surviving evidence in all the
   attached shards' logs with the pure protocol core; {!initialize} then
   appends and forces an explicit resolution record to every log holding
   evidence, and only then lets the shards apply and empty their logs —
   once a shard's log is emptied its intents are gone, so the cross-shard
   decision must already be durable everywhere else. Crashing anywhere in
   between is safe: the judgment is deterministic in the surviving
   evidence, and in-log resolutions take precedence on the next attempt. *)

(* Per shard, the resolution records its log lacks: one for every gid it
   holds evidence for but no resolution of. No I/O: each log still holds
   what its open read. *)
let judge shards =
  (* gid -> (its evidence, the shards holding any, those holding a
     resolution) *)
  let found = Hashtbl.create 8 in
  let note i (c : Pcommit.control) =
    let (Intent { gid; _ } | Stage { gid; _ } | Resolution { gid; _ }) = c in
    let (e : Twopc.Parallel.evidence), holders, resolved =
      Option.value (Hashtbl.find_opt found gid)
        ~default:(Twopc.Parallel.no_evidence, [], [])
    in
    let holders = if List.mem i holders then holders else i :: holders in
    Hashtbl.replace found gid
      (match c with
      | Intent { shard; _ } when not (List.mem shard e.intents) ->
        ({ e with intents = shard :: e.intents }, holders, resolved)
      | Intent _ -> (e, holders, resolved)
      | Stage { participants; _ } ->
        ({ e with staged = Some participants }, holders, resolved)
      | Resolution { decision; _ } ->
        ({ e with resolutions = decision :: e.resolutions }, holders,
         i :: resolved))
  in
  Array.iteri
    (fun i r ->
      List.iter (note i)
        (Recovery.controls (Log_manager.view (Rvm.log_manager r))))
    shards;
  let verdicts = Array.make (Array.length shards) [] in
  Hashtbl.iter
    (fun gid ((e : Twopc.Parallel.evidence), holders, resolved) ->
      let decision = Twopc.Parallel.resolve e in
      L.info (fun m ->
          m "status resolution: %s -> %s (intents on %d shards, staged %b)"
            gid
            (Pcommit.decision_to_string decision)
            (List.length e.intents) (e.staged <> None));
      List.iter
        (fun s ->
          if not (List.mem s resolved) then
            verdicts.(s) <-
              Pcommit.record (Pcommit.Resolution { gid; decision })
              :: verdicts.(s))
        holders)
    found;
  Array.map List.rev verdicts

(* --- initialization --- *)

let initialize ?(options = Options.default) ?(clock = Clock.null)
    ?(model = Cost_model.dec5000) ?obs ~routing ~logs ~resolve () =
  let n = Routing.shards routing in
  if Array.length logs <> n then
    Types.error "initialize: %d log devices for %d shards" (Array.length logs)
      n;
  let obs = match obs with Some o -> o | None -> Registry.create () in
  let in_flight = Hashtbl.create 8 in
  let intent_decision gid =
    if Hashtbl.mem in_flight gid then `Pending else `Abort
  in
  (* Recovery in three rounds, each shard on its own lane and every round
     joined before the next, so each costs the slowest shard, not the sum:
     open every log once, append and force the verdicts on the shards
     whose logs lack them, then recover every shard. *)
  let lanes = Array.init n (fun _ -> Clock.lane ()) in
  let round f =
    let results =
      Array.mapi (fun i lane -> Clock.on_lane clock lane (fun () -> f i)) lanes
    in
    Clock.join_lanes clock (Array.to_list lanes);
    results
  in
  let shards =
    round (fun i ->
        try
          Rvm.attach ~options ~clock ~model ~obs ~intent_decision
            ~log:logs.(i) ~resolve ()
        with Types.Rvm_error e -> Types.error "shard %d: %s" i e)
  in
  let verdicts = judge shards in
  ignore
    (round (fun i ->
         if verdicts.(i) <> [] then begin
           let lm = Rvm.log_manager shards.(i) in
           List.iter (fun r -> ignore (Log_manager.append_record lm r))
             verdicts.(i);
           Log_manager.force lm
         end));
  ignore (round (fun i -> Rvm.recover shards.(i)));
  (* Seqnos only grow across recoveries of the same image, so folding them
     into the gid makes every incarnation's gids distinct from whatever an
     earlier run left in the logs — without consulting wall-clock time
     (gids must be deterministic under crash-image replay). *)
  let incarnation =
    Array.fold_left
      (fun acc r -> acc + Log_manager.next_seqno (Rvm.log_manager r))
      0 shards
  in
  {
    routing;
    shards;
    clock;
    obs;
    space = Addr_space.create ~page_size:options.Options.page_size;
    txns = Hashtbl.create 16;
    next_gtid = 1;
    incarnation;
    in_flight;
    unresolved = [];
    retirable = [];
    force_epoch = Array.make (Array.length shards) 0;
    lanes;
    shard_committed =
      Array.init (Array.length shards) (fun i ->
          Registry.counter obs (Printf.sprintf "shard.%d.committed" i));
    cross_committed = 0;
    cross_aborted = 0;
    commit_lsn = 0;
    durable_lsn = 0;
    lsn_pending = Queue.create ();
    terminated = false;
  }

let reinitialize ?options ?obs ~routing ~logs ~resolve () =
  initialize ?options ~clock:(Clock.simulated ()) ~model:Cost_model.dec5000
    ?obs ~routing ~logs ~resolve ()

(* --- mapping and memory access --- *)

let shard_of_seg t seg = Routing.shard_of t.routing ~seg

let map t ?vaddr ~seg ~seg_off ~len () =
  check_live t;
  let vaddr =
    match vaddr with
    | Some v -> v
    | None -> Addr_space.suggest_vaddr t.space ~len
  in
  Addr_space.check_free t.space ~vaddr ~len;
  let region =
    Rvm.map t.shards.(shard_of_seg t seg) ~vaddr ~seg ~seg_off ~len ()
  in
  Addr_space.add t.space region;
  region

(* The shard owning the region that holds [addr, addr+len). *)
let shard_at t ~addr ~len =
  let region = Addr_space.find t.space ~addr ~len in
  shard_of_seg t (Segment.id region.Region.seg)

let shard_of_addr t ~addr = shard_at t ~addr ~len:1

let unmap t (region : Region.t) =
  check_live t;
  (match Addr_space.find_opt t.space ~addr:region.Region.vaddr with
  | Some r when r == region -> ()
  | _ -> Types.error "shard: unmap of unknown region");
  Rvm.unmap t.shards.(shard_of_seg t (Segment.id region.Region.seg)) region;
  Addr_space.remove t.space region

let load t ~addr ~len =
  let s = shard_at t ~addr ~len in
  Clock.on_lane t.clock t.lanes.(s) (fun () -> Rvm.load t.shards.(s) ~addr ~len)

let store t ~addr bytes =
  let s = shard_at t ~addr ~len:(Bytes.length bytes) in
  Clock.on_lane t.clock t.lanes.(s) (fun () ->
      Rvm.store t.shards.(s) ~addr bytes)

let get_i64 t ~addr =
  let s = shard_at t ~addr ~len:8 in
  Clock.on_lane t.clock t.lanes.(s) (fun () -> Rvm.get_i64 t.shards.(s) ~addr)

let set_i64 t ~addr v =
  let s = shard_at t ~addr ~len:8 in
  Clock.on_lane t.clock t.lanes.(s) (fun () -> Rvm.set_i64 t.shards.(s) ~addr v)

(* --- transactions --- *)

let begin_transaction t ~mode =
  check_live t;
  let gtid = t.next_gtid in
  t.next_gtid <- gtid + 1;
  Hashtbl.add t.txns gtid
    { g_mode = mode; locals = Hashtbl.create 2; order = [] };
  gtid

let find_txn t gtid =
  match Hashtbl.find_opt t.txns gtid with
  | Some txn -> txn
  | None -> Types.error "shard: unknown transaction %d" gtid

let local_tid t txn shard =
  match Hashtbl.find_opt txn.locals shard with
  | Some tid -> tid
  | None ->
    let tid = Rvm.begin_transaction t.shards.(shard) ~mode:txn.g_mode in
    Hashtbl.add txn.locals shard tid;
    txn.order <- shard :: txn.order;
    tid

let set_range t gtid ~addr ~len =
  check_live t;
  let txn = find_txn t gtid in
  let s = shard_at t ~addr ~len in
  Clock.on_lane t.clock t.lanes.(s) (fun () ->
      Rvm.set_range t.shards.(s) (local_tid t txn s) ~addr ~len)

let modify t gtid ~addr bytes =
  set_range t gtid ~addr ~len:(Bytes.length bytes);
  store t ~addr bytes

let touched_shards t gtid =
  let txn = find_txn t gtid in
  List.sort compare
    (Hashtbl.fold (fun shard _ acc -> shard :: acc) txn.locals [])

let gid_of t gtid = Printf.sprintf "p%d.%d" t.incarnation gtid

(* Append every unresolved no-flush cross-shard commit's resolutions: call
   only right after a global flush made everything durable (the implicit
   commits just became real). *)
let mark_retirable t gid participants =
  t.retirable <-
    (gid, List.map (fun s -> (s, t.force_epoch.(s))) participants)
    :: t.retirable

let resolve_unresolved t =
  List.iter
    (fun (gid, participants) ->
      List.iter
        (fun s ->
          Rvm.append_resolution t.shards.(s) ~gid
            ~decision:Pcommit.Committed)
        participants;
      Hashtbl.remove t.in_flight gid;
      mark_retirable t gid participants;
      t.cross_committed <- t.cross_committed + 1)
    (List.rev t.unresolved);
  t.unresolved <- []

(* Retire every resolved gid whose resolution copies are all durable: a
   participant forced past its append epoch has the record on the device.
   Purely bookkeeping — retirement never issues a force; copies not yet
   durable simply ride along (re-appended across truncations) until an
   ordinary force round covers them. *)
let retire_durable t =
  let pending, ready =
    List.partition
      (fun (_, parts) ->
        List.exists (fun (s, epoch) -> t.force_epoch.(s) <= epoch) parts)
      t.retirable
  in
  List.iter
    (fun (gid, parts) ->
      List.iter (fun (s, _) -> Rvm.retire_resolution t.shards.(s) ~gid) parts)
    ready;
  t.retirable <- pending

let flush t =
  check_live t;
  (* The global force is a synchronization point: wait for every worker
     to drain, then force every shard holding undurable state on its own
     lane and wait for the slowest. Skipping clean shards keeps the
     sharded group-commit cost proportional to the work batched — a
     singleton batch on one shard costs one sync, not one per shard. *)
  let lanes = Array.to_list t.lanes in
  Clock.join_lanes t.clock lanes;
  Array.iteri
    (fun s r ->
      if Rvm.unflushed r then begin
        Clock.on_lane t.clock t.lanes.(s) (fun () -> Rvm.flush r);
        t.force_epoch.(s) <- t.force_epoch.(s) + 1
      end)
    t.shards;
  Clock.join_lanes t.clock lanes;
  retire_durable t;
  (* Resolutions appended below are deliberately not forced here: the
     decision is recomputable from the intents and staged record the
     round above just made durable, so they ride in the tails until the
     next ordinary force — at which point [retire_durable] drops them. *)
  resolve_unresolved t

(* The parallel-commit write round for one cross-shard transaction. *)
let end_cross t gtid txn ~mode participants =
  let gid = gid_of t gtid in
  Registry.span t.obs "txn.parallel_commit"
    ~attrs:
      [
        ("gid", Rvm_obs.Trace.String gid);
        ("shards", Rvm_obs.Trace.Int (List.length participants));
      ]
    (fun () ->
      let coordinator = List.hd participants in
      Hashtbl.replace t.in_flight gid ();
      (* The one concurrent round: every participant's intent plus the
         staged record on the coordinator, each appended by that shard's
         own worker — the lanes advance independently, nothing
         synchronizes yet. *)
      List.iter
        (fun s ->
          Clock.on_lane t.clock t.lanes.(s) (fun () ->
              let tid = Hashtbl.find txn.locals s in
              Rvm.end_transaction_intent t.shards.(s) tid ~gid ~shard:s))
        participants;
      Clock.on_lane t.clock t.lanes.(coordinator) (fun () ->
          Rvm.append_stage t.shards.(coordinator) ~gid ~participants);
      match mode with
      | Types.Flush ->
        (* Parallel flush round: each participant forces on its own lane,
           and the caller blocks until the slowest returns — the implicit
           commit point. Convert to explicit before returning. *)
        List.iter
          (fun s ->
            Clock.on_lane t.clock t.lanes.(s) (fun () ->
                Rvm.flush t.shards.(s)))
          participants;
        Clock.join_lanes t.clock
          (List.map (fun s -> t.lanes.(s)) participants);
        List.iter
          (fun s -> t.force_epoch.(s) <- t.force_epoch.(s) + 1)
          participants;
        List.iter
          (fun s ->
            Rvm.append_resolution t.shards.(s) ~gid
              ~decision:Pcommit.Committed)
          participants;
        Hashtbl.remove t.in_flight gid;
        mark_retirable t gid participants;
        t.cross_committed <- t.cross_committed + 1
      | Types.No_flush ->
        (* Bounded persistence: the round sits in the per-shard tails
           until a global {!flush} makes it durable and resolves it. *)
        t.unresolved <- (gid, participants) :: t.unresolved)

(* Record a fresh global commit LSN for a commit just dispatched to
   [participants]. The lane closures have already run (the single-worker
   simulation executes them synchronously), so each participant's engine
   counter reflects this commit; the global LSN becomes durable once every
   participant reports its local LSN forced. *)
let note_commit t participants =
  List.iter (fun s -> Rvm_obs.Counter.incr t.shard_committed.(s)) participants;
  t.commit_lsn <- t.commit_lsn + 1;
  let locals =
    List.map (fun s -> (s, Rvm.commit_lsn t.shards.(s))) participants
  in
  Queue.push (t.commit_lsn, locals) t.lsn_pending

let end_transaction t gtid ~mode =
  check_live t;
  let txn = find_txn t gtid in
  (match touched_shards t gtid with
  | [] -> ()
  | [ s ] ->
    (* Single-shard: exactly the single-log commit path, on the shard's
       worker. A Flush-mode caller blocks until the force returns; a
       no-flush commit leaves the worker to drain on its own. *)
    Clock.on_lane t.clock t.lanes.(s) (fun () ->
        Rvm.end_transaction t.shards.(s) (Hashtbl.find txn.locals s) ~mode);
    note_commit t [ s ];
    if mode = Types.Flush then Clock.join_lanes t.clock [ t.lanes.(s) ]
  | participants ->
    end_cross t gtid txn ~mode participants;
    note_commit t participants);
  Hashtbl.remove t.txns gtid

let abort_transaction t gtid =
  check_live t;
  let txn = find_txn t gtid in
  (* Only ever before the write round: once intents are appended the
     protocol always commits (there is no in-process abort-after-intent
     path), so aborting is plain local aborts shard by shard. *)
  Hashtbl.iter
    (fun shard tid ->
      Clock.on_lane t.clock t.lanes.(shard) (fun () ->
          Rvm.abort_transaction t.shards.(shard) tid))
    txn.locals;
  (* The caller owns the restored memory image before it continues. *)
  Clock.join_lanes t.clock
    (Hashtbl.fold (fun shard _ acc -> t.lanes.(shard) :: acc) txn.locals []);
  if Hashtbl.length txn.locals > 1 then
    t.cross_aborted <- t.cross_aborted + 1;
  Hashtbl.remove t.txns gtid

(* --- log control / lifecycle --- *)

let truncate t =
  check_live t;
  flush t;
  Array.iter Rvm.truncate t.shards

(* One background truncation step on every shard whose truncator is due,
   each dispatched to that shard's worker lane so concurrent steps overlap
   on the simulated clock and commits on other shards never wait. The
   per-shard state machine keeps the live-resolution re-append + force
   invariant at each of its head moves ({!Rvm_core.Truncator}). *)
let truncation_step t =
  check_live t;
  let result = ref `Idle in
  Array.iteri
    (fun s sh ->
      if Rvm.truncation_due sh then
        Clock.on_lane t.clock t.lanes.(s) (fun () ->
            match Rvm.truncation_step sh with
            | `Progress -> result := `Progress
            | `Blocked -> if !result = `Idle then result := `Blocked
            | `Idle -> ()))
    t.shards;
  !result

let truncation_due t = Array.exists Rvm.truncation_due t.shards
let truncation_urgent t = Array.exists Rvm.truncation_urgent t.shards

let log_occupancy t =
  Array.fold_left (fun acc r -> Float.max acc (Rvm.log_occupancy r)) 0.
    t.shards

let active_transactions t = Hashtbl.length t.txns

let terminate t =
  check_live t;
  if active_transactions t > 0 then
    Types.error "terminate: %d transactions still active"
      (active_transactions t);
  flush t;
  Array.iter Rvm.terminate t.shards;
  t.terminated <- true
