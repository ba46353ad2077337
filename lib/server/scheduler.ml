module Types = Rvm_core.Types
module Clock = Rvm_util.Clock
module Rng = Rvm_util.Rng
module Lock_mgr = Rvm_layers.Lock_mgr
module Registry = Rvm_obs.Registry
module Trace = Rvm_obs.Trace
module Counter = Rvm_obs.Counter
module Histogram = Rvm_obs.Histogram

exception Stuck of string

type config = { batch_max : int; background_truncation : bool; elr : bool }

let default_config =
  { batch_max = 8; background_truncation = true; elr = true }

let backoff_base_us = 1_000.  (* first-retry backoff before jitter *)
let backoff_cap = 6  (* max doublings of the backoff base *)
let cpu_per_op_us = 25.  (* CPU charge per step *)
let max_iterations = 20_000_000  (* hang guard for property tests *)

(* The background slot's pacing (see [background_truncation]): the most
   truncator steps one quantum runs, and the minimum simulated time
   between bursts that charged device time. *)
let truncation_max_steps = 16
let truncation_min_gap_us = 200_000.

(* The executable form of a request, compiled by its workload and consumed
   front to back: lock acquisitions, work run under the locks taken so
   far — inside the engine transaction if it writes, outside any if it
   only reads — and lock-free reads that resolve keys through their
   commit stamps. *)
type step =
  | Lock of Lock_mgr.mode * string
  | Run of (int -> unit)
  | Query of (unit -> unit)
  | Read of string list

type 's gen = id:int -> 's

type 's request = {
  id : int;
  spec : 's;
  mutable plan : step list;  (* the steps still to run *)
  mutable tid : int option;
  mutable attempts : int;
  arrival_us : float;
  mutable commit_lsn : int;
  mutable dep_lsn : int;
  mutable dep_writers : int list;
}

(* Which tally an acknowledged request lands in: a committed transaction,
   writer or read-only, or a lock-free read answered from the stamps. *)
type outcome = Commit | Answer

type tally = {
  committed : int;
  reads : int;
  shed : int;
  aborts : int;
  batches : int;
  latencies_us : float array;  (** one per committed request, commit order *)
  read_latencies_us : float array;  (** one per answered read, ack order *)
  end_us : float;
  iterations : int;
}

(* A growable unboxed [float array]: one sample costs a float store, not
   a boxed float and a cons cell that every minor GC must promote. *)
type samples = { mutable data : float array; mutable n : int }

let samples () = { data = Array.make 256 0.; n = 0 }

let[@inline] push s x =
  if s.n = Array.length s.data then begin
    let d = Array.make (2 * s.n) 0. in
    Array.blit s.data 0 d 0 s.n;
    s.data <- d
  end;
  s.data.(s.n) <- x;
  s.n <- s.n + 1

let to_array s = Array.sub s.data 0 s.n

(* The run queue: a growable ring, so putting a request back after each
   step writes a slot instead of allocating a queue cell. A slot outside
   the live window may still name a request that has left the queue
   until the ring reuses it. *)
type 'a ring = {
  mutable slots : 'a array;
  mutable head : int;
  mutable len : int;
}

let ring () = { slots = [||]; head = 0; len = 0 }

let enqueue q x =
  let cap = Array.length q.slots in
  if q.len = cap then begin
    let slots = Array.make (max 16 (2 * cap)) x in
    for i = 0 to q.len - 1 do
      slots.(i) <- q.slots.((q.head + i) mod cap)
    done;
    q.slots <- slots;
    q.head <- 0
  end;
  q.slots.((q.head + q.len) mod Array.length q.slots) <- x;
  q.len <- q.len + 1

let dequeue q =
  let x = q.slots.(q.head) in
  q.head <- (q.head + 1) mod Array.length q.slots;
  q.len <- q.len - 1;
  x

(* A batch force issued on the log disk's lane and not yet completed. *)
type 's flight = {
  acks : 's request list;  (* the writers it makes durable, ready order *)
  riding : int list;  (* those of them whose locks ride to it *)
  horizon : int;  (* the engine's durable LSN once it completes *)
}

type 's t = {
  cfg : config;
  eng : Engine.t;
  clock : Clock.t;
  obs : Registry.t;
  lm : Lock_mgr.t;
  steps_of : 's -> step list;  (* the workload's compiler *)
  label : 's -> string;  (* the [kind] of a request's [req.root] span *)
  adm : 's request Admission.t;
  arr : Arrivals.t;
  gen : 's gen;
  mutable next_id : int;
  rng : Rng.t;  (* backoff jitter stream *)
  runnable : 's request ring;
  mutable parked : 's request list;
  mutable retries : (float * 's request) list;  (* sorted by (due, id) *)
  mutable pending : (outcome * 's request) list;
      (* read-only requests — lock-free reads and commits that wrote
         nothing — that observed a spooled-but-unforced commit: the
         ack-dependency rule holds their completion until the engine's
         durable horizon covers [dep_lsn] (newest first) *)
  batch : 's request Batcher.t;
  mutable riding : int list;
      (* ids in the open batch whose locks ride to its force under ELR:
         the cross-shard commits *)
  disk : Clock.lane;
      (* the log disk: batch forces run here while the dispatcher goes on
         executing and spooling the next batch *)
  mutable flight : 's flight option;  (* at most one force is in flight *)
  mutable durable : int;
      (* the durable horizon acks are checked against: it advances only
         when a force completes *)
  mutable on_spool : 's request -> unit;
      (* fired at a request's commit point: its record reaches the
         spool, or a read-only commit completes without one; the crash
         explorer hangs its commit-order recorder here *)
  mutable on_ack : 's request -> unit;
      (* fired when a request's outcome is released to the client — after
         durability for writes, after the dependency check for read-only
         requests *)
  mutable on_quantum : unit -> unit;
      (* fired once per scheduler quantum, after the clock may have
         advanced: the monitoring tick. Must not charge simulated time —
         observation may never perturb the run it observes. *)
  (* tallies *)
  mutable committed : int;
  mutable reads : int;
  mutable shed : int;
  mutable aborts : int;
  mutable batches : int;
  latencies : samples;  (* commit order *)
  read_latencies : samples;  (* ack order *)
  mutable iterations : int;
  mutable trunc_blocked_at : int option;
      (* [committed] tally when the truncator last reported [`Blocked]:
         stepping again before another commit resolves would stall on the
         same pinned page, so the slot stays quiet until the tally moves. *)
  mutable trunc_last_pause_us : float;
      (* when the slot last charged device time: pausing bursts are spread
         at least [truncation_min_gap_us] apart so one reclaim cycle's
         syncs and forces don't cluster into a single effective stall *)
  (* observability handles *)
  c_committed : Counter.t;
  c_shed : Counter.t;
  c_retry : Counter.t;
  c_admitted : Counter.t;
  c_elr : Counter.t;
  c_snapshot : Counter.t;
  h_latency : Histogram.t;
  h_read_latency : Histogram.t;
  h_queue_wait : Histogram.t;
  h_batch_size : Histogram.t;
  h_trunc_pause : Histogram.t;
  h_trunc_steps : Histogram.t;
  s_root : Registry.scope;  (* a commit's [req.root] span *)
  s_batch_flush : Registry.scope;
  s_park : Registry.scope;  (* a [server.park] instant *)
}

let create ~cfg ~steps ~label ~engine ~clock ~obs ~lock_mgr ~admission
    ~arrivals ~gen ~rng =
  if cfg.batch_max <= 0 then invalid_arg "Scheduler: batch_max";
  {
    cfg;
    eng = engine;
    clock;
    obs;
    lm = lock_mgr;
    steps_of = steps;
    label;
    adm = admission;
    arr = arrivals;
    gen;
    next_id = 0;
    rng;
    runnable = ring ();
    parked = [];
    retries = [];
    pending = [];
    batch = Batcher.create ~max:cfg.batch_max;
    riding = [];
    disk = Clock.lane ();
    flight = None;
    durable = engine.Engine.durable_lsn ();
    on_spool = ignore;
    on_ack = ignore;
    on_quantum = ignore;
    committed = 0;
    reads = 0;
    shed = 0;
    aborts = 0;
    batches = 0;
    latencies = samples ();
    read_latencies = samples ();
    iterations = 0;
    trunc_blocked_at = None;
    trunc_last_pause_us = neg_infinity;
    c_committed = Registry.counter obs "server.committed";
    c_shed = Registry.counter obs "server.shed";
    c_retry = Registry.counter obs "server.retry";
    c_admitted = Registry.counter obs "server.admitted";
    c_elr = Registry.counter obs "elr.released_early";
    c_snapshot = Registry.counter obs "mvcc.snapshot_reads";
    h_latency = Registry.histogram obs "server.latency.us";
    h_read_latency = Registry.histogram obs "server.read.latency.us";
    h_queue_wait = Registry.histogram obs "server.queue.wait.us";
    h_batch_size = Registry.histogram obs "server.batch.size";
    h_trunc_pause = Registry.histogram obs "truncation.pause.us";
    h_trunc_steps = Registry.histogram obs "truncation.steps.per.quantum";
    s_root = Registry.scope obs "req.root";
    s_batch_flush = Registry.scope obs "server.batch.flush";
    s_park = Registry.instant_scope obs "server.park";
  }

let set_hooks t ~on_spool ~on_ack =
  t.on_spool <- on_spool;
  t.on_ack <- on_ack

let set_on_quantum t f = t.on_quantum <- f

let now t = Clock.now_us t.clock
let charge t = Clock.charge_cpu t.clock cpu_per_op_us

(* --- lifecycle --- *)

let rec enqueue_all q = function
  | [] -> ()
  | r :: rest ->
    enqueue q r;
    enqueue_all q rest

let wake_parked t =
  match t.parked with
  | [] -> ()
  | parked ->
    t.parked <- [];
    enqueue_all t.runnable (List.sort (fun a b -> compare a.id b.id) parked)

(* A request's outcome is durable — its own commit, if it wrote, and
   every commit it observed: account its latency, let a closed-loop
   session move on. The admission slot was already freed at the commit
   point — in-flight counts transactions that are executing, not ones
   parked in the batcher awaiting the force. *)
let finish t outcome r =
  let tnow = now t in
  Arrivals.complete t.arr ~now:tnow;
  let lat = tnow -. r.arrival_us in
  (match outcome with
  | Commit ->
    t.committed <- t.committed + 1;
    Counter.incr t.c_committed;
    push t.latencies lat;
    Histogram.observe t.h_latency lat
  | Answer ->
    t.reads <- t.reads + 1;
    push t.read_latencies lat;
    Histogram.observe t.h_read_latency lat);
  t.on_ack r

(* A read-only request wrote nothing, so only what it observed can be
   lost: it finishes now if the durable horizon covers [dep_lsn], else at
   the force that does. *)
let await t outcome r =
  if r.dep_lsn <= t.durable then finish t outcome r
  else t.pending <- (outcome, r) :: t.pending

let complete_pending t =
  if t.pending <> [] then begin
    let d = t.durable in
    let ready, waiting =
      List.partition (fun (_, r) -> r.dep_lsn <= d) t.pending
    in
    t.pending <- waiting;
    List.iter (fun (outcome, r) -> finish t outcome r) (List.rev ready)
  end

(* A commit that spooled no record wrote nothing: there is nothing to
   stamp, force or hold a lock for, in any configuration. This is the
   commit point of a request that never began an engine transaction — its
   plan held no [Run] step — and of one whose transaction declared no
   range, which the engine ends without a record. Its locks and admission
   slot drop at once and it waits only for what it observed, like a
   lock-free read; it still counts toward closing the batch, so writers
   behind a stream of read-only commits wait no longer than [batch_max]
   commits. *)
let commit_read_only t r =
  t.on_spool r;
  Lock_mgr.release_all t.lm ~owner:r.id;
  Admission.release t.adm;
  if t.cfg.batch_max > 1 then Batcher.note t.batch;
  wake_parked t;
  await t Commit r

(* Commit a request whose steps are exhausted. A request with no engine
   transaction commits read-only without calling the engine. Otherwise
   batched configurations commit no-flush immediately and park the
   request in the batcher until its batch's force completes; unbatched
   ones force the log right here.

   Either way the commit record now fixes the request's place in commit
   order, so every key it holds is stamped with its commit LSN while the
   locks are still held: a successor touching those keys inherits the
   stamp as an ack dependency ([dep_lsn]), and a lock-free reader
   resolves them to this commit.

   Early lock release: the commit record is in the spool and — redo-only
   logging, no undo ever — nothing can roll it back except a crash, which
   rolls back every later conflicting transaction with it, because the
   successor's record sits later in the same spool. The locks therefore
   drop now, and the stamp keeps a successor from acknowledging before
   this record is forced. That argument needs one spool: a commit that
   wrote several shards is decided by every participant's force, and a
   crash between two of them aborts it while a single-shard successor's
   record on a forced shard survives, carrying what it read. Such a
   commit keeps its locks until the batch force, its implicit-commit
   point. With [elr = false] every commit's locks ride until its force
   completes ({!land_force}) — the contention the optimization removes.

   A transaction that declared no range leaves the engine's commit LSN
   where it was, and commits read-only. *)
let commit_ready t r =
  let id = r.id in
  match r.tid with
  | None -> commit_read_only t r
  | Some tid ->
    let unbatched = t.cfg.batch_max = 1 in
    (* Asked before [end_txn]: the engine forgets the transaction there. *)
    let early =
      t.cfg.elr && (not unbatched) && not (t.eng.Engine.crosses tid)
    in
    let before = t.eng.Engine.commit_lsn () in
    let obs = t.obs in
    Registry.open_span obs t.s_root;
    Registry.add_int obs "req" r.id;
    Registry.add_string obs "kind" (t.label r.spec);
    Registry.add_int obs "attempts" r.attempts;
    (match
       t.eng.Engine.end_txn tid
         ~mode:(if unbatched then Types.Flush else Types.No_flush)
     with
    | () -> Registry.close_span obs t.s_root
    | exception e ->
      Registry.close_span obs t.s_root;
      raise e);
    r.tid <- None;
    let lsn = t.eng.Engine.commit_lsn () in
    if lsn = before then commit_read_only t r
    else begin
      r.commit_lsn <- lsn;
      Lock_mgr.stamp_held t.lm ~owner:id (lsn, id);
      if unbatched then begin
        t.durable <- t.eng.Engine.durable_lsn ();
        t.on_spool r;
        Lock_mgr.release_all t.lm ~owner:id;
        Admission.release t.adm;
        t.batches <- t.batches + 1;
        Histogram.observe t.h_batch_size 1.;
        finish t Commit r;
        wake_parked t;
        complete_pending t
      end
      else begin
        t.on_spool r;
        if early then begin
          Counter.incr t.c_elr;
          Lock_mgr.release_all t.lm ~owner:id
        end
        else if t.cfg.elr then t.riding <- id :: t.riding;
        Admission.release t.adm;
        Batcher.add t.batch r;
        if early then wake_parked t
      end
    end

(* Issue a force on the log disk's lane: it runs from when the disk is
   free, and the dispatcher goes on at once. The engine's spool is empty
   after the call, so the next batch fills behind it; [reqs] ack, and
   their riding locks drop, when it lands. With no writers it is the
   force that releases parked read-only requests. Every commit spooled so
   far — each of [reqs], and every dependency any request has inherited
   — is under the horizon it establishes, or the ack rule could hold a
   request forever. *)
let start_force t reqs =
  let spooled = t.eng.Engine.commit_lsn () in
  Clock.on_lane t.clock t.disk (fun () ->
      match reqs with
      | [] -> t.eng.Engine.flush ()
      | _ -> (
        let obs = t.obs in
        Registry.open_span obs t.s_batch_flush;
        Registry.add_int obs "size" (List.length reqs);
        match t.eng.Engine.flush () with
        | () -> Registry.close_span obs t.s_batch_flush
        | exception e ->
          Registry.close_span obs t.s_batch_flush;
          raise e));
  let horizon = t.eng.Engine.durable_lsn () in
  if horizon < spooled then
    raise
      (Stuck
         (Printf.sprintf "a force left lsn %d above the durable horizon %d"
            spooled horizon));
  t.flight <- Some { acks = reqs; riding = t.riding; horizon };
  t.riding <- []

(* Close the open batch: one force makes every no-flush commit in it
   durable. A batch that counted only read-only commits closes without
   one. *)
let flush_batch t =
  match Batcher.take t.batch with
  | [] -> ()
  | reqs ->
    t.batches <- t.batches + 1;
    Histogram.observe t.h_batch_size (float_of_int (List.length reqs));
    start_force t reqs

(* The force in flight has completed: the durable horizon advances, and
   this is the ack barrier — nothing in its batch (nor any pending
   read-only request) is released to its client before the horizon
   covers its commit and every dependency it inherited through an
   early-released lock. Locks that rode to the force drop here. Called
   at the top of every quantum, so it must allocate nothing until the
   clock has reached the force's end. *)
let land_force t =
  match t.flight with
  | Some f when now t >= !(t.disk) ->
    t.flight <- None;
    t.durable <- f.horizon;
    List.iter
      (fun r ->
        if (not t.cfg.elr) || List.mem r.id f.riding then
          Lock_mgr.release_all t.lm ~owner:r.id;
        finish t Commit r)
      f.acks;
    if f.acks <> [] && ((not t.cfg.elr) || f.riding <> []) then
      wake_parked t;
    complete_pending t
  | _ -> ()

let insert_retry t due r =
  let key = (due, r.id) in
  let rec ins = function
    | [] -> [ (due, r) ]
    | ((d, x) :: _) as rest when compare key (d, x.id) < 0 -> (due, r) :: rest
    | e :: rest -> e :: ins rest
  in
  t.retries <- ins t.retries

(* Deadlock victim: roll the engine transaction back, drop every lock,
   and come back after a seeded, jittered exponential backoff. *)
let abort_retry t r =
  (match r.tid with
  | Some tid -> t.eng.Engine.abort tid
  | None -> ());
  r.tid <- None;
  (* No stamp: an aborted transaction committed nothing, so its keys keep
     their last committer's stamps. Deps inherited during the attempt die
     with it. *)
  Lock_mgr.release_all t.lm ~owner:r.id;
  r.dep_lsn <- 0;
  r.dep_writers <- [];
  r.attempts <- r.attempts + 1;
  t.aborts <- t.aborts + 1;
  Counter.incr t.c_retry;
  r.plan <- t.steps_of r.spec;
  let exp = min (r.attempts - 1) backoff_cap in
  let jitter = 0.5 +. Rng.float t.rng 1.0 in
  let delay = backoff_base_us *. float_of_int (1 lsl exp) *. jitter in
  insert_retry t (now t +. delay) r;
  wake_parked t

(* The commit-LSN dependency rule, for lock grants and lock-free reads
   alike: a key's stamp names its last committed holder, so a request that
   observes the key must not acknowledge before that commit is durable. *)
let inherit_stamp t r key =
  match Lock_mgr.stamp t.lm ~key with
  | Some (lsn, writer) ->
    if lsn > r.dep_lsn then r.dep_lsn <- lsn;
    if not (List.mem writer r.dep_writers) then
      r.dep_writers <- writer :: r.dep_writers
  | None -> ()

let rec inherit_stamps t r = function
  | [] -> ()
  | key :: keys ->
    inherit_stamp t r key;
    inherit_stamps t r keys

(* The lock-free read-only fast path: one quantum, no engine transaction,
   no wait-for graph. A key's stamp is set at commit-spool time while its
   committer still holds the lock, so each key resolves to its last commit
   even while a later writer holds the lock mid-update. The read's ack
   dependency is the max of the observed commit LSNs: if any of them sits
   above the durable horizon (an early-released, not-yet-forced commit),
   the answer parks in [pending] until a force covers it. *)
let exec_read t r keys =
  charge t;
  inherit_stamps t r keys;
  Counter.incr t.c_snapshot;
  Admission.release t.adm;
  await t Answer r

(* The step ran: the rest of the plan waits for the request's next turn. *)
let advance t r rest =
  r.plan <- rest;
  enqueue t.runnable r

(* Whether a plan still writes: only a [Run] step declares ranges. *)
let writes = List.exists (function Run _ -> true | _ -> false)

(* One cooperative scheduling quantum: a single step. Requests that can
   continue go back to the tail of the run queue, so in-flight
   transactions interleave round-robin — which is what makes lock
   conflicts (and transfer-order deadlocks) reachable at all. A
   transaction that ran to commit in one quantum could never be caught
   holding a lock.

   The engine transaction begins at the first step of a plan that holds a
   [Run] step, before its first lock, so the begin order is the order in
   which requests start. A plan with no [Run] step never begins one: its
   [Query] steps read under their locks outside any transaction, and it
   commits read-only. A plan that is one [Read] and nothing else takes no
   lock either. *)
let exec t r =
  match r.plan with
  | [ Read keys ] when Option.is_none r.tid -> exec_read t r keys
  | [] -> commit_ready t r
  | step :: rest as plan -> (
    if Option.is_none r.tid && writes plan then
      r.tid <- Some (t.eng.Engine.begin_txn ~mode:Types.Restore);
    charge t;
    match step with
    | Lock (mode, key) -> (
      match Lock_mgr.wait_for t.lm ~owner:r.id ~key mode with
      | `Granted ->
        inherit_stamp t r key;
        advance t r rest
      | `Wait _ ->
        t.parked <- r :: t.parked;
        let obs = t.obs in
        Registry.open_span obs t.s_park;
        Registry.add_int obs "req" r.id;
        Registry.add_string obs "key" key;
        Registry.close_span obs t.s_park
      | `Deadlock -> abort_retry t r)
    | Run f ->
      (* Runs with every lock of the preceding [Lock] steps held, inside
         the request's engine transaction. *)
      f (Option.get r.tid);
      advance t r rest
    | Query f ->
      (* Runs with the same locks held, outside any engine transaction. *)
      f ();
      advance t r rest
    | Read keys ->
      inherit_stamps t r keys;
      advance t r rest)

(* --- arrivals, admission, retries --- *)

let start t r =
  Histogram.observe t.h_queue_wait (now t -. r.arrival_us);
  Counter.incr t.c_admitted;
  r.plan <- t.steps_of r.spec;
  enqueue t.runnable r

let shed t r =
  t.shed <- t.shed + 1;
  Counter.incr t.c_shed;
  Registry.instant t.obs "server.overload" ~attrs:[ ("req", Trace.Int r.id) ];
  Arrivals.complete t.arr ~now:(now t)

(* A request that has just arrived: the next id, and its spec drawn from
   the workload's generator. *)
let arrive t ~arrival_us =
  let id = t.next_id in
  t.next_id <- id + 1;
  {
    id;
    spec = t.gen ~id;
    plan = [];
    tid = None;
    attempts = 0;
    arrival_us;
    commit_lsn = 0;
    dep_lsn = 0;
    dep_writers = [];
  }

(* Every arrival due by now, then every retry: top-level loops, so the
   quantum that finds nothing due allocates nothing. *)
let rec arrivals t =
  if Arrivals.next_at t.arr <= now t then begin
    let r = arrive t ~arrival_us:(Arrivals.take t.arr) in
    (match Admission.submit t.adm r with
    | `Admitted -> start t r
    | `Queued -> ()
    | `Overload -> shed t r);
    arrivals t
  end

let rec retries t =
  match t.retries with
  | (due, r) :: rest when due <= now t ->
    t.retries <- rest;
    enqueue t.runnable r;
    retries t
  | _ -> ()

let process_due t =
  arrivals t;
  retries t

let rec admit_from_queue t =
  match Admission.pop_ready t.adm with
  | `Admit r ->
    start t r;
    admit_from_queue t
  | `Empty | `At_capacity -> ()

(* The background-task slot: spend a bounded amount of truncation work
   between scheduling decisions. Step CPU is charged via the clock's
   background lane ({!Clock.background}) so it rides the dispatcher's
   idle capacity, and segment syncs run on the truncator's own disk lane,
   but log forces and page-ins the steps cause still advance the
   simulated clock; that wall-clock delta is the honest per-quantum
   commit-path pause and lands in [truncation.pause.us]. If occupancy has
   already reached [truncation_critical], background pacing lost the
   race: fall back to one synchronous truncation — the exact stall the
   paper charges to Camelot — recorded under the [truncation.emergency]
   span and the same pause histogram. *)
let background_truncation t =
  if not t.cfg.background_truncation then ()
  else if t.eng.Engine.truncation_urgent () then begin
    let t0 = now t in
    Registry.span t.obs "truncation.emergency" (fun () ->
        t.eng.Engine.truncate ());
    Histogram.observe t.h_trunc_pause (now t -. t0);
    t.trunc_blocked_at <- None
  end
  else begin
    let blocked_fresh =
      match t.trunc_blocked_at with
      | Some c -> c = t.committed
      | None -> false
    in
    let gap_open = now t -. t.trunc_last_pause_us >= truncation_min_gap_us in
    (* A burst starts only while no force is in flight: its own log forces
       would queue behind the batch force on the log disk. *)
    if
      Option.is_none t.flight && (not blocked_fresh) && gap_open
      && t.eng.Engine.truncation_due ()
    then begin
      (* The quantum ends at the first *device-pausing* step — one that
         advanced the simulated clock (a log force, a page-in). Steps
         that charge nothing foreground (page writes land in write-back
         device caches, syncs run on the disk lane, CPU rides the
         background lane) are nearly free, and a plan can hold thousands
         of them; metering those like forces starves reclamation until
         the emergency fallback fires, which is the exact pause this slot
         exists to avoid. Free steps still get a cap so one quantum
         cannot spin unboundedly. *)
      let t0 = now t in
      let steps = ref 0 in
      let paused = ref false in
      let continue = ref true in
      while !continue && !steps < truncation_max_steps do
        let before = now t in
        (match
           Clock.background t.clock (fun () ->
               t.eng.Engine.truncation_step ())
         with
        | `Progress ->
          incr steps;
          t.trunc_blocked_at <- None
        | `Blocked ->
          incr steps;
          t.trunc_blocked_at <- Some t.committed;
          continue := false
        | `Idle -> continue := false);
        if now t > before then begin
          paused := true;
          continue := false
        end
      done;
      if !paused then t.trunc_last_pause_us <- now t;
      if !steps > 0 then begin
        Histogram.observe t.h_trunc_pause (now t -. t0);
        Histogram.observe t.h_trunc_steps (float_of_int !steps)
      end
    end
  end

let diagnose t reason =
  Format.asprintf
    "scheduler stuck (%s): iter=%d now=%.0fus runnable=%d parked=%d \
     retries=%d pending=%d batch=%d forcing=%b inflight=%d queued=%d \
     committed=%d reads=%d shed=%d aborts=%d wait_edges=%s"
    reason t.iterations (now t)
    t.runnable.len
    (List.length t.parked)
    (List.length t.retries)
    (List.length t.pending)
    (Batcher.size t.batch) (Option.is_some t.flight) (Admission.inflight t.adm)
    (Admission.queued t.adm)
    t.committed t.reads t.shed t.aborts
    (String.concat ";"
       (List.map
          (fun (o, bs) ->
            Printf.sprintf "%d->[%s]" o
              (String.concat "," (List.map string_of_int bs)))
          (Lock_mgr.wait_edges t.lm)))

(* The next arrival or retry deadline, [infinity] when neither is left. *)
let next_event_at t =
  let a = Arrivals.next_at t.arr in
  match t.retries with (d, _) :: _ -> Float.min a d | [] -> a

let run t =
  let rec loop () =
    t.iterations <- t.iterations + 1;
    if t.iterations > max_iterations then
      raise (Stuck (diagnose t "iteration budget exhausted"));
    t.on_quantum ();
    land_force t;
    process_due t;
    admit_from_queue t;
    background_truncation t;
    if Batcher.full t.batch then begin
      (* A full batch waits for the force in flight: the log disk forces
         one batch at a time, so no commit waits for more than its own
         batch's force and the one in flight ahead of it. *)
      if Option.is_some t.flight && Batcher.size t.batch > 0 then
        Clock.advance_to t.clock !(t.disk)
      else flush_batch t;
      loop ()
    end
    else if t.runnable.len > 0 then begin
      exec t (dequeue t.runnable);
      loop ()
    end
    else if Option.is_some t.flight then begin
      (* Nothing can run before the force lands or the next timed event
         fires: a partial batch, parked read-only requests and the end of
         the run all wait for the landing. *)
      let at = next_event_at t in
      Clock.advance_to t.clock (if at < !(t.disk) then at else !(t.disk));
      loop ()
    end
    else if not (Batcher.is_empty t.batch) then begin
      (* No request can advance before the next timed event: close the
         partial batch now rather than letting latency ride on arrivals.
         With no writer in it this only restarts the count. *)
      flush_batch t;
      loop ()
    end
    else if t.pending <> [] then begin
      (* Only parked read-only requests remain: their dependencies are
         spooled commits with no batch left to close, so force the engine
         and release them when the force lands. *)
      start_force t [];
      loop ()
    end
    else
      let at = next_event_at t in
      if at < infinity then begin
        if at > now t then Clock.advance_to t.clock at;
        loop ()
      end
      else if t.runnable.len = 0 && t.parked = [] && Admission.queued t.adm = 0
      then () (* drained: every request committed or shed *)
      else raise (Stuck (diagnose t "no timed event and no runnable work"))
  in
  loop ();
  {
    committed = t.committed;
    reads = t.reads;
    shed = t.shed;
    aborts = t.aborts;
    batches = t.batches;
    latencies_us = to_array t.latencies;
    read_latencies_us = to_array t.read_latencies;
    end_us = now t;
    iterations = t.iterations;
  }
