module Clock = Rvm_util.Clock
module Registry = Rvm_obs.Registry
module Tpca = Rvm_workload.Tpca
module Placement = Rvm_server.Placement
module Engine = Rvm_server.Engine
module Scheduler = Rvm_server.Scheduler
module Server = Rvm_server.Server

type config = {
  shards : int;
  accounts : int;
  requests : int;
  seed : int64;
  batch_max : int;
  core : Crash.config;
}

let default_config =
  {
    shards = 1;
    accounts = 32;
    requests = 24;
    seed = 7L;
    batch_max = 4;
    core = { Crash.sector = 512; exhaustive = false; max_torn_per_write = 4 };
  }

(* The mix: zipf 0.99 account skew, 25% lookups, 30% transfers, offered
   open loop at 400 tps to a 256 KiB log per shard. *)
let zipf_s = 0.99
let read_pct = 25
let transfer_pct = 30
let rate_tps = 400.
let log_size = 256 * 1024

(* The server config the recorded run serves and every recovery reopens:
   the mix above, with a queue deep enough that nothing sheds, since
   membership checking wants every generated write to either commit or
   still be in flight at the crash, never refused. The log never fills
   far enough for the background slot to truncate, so every device event
   is commit traffic. *)
let serving cfg =
  {
    Server.default_config with
    Server.accounts = cfg.accounts;
    shards = cfg.shards;
    zipf_s;
    transfer_pct;
    read_pct;
    requests = cfg.requests;
    seed = cfg.seed;
    load = Server.Open_loop rate_tps;
    batch_max = cfg.batch_max;
    max_inflight = 8;
    max_queue = cfg.requests + 8;
    log_size;
    elr = true;
  }

(* What the recorded run logs through the scheduler hooks. *)

type spooled = {
  sp_id : int;
  sp_shards : int list;  (* participant shards, sorted *)
  sp_spec : Tpca.spec;
}

(* An outcome released to a client, as the scheduler's request shows it:
   whether the request wrote (its commit took a commit LSN), the writers
   whose early-released state it observed, and the device event at which
   the ack left the server. *)
type ack = { a_id : int; a_wrote : bool; a_deps : int list; a_event : int }

(* (a) No ack precedes durability: every request acked by the crash that
   wrote must have been recovered, and so must every writer whose state
   it observed. *)
let ack_violation acks ~upto ~survived =
  List.find_map
    (fun a ->
      if a.a_event > upto then None
      else if a.a_wrote && not (survived a.a_id) then
        Some
          (Printf.sprintf
             "write %d was acked at event %d but did not survive the crash"
             a.a_id a.a_event)
      else
        List.find_opt (fun w -> not (survived w)) a.a_deps
        |> Option.map
             (Printf.sprintf
                "request %d was acked at event %d but observed writer %d, \
                 which did not survive the crash"
                a.a_id a.a_event))
    acks

let page_size = 4096

(* Recover crashed images and read back every balance cell plus the
   membership the audit trails record. *)

type recovered = {
  r_accounts : int64 array;
  r_tellers : int64 array;  (* shard-major: shard * Tpca.tellers + t *)
  r_branches : int64 array;
  r_members : (int, unit) Hashtbl.t;  (* ids found in the audit trails *)
}

(* Every written audit slot holds its writer's id + 1 at offset +24; a
   zeroed slot was never written (or its commit did not survive). *)
let members pl word =
  let found = Hashtbl.create 64 in
  for s = 0 to Placement.shards pl - 1 do
    let l = Placement.layout pl s in
    for i = 0 to l.Tpca.audit_entries - 1 do
      let w = word (Tpca.audit_addr l i + 24) in
      if w <> 0L then Hashtbl.replace found (Int64.to_int w - 1) ()
    done
  done;
  found

(* Reopen the server's world on the images, as the server would after
   the crash, and read back through its engine and placement. *)
let recover serving images =
  let n = serving.Server.shards in
  let logs, segs = Explorer.split n images in
  let w =
    Server.open_world serving ~clock:(Clock.simulated ())
      ~obs:(Registry.create ()) ~logs ~segs
  in
  let pl = w.Server.placement in
  let word addr =
    Bytes.get_int64_le (w.Server.engine.Engine.load ~addr ~len:8) 0
  in
  {
    r_accounts =
      Array.init serving.Server.accounts (fun i ->
          word (Placement.account_addr pl i));
    r_tellers =
      Array.init (n * Tpca.tellers) (fun i ->
          let s = i / Tpca.tellers and t = i mod Tpca.tellers in
          word (Tpca.teller_addr (Placement.layout pl s) t));
    r_branches =
      Array.init (n * Tpca.branches) (fun i ->
          let s = i / Tpca.branches and b = i mod Tpca.branches in
          word (Tpca.branch_addr (Placement.layout pl s) b));
    r_members = members pl word;
  }

(* Serial reference over the recovered-membership set: per-cell additions
   commute, so any serializable execution of exactly the set [S] lands on
   these balances. *)
let expected_balances cfg (survivors : spooled list) =
  let n = cfg.shards in
  let accounts = Array.make cfg.accounts 0L in
  let tellers = Array.make (n * Tpca.tellers) 0L in
  let branches = Array.make (n * Tpca.branches) 0L in
  List.iter
    (fun e ->
      Tpca.apply_model ~shards:n e.sp_spec ~accounts ~tellers ~branches)
    survivors;
  (accounts, tellers, branches)

let first_mismatch ~what expected actual =
  let rec go i =
    if i >= Array.length expected then None
    else if expected.(i) <> actual.(i) then
      Some
        (Printf.sprintf "%s %d: expected %Ld, recovered %Ld" what i
           expected.(i) actual.(i))
    else go (i + 1)
  in
  go 0

(* The three checks, in order, over one recovered state; the first failing
   one is the verdict. *)
let oracle cfg ~spool_order ~acks =
  let spooled_by_id = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace spooled_by_id e.sp_id e) spool_order;
  fun (crash : Crash.crash_point) rec_state ->
  (* Membership: a committed write survived iff its id is in a recovered
     audit trail (the slot is written in the same transaction as the
     balances, so the whole commit stands or falls with it). *)
  let survives e = Hashtbl.mem rec_state.r_members e.sp_id in
  let survivors = List.filter survives spool_order in
  let in_s id =
    match Hashtbl.find_opt spooled_by_id id with
    | Some e -> survives e
    | None -> false
  in
  match ack_violation acks ~upto:crash.Crash.upto ~survived:in_s with
  | Some reason -> Some reason
  | None -> (
    (* (b) Prefix closure: per shard, the survivors must be a prefix
       of the spool (= log append) order; the only legal holes are
       cross-shard transactions, whose intents recovery may have
       resolved to aborted. *)
    let prefix_violation =
      List.find_map
        (fun s ->
          let proj =
            List.filter (fun e -> List.mem s e.sp_shards) spool_order
          in
          let rec scan seen_hole = function
            | [] -> None
            | e :: rest ->
              if survives e then
                match seen_hole with
                | Some h ->
                  Some
                    (Printf.sprintf
                       "shard %d: single-shard commit %d is missing \
                        but later commit %d survived (hole in the \
                        redo prefix)"
                       s h e.sp_id)
                | None -> scan seen_hole rest
              else
                scan
                  (if List.length e.sp_shards > 1 then seen_hole
                   else (
                     match seen_hole with
                     | Some _ -> seen_hole
                     | None -> Some e.sp_id))
                  rest
          in
          scan None proj)
        (List.init cfg.shards Fun.id)
    in
    match prefix_violation with
    | Some reason -> Some reason
    | None ->
      (* (c) Serial equivalence: recovered balances equal the
         commutative reference applied to exactly the survivor set —
         early lock release must never let a successor's update
         survive a crash its predecessor's didn't feed into. *)
      let ea, et, eb = expected_balances cfg survivors in
      let mismatch =
        match first_mismatch ~what:"account" ea rec_state.r_accounts with
        | Some m -> Some m
        | None -> (
          match first_mismatch ~what:"teller" et rec_state.r_tellers with
          | Some m -> Some m
          | None ->
            first_mismatch ~what:"branch" eb rec_state.r_branches)
      in
      Option.map
        (Printf.sprintf
           "balances diverge from the %d-survivor serial reference: %s"
           (List.length survivors))
        mismatch)

(* The recorded run: the server harness's TPC-A world and scheduler
   (DESIGN.md §9, "One harness, many workloads") on recorder-wrapped
   memory devices, with the scheduler hooks logging commit-spool order
   and the exact device-event index at which every ack left the server. *)
let world cfg rig =
  let n = cfg.shards in
  let serving = serving cfg in
  let layouts = Server.shard_layouts serving in
  let logs, segs =
    Explorer.trace_shards rig ~shards:n ~log_size:serving.Server.log_size
      ~seg_size:(fun s -> layouts.(s).Tpca.total_len + page_size)
  in
  let w =
    Server.open_world serving ~clock:(Clock.simulated ()) ~obs:(Crash.obs rig)
      ~logs ~segs
  in
  let sched = Server.scheduler_of serving w in
  let spool_order = ref [] (* newest first *) in
  let acks = ref [] in
  Scheduler.set_hooks sched
    ~on_spool:(fun r ->
      let s = r.Scheduler.spec in
      let shards_touched =
        List.sort_uniq compare [ s.Tpca.account mod n; s.Tpca.account2 mod n ]
      in
      spool_order :=
        { sp_id = s.Tpca.id; sp_shards = shards_touched; sp_spec = s }
        :: !spool_order)
    ~on_ack:(fun r ->
      acks :=
        {
          a_id = r.Scheduler.id;
          a_wrote = r.Scheduler.commit_lsn > 0;
          a_deps = r.Scheduler.dep_writers;
          a_event = Crash.events_so_far rig;
        }
        :: !acks);
  let tally = Scheduler.run sched in
  let spool_order = List.rev !spool_order in
  (* Each spooled write drew one slot from its anchor account's trail. A
     trail that wrapped holds overwritten ids, so membership could not be
     read back from it. *)
  let draws = Array.make n 0 in
  List.iter
    (fun e ->
      let s = e.sp_spec.Tpca.account mod n in
      draws.(s) <- draws.(s) + 1)
    spool_order;
  Array.iteri
    (fun s d ->
      let slots = layouts.(s).Tpca.audit_entries in
      if d > slots then
        invalid_arg
          (Printf.sprintf
             "Elr_check.run: shard %d drew %d audit slots, but its trail \
              holds %d (use more accounts or fewer requests)"
             s d slots))
    draws;
  {
    Crash.recover = recover serving;
    oracle = oracle cfg ~spool_order ~acks:(List.rev !acks);
    commits = tally.Scheduler.committed;
    counters =
      [
        ( "cross-shard",
          List.length
            (List.filter (fun e -> List.length e.sp_shards > 1) spool_order) );
        ( "early releases",
          Rvm_obs.Counter.get
            (Registry.counter w.Server.obs "elr.released_early") );
        ("snapshot reads", tally.Scheduler.reads);
      ];
  }

let run ?(config = default_config) () =
  if config.shards < 1 then invalid_arg "Elr_check.run: shards must be >= 1";
  Crash.run config.core (world config)
