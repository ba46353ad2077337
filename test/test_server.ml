(* Tests for the transaction server: scheduler, admission control, commit
   batching, arrival processes — and the end-to-end properties the PR
   promises: bit-reproducible seeded runs, strictly fewer device syncs
   per committed transaction when batching, shedding only beyond the
   admission limit, a live deadlock-abort-retry path, and final balances
   equal to the serial reference execution. *)

module S = Rvm_server.Server
module Scheduler = Rvm_server.Scheduler
module Admission = Rvm_server.Admission
module Batcher = Rvm_server.Batcher
module Arrivals = Rvm_server.Arrivals
module Engine = Rvm_server.Engine
module Placement = Rvm_server.Placement
module Lock_mgr = Rvm_layers.Lock_mgr
module Multi = Rvm_shard.Multi
module Tpca = Rvm_workload.Tpca
module Registry = Rvm_obs.Registry
module Rng = Rvm_util.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- unit: the latency sort --- *)

(* [Server.sort_floats] leaves the array [Array.sort compare] leaves, bit
   for bit, on random, duplicated, all-zero, empty and one-element
   samples, and on sorted and reversed ones. *)
let test_sort_floats () =
  let rng = Rng.create ~seed:3L in
  let random n = Array.init n (fun _ -> float_of_int (Rng.int rng 1_000_000) /. 7.) in
  let cases =
    [
      [||];
      [| 4.5 |];
      Array.make 100 0.;
      Array.init 1000 (fun i -> float_of_int (i mod 13));
      Array.init 500 float_of_int;
      Array.init 500 (fun i -> float_of_int (500 - i));
      random 2;
      random 3;
      random 1001;
      random 20_000;
    ]
  in
  List.iter
    (fun a ->
      let expected = Array.copy a in
      Array.sort compare expected;
      let got = Array.copy a in
      S.sort_floats got;
      check_bool
        (Printf.sprintf "%d samples" (Array.length a))
        true
        (Array.for_all2
           (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
           expected got))
    cases

(* --- unit: admission state machine --- *)

let test_admission_caps () =
  let adm = Admission.create { Admission.max_inflight = 2; max_queue = 2 } in
  let submit x = Admission.submit adm x in
  check_bool "1st admitted" true (submit 1 = `Admitted);
  check_bool "2nd admitted" true (submit 2 = `Admitted);
  check_bool "3rd queued" true (submit 3 = `Queued);
  check_bool "4th queued" true (submit 4 = `Queued);
  check_bool "5th overload" true (submit 5 = `Overload);
  check_int "inflight" 2 (Admission.inflight adm);
  check_int "queued" 2 (Admission.queued adm);
  check_bool "at capacity" true (Admission.pop_ready adm = `At_capacity);
  Admission.release adm;
  check_bool "fifo admit" true (Admission.pop_ready adm = `Admit 3);
  Admission.release adm;
  check_bool "fifo order" true (Admission.pop_ready adm = `Admit 4);
  Admission.release adm;
  Admission.release adm;
  check_bool "empty queue" true (Admission.pop_ready adm = `Empty);
  (* a queued request means arrivals never bypass the FIFO *)
  check_bool "queue first" true (submit 6 = `Admitted)

(* Releasing a drained pipeline (no inflight work) must be a counted
   no-op, not an underflow: the ELR scheduler can observe a request's
   slot already freed when an abort races the drain at shutdown. *)
let test_admission_double_release () =
  let obs = Registry.create () in
  let adm =
    Admission.create ~obs { Admission.max_inflight = 2; max_queue = 2 }
  in
  check_int "fresh pipeline" 0 (Admission.double_releases adm);
  Admission.release adm;
  check_int "drained release counted, not raised" 1
    (Admission.double_releases adm);
  check_int "inflight never negative" 0 (Admission.inflight adm);
  check_bool "submit still works after a spurious release" true
    (Admission.submit adm 1 = `Admitted);
  Admission.release adm;
  check_int "matched release not counted" 1 (Admission.double_releases adm);
  Admission.release adm;
  check_int "second spurious release counted" 2
    (Admission.double_releases adm);
  check_int "obs counter tracks" 2
    (match List.assoc_opt "admission.double_release" (Registry.counters obs) with
    | Some n -> n
    | None -> -1)

(* --- unit: batcher --- *)

let test_batcher_fifo () =
  let b = Batcher.create ~max:3 in
  check_bool "empty" true (Batcher.is_empty b);
  Batcher.add b 'a';
  Batcher.add b 'b';
  check_bool "not full" false (Batcher.full b);
  Batcher.add b 'c';
  check_bool "full" true (Batcher.full b);
  Alcotest.check_raises "overfull add raises"
    (Invalid_argument "Batcher.add: batch full") (fun () -> Batcher.add b 'd');
  Alcotest.(check (list char)) "fifo take" [ 'a'; 'b'; 'c' ] (Batcher.take b);
  check_bool "empty after take" true (Batcher.is_empty b);
  check_int "max" 3 (Batcher.max_size b)

(* --- unit: arrival processes --- *)

let test_arrivals_deterministic () =
  let schedule () =
    let a =
      Arrivals.open_loop ~rate_tps:50. ~requests:20
        ~rng:(Rng.create ~seed:9L) ()
    in
    let rec go acc =
      if Arrivals.exhausted a then List.rev acc else go (Arrivals.take a :: acc)
    in
    go []
  in
  let s1 = schedule () and s2 = schedule () in
  check_bool "same schedule" true (s1 = s2);
  check_int "all arrivals" 20 (List.length s1);
  check_bool "ascending" true (List.sort compare s1 = s1);
  (* mean inter-arrival should be in the ballpark of 1/rate = 20ms *)
  let total = List.nth s1 19 in
  check_bool "plausible horizon" true (total > 100_000. && total < 1_500_000.)

let test_arrivals_closed_loop_think () =
  let a =
    Arrivals.closed_loop ~sessions:2 ~think_us:1000. ~requests:5
      ~rng:(Rng.create ~seed:4L) ()
  in
  (* two sessions pending initially *)
  check_bool "has first" true (Arrivals.next_at a < infinity);
  ignore (Arrivals.take a);
  ignore (Arrivals.take a);
  check_bool "no third before a completion" true
    (Arrivals.next_at a = infinity);
  Alcotest.check_raises "nothing to take"
    (Invalid_argument "Arrivals.take: no arrival pending") (fun () ->
      ignore (Arrivals.take a));
  Arrivals.complete a ~now:5000.;
  let at = Arrivals.next_at a in
  check_bool "completion schedules the next arrival" true (at < infinity);
  check_bool "thinks after completion" true (at > 5000.);
  ignore (Arrivals.take a);
  Arrivals.complete a ~now:9000.;
  ignore (Arrivals.take a);
  Arrivals.complete a ~now:12000.;
  ignore (Arrivals.take a);
  check_bool "exhausted after 5" true (Arrivals.exhausted a)

(* --- end-to-end: determinism --- *)

let quick_cfg =
  { S.default_config with S.requests = 120; S.load = S.Open_loop 30. }

let test_run_deterministic () =
  let r1 = S.run quick_cfg and r2 = S.run quick_cfg in
  check_bool "identical results" true (r1 = r2);
  check_bool "identical json" true
    (Rvm_obs.Json.to_string (S.result_to_json r1)
    = Rvm_obs.Json.to_string (S.result_to_json r2));
  (* a different seed produces a different run *)
  let r3 = S.run { quick_cfg with S.seed = 43L } in
  check_bool "seed matters" true (r1.S.duration_us <> r3.S.duration_us)

(* --- end-to-end: batching strictly reduces syncs per commit --- *)

let test_batched_fewer_syncs () =
  let base = { S.default_config with S.requests = 200 } in
  List.iter
    (fun tps ->
      let r1 = S.run { base with S.load = S.Open_loop tps; S.batch_max = 1 } in
      let r8 = S.run { base with S.load = S.Open_loop tps; S.batch_max = 8 } in
      check_bool
        (Printf.sprintf "unbatched forces every commit at %.0f tps" tps)
        true
        (r1.S.log_syncs >= r1.S.committed);
      check_bool
        (Printf.sprintf "batched strictly fewer syncs/commit at %.0f tps" tps)
        true
        (r8.S.syncs_per_commit < r1.S.syncs_per_commit);
      check_bool "batched commits no fewer requests" true
        (r8.S.committed >= r1.S.committed))
    [ 20.; 80. ]

(* --- end-to-end: shedding appears only beyond the admission limit --- *)

let test_shed_only_beyond_limit () =
  let base = { S.default_config with S.requests = 200; S.batch_max = 1 } in
  let light = S.run { base with S.load = S.Open_loop 10. } in
  check_int "no shed at light load" 0 light.S.shed;
  check_int "all commit at light load" 200 light.S.committed;
  let heavy = S.run { base with S.load = S.Open_loop 160. } in
  check_bool "overload sheds" true (heavy.S.shed > 0);
  check_int "every request committed or shed" 200
    (heavy.S.committed + heavy.S.shed);
  (* a deeper queue (larger admission limit) absorbs the same load *)
  let deep =
    S.run
      { base with S.load = S.Open_loop 160.; S.max_inflight = 8; S.max_queue = 400 }
  in
  check_int "no shed below the admission limit" 0 deep.S.shed

(* --- end-to-end: the deadlock abort-and-retry path runs --- *)

let hot_cfg =
  (* tiny hot account set, pure transfers locking in draw order: AB/BA
     inversions guaranteed under concurrency. Eight sessions with no think
     time keep eight transfers in flight at every instant; an open loop
     overlaps fewer of them, since the pipelined force acks each batch
     without stalling the dispatcher. *)
  {
    S.default_config with
    S.accounts = 8;
    S.zipf_s = 1.2;
    S.transfer_pct = 100;
    S.requests = 200;
    S.load = S.Closed_loop { sessions = 8; think_us = 0. };
    S.batch_max = 4;
    S.max_queue = 400;
  }

let test_deadlock_abort_retry () =
  let r = S.run hot_cfg in
  check_bool "deadlocks happen" true (r.S.aborts > 0);
  check_int "every request still commits" 200 r.S.committed;
  check_int "nothing shed" 0 r.S.shed

(* --- end-to-end: final balances equal the serial reference --- *)

(* Regenerate the request stream exactly as [S.scheduler_of] draws it:
   the master seed splits into (gen, arrival, backoff) streams in that
   order, and each arrival draws the spec of the next id. *)
let replay_specs cfg =
  let rng = Rng.create ~seed:cfg.S.seed in
  let gen_rng = Rng.split rng in
  let _arrival = Rng.split rng in
  let _backoff = Rng.split rng in
  let gen =
    Tpca.make_gen ~read_pct:cfg.S.read_pct ~accounts:cfg.S.accounts
      ~zipf_s:cfg.S.zipf_s ~transfer_pct:cfg.S.transfer_pct ~rng:gen_rng ()
  in
  List.init cfg.S.requests (fun id -> gen ~id)

let check_balances cfg (w : S.world) =
  let pl = w.S.placement in
  let n = cfg.S.shards in
  let read_i64 ~addr =
    Bytes.get_int64_le (w.S.engine.Engine.load ~addr ~len:8) 0
  in
  let accounts = Array.make cfg.S.accounts 0L in
  let tellers = Array.make (n * Tpca.tellers) 0L in
  let branches = Array.make (n * Tpca.branches) 0L in
  List.iter
    (fun spec ->
      Tpca.apply_model ~shards:n spec ~accounts ~tellers ~branches)
    (replay_specs cfg);
  Array.iteri
    (fun i expected ->
      Alcotest.(check int64)
        (Printf.sprintf "account %d" i)
        expected
        (read_i64 ~addr:(Placement.account_addr pl i)))
    accounts;
  (* account index s lives on shard s (s < shards <= accounts), so it
     anchors reads of shard s's teller and branch records *)
  Array.iteri
    (fun id expected ->
      let s = id / Tpca.tellers and i = id mod Tpca.tellers in
      Alcotest.(check int64)
        (Printf.sprintf "teller %d of shard %d" i s)
        expected
        (read_i64 ~addr:(Placement.teller_addr pl ~anchor:s i)))
    tellers;
  Array.iteri
    (fun id expected ->
      let s = id / Tpca.branches and i = id mod Tpca.branches in
      Alcotest.(check int64)
        (Printf.sprintf "branch %d of shard %d" i s)
        expected
        (read_i64 ~addr:(Placement.branch_addr pl ~anchor:s i)))
    branches

let test_balances_match_serial_reference () =
  (* [hot_cfg] maximizes interleaving, parking and deadlock retries — if
     two-phase locking or abort-restore were broken, commutative addition
     would not save us from lost updates on the per-request audit stamps
     colliding; here we check the balances the model predicts. *)
  let w, tally = S.run_with_world hot_cfg in
  check_int "all committed" hot_cfg.S.requests tally.Scheduler.committed;
  check_balances hot_cfg w

(* --- end-to-end: the snapshot-read fast path --- *)

let read_cfg =
  (* skewed writes plus a big lookup share: reads hit recently written
     (often spooled-but-unforced) cells, so the dep-LSN parking path is
     exercised, not just cache hits on cold keys *)
  {
    S.default_config with
    S.accounts = 50;
    S.zipf_s = 0.99;
    S.read_pct = 40;
    S.transfer_pct = 30;
    S.requests = 300;
    S.load = S.Open_loop 120.;
    S.batch_max = 8;
    S.max_queue = 1000;
  }

(* Serve [cfg] watching every ack leave the server: none may vouch for a
   commit, its own or an inherited one, that the durable horizon does not
   cover yet, and every write acks with its commit LSN (the ELR
   explorer's ack check reads it to know the request wrote). Returns the
   world, the tally, the first late or unstamped ack (if any) and how
   many lookups acked with a writer dependency. *)
let serve_checking_acks cfg =
  let w = S.build_world cfg in
  let sched = S.scheduler_of cfg w in
  let late = ref None and dependent_reads = ref 0 in
  Scheduler.set_hooks sched ~on_spool:ignore ~on_ack:(fun r ->
      let d = w.S.engine.Engine.durable_lsn () in
      if (r.Scheduler.commit_lsn > d || r.Scheduler.dep_lsn > d) && !late = None
      then
        late :=
          Some
            (Printf.sprintf "request %d acked at lsn %d dep %d, durable %d"
               r.Scheduler.id r.Scheduler.commit_lsn r.Scheduler.dep_lsn d);
      if
        r.Scheduler.spec.Tpca.kind <> Tpca.Lookup
        && r.Scheduler.commit_lsn = 0
        && !late = None
      then
        late :=
          Some (Printf.sprintf "write %d acked with no commit lsn" r.Scheduler.id);
      if
        r.Scheduler.spec.Tpca.kind = Tpca.Lookup
        && r.Scheduler.dep_writers <> []
      then incr dependent_reads);
  let tally = Scheduler.run sched in
  (w, tally, !late, !dependent_reads)

(* Lookups resolve through the commit stamps on both commit paths: locks
   released at the spool (ELR) or at the force (ELR off, or unbatched).
   Either way a lookup that reads a recently committed key must carry
   that writer as a dependency, and no ack may outrun durability. *)
let test_snapshot_reads () =
  let reads =
    List.map
      (fun (elr, batch_max) ->
        let cfg = { read_cfg with S.elr; batch_max } in
        let name = Printf.sprintf "elr=%b batch=%d: " elr batch_max in
        let w, tally, late, dependent_reads = serve_checking_acks cfg in
        check_bool (name ^ "lookups answered") true (tally.Scheduler.reads > 0);
        check_int
          (name ^ "every request committed, answered or shed")
          cfg.S.requests
          (tally.Scheduler.committed + tally.Scheduler.reads
         + tally.Scheduler.shed);
        check_balances cfg w;
        let counters = Registry.counters w.S.obs in
        check_bool (name ^ "snapshot counter tracks") true
          (List.assoc_opt "mvcc.snapshot_reads" counters
          = Some tally.Scheduler.reads);
        check_bool
          (name ^ "early releases exactly when ELR engages")
          (elr && batch_max > 1)
          (match List.assoc_opt "elr.released_early" counters with
          | Some n -> n > 0
          | None -> false);
        Alcotest.(check (option string)) (name ^ "no ack before durability")
          None late;
        check_bool (name ^ "lookups observe committed writers") true
          (dependent_reads > 0);
        tally.Scheduler.reads)
    (* the first configuration is [read_cfg] itself *)
    [ (true, 8); (false, 8); (true, 1); (false, 1) ]
  in
  (* lock-free lookups must ack faster than locked writes at the tail *)
  let r = S.run read_cfg in
  check_bool "reads reported" true (r.S.reads = List.hd reads);
  check_bool "snapshot fraction reported" true
    (r.S.snapshot_read_fraction > 0.);
  check_bool "read p99 below write p99" true
    (r.S.read_p99_latency_us < r.S.p99_latency_us)

(* --- end-to-end: the scheduler runs whatever steps a workload compiles --- *)

let tpca_label (s : Tpca.spec) = Tpca.kind_name s.Tpca.kind

(* A caller's step function over a TPC-A world: every write request
   takes one counter key Exclusive and increments an 8-byte cell. With
   [read_lookups] a lookup takes the key Shared and only reads the cell:
   as a [Run] step its transaction declares no range and commits
   read-only, and with [query] it is a [Query] step that begins no
   transaction at all. Without [read_lookups] it increments like every
   other request. [wrap] rewraps the world's engine before the scheduler
   sees it. Returns the world, the scheduler, the ids compiled as lookups
   and a reader of the cell. *)
let counter_server ?(wrap = Fun.id) ?(query = false) ~read_lookups cfg =
  let w = S.build_world cfg in
  let w = { w with S.engine = wrap w.S.engine } in
  let eng = w.S.engine in
  let addr = Placement.account_addr w.S.placement 0 in
  let counter () =
    Int64.to_int (Bytes.get_int64_le (eng.Engine.load ~addr ~len:8) 0)
  in
  let lookups = Hashtbl.create 64 in
  let steps (s : Tpca.spec) =
    let lookup = s.Tpca.kind = Tpca.Lookup in
    if lookup then Hashtbl.replace lookups s.Tpca.id ();
    if lookup && read_lookups then
      [
        Scheduler.Lock (Lock_mgr.Shared, "counter");
        (if query then Scheduler.Query (fun () -> ignore (counter ()))
         else Scheduler.Run (fun _ -> ignore (counter ())));
      ]
    else
      [
        Scheduler.Lock (Lock_mgr.Exclusive, "counter");
        Scheduler.Run
          (fun tid ->
            eng.Engine.set_range tid ~addr ~len:8;
            let b = Bytes.create 8 in
            Bytes.set_int64_le b 0 (Int64.of_int (counter () + 1));
            eng.Engine.store ~addr b);
      ]
  in
  let gen rng =
    Tpca.make_gen ~read_pct:cfg.S.read_pct ~accounts:cfg.S.accounts
      ~zipf_s:cfg.S.zipf_s ~transfer_pct:cfg.S.transfer_pct ~rng ()
  in
  (w, S.scheduler cfg w ~gen ~steps ~label:tpca_label, lookups, counter)

(* The scheduler interprets no request kind, so the generator's lookups
   compiled as increments commit as writes and none is answered as a
   read. *)
let test_custom_steps () =
  let cfg = { quick_cfg with S.read_pct = 20 } in
  let _, sched, lookups, counter = counter_server ~read_lookups:false cfg in
  let tally = Scheduler.run sched in
  check_bool "the generator drew lookups" true (Hashtbl.length lookups > 0);
  check_int "every request committed" cfg.S.requests tally.Scheduler.committed;
  check_int "no request answered as a read" 0 tally.Scheduler.reads;
  check_int "counter = committed" tally.Scheduler.committed (counter ())

(* --- end-to-end: transactions that write nothing --- *)

let readonly_cfg =
  (* about half the requests read the counter under a Shared lock, right
     behind writers whose early-released commits are not yet forced *)
  {
    S.default_config with
    S.requests = 400;
    S.read_pct = 50;
    S.load = S.Open_loop 60.;
    S.max_queue = 1000;
  }

(* Engine transactions begun and ended through [e], counted. *)
let counting_txns begins ends (e : Engine.t) =
  {
    e with
    Engine.begin_txn =
      (fun ~mode ->
        incr begins;
        e.Engine.begin_txn ~mode);
    end_txn =
      (fun tid ~mode ->
        incr ends;
        e.Engine.end_txn tid ~mode);
  }

(* A lookup that writes nothing commits read-only, whether it ran as a
   [Run] step whose transaction declared no range or as a [Query] step
   that never began one: it stamps no key, takes no batch slot and forces
   nothing, but its ack still waits for every commit it observed. Every
   ack is checked as it leaves: no commit it vouches for may sit above
   the durable horizon, and no read-only request may be named as a
   writer. Only writers land in the batch-size histogram, so its samples
   sum to the writer count. A [Query] lookup calls the engine for no
   transaction, so only the writers begin and end one. *)
let test_readonly_commits () =
  List.iter
    (fun ((elr, batch_max, tps), query) ->
      let cfg =
        { readonly_cfg with S.elr; batch_max; load = S.Open_loop tps }
      in
      let name =
        Printf.sprintf "elr=%b batch=%d %.0f tps, %s lookups: " elr batch_max
          tps
          (if query then "Query" else "Run")
      in
      let begins = ref 0 and ends = ref 0 in
      let w, sched, lookups, counter =
        counter_server ~wrap:(counting_txns begins ends) ~query
          ~read_lookups:true cfg
      in
      let durable = w.S.engine.Engine.durable_lsn in
      let late = ref 0 and vouching = ref 0 in
      Scheduler.set_hooks sched ~on_spool:ignore ~on_ack:(fun r ->
          let d = durable () in
          if r.Scheduler.commit_lsn > d || r.Scheduler.dep_lsn > d then
            incr late;
          if List.exists (Hashtbl.mem lookups) r.Scheduler.dep_writers then
            incr vouching);
      let tally = Scheduler.run sched in
      let writers = cfg.S.requests - Hashtbl.length lookups in
      check_bool (name ^ "the generator drew lookups") true
        (Hashtbl.length lookups > 0);
      check_int (name ^ "acks past the durable horizon") 0 !late;
      check_int (name ^ "acks naming a read-only writer") 0 !vouching;
      check_int
        (name ^ "batch sizes sum to the writers")
        writers
        (int_of_float
           (Rvm_obs.Histogram.sum
              (Registry.histogram w.S.obs "server.batch.size")));
      check_int (name ^ "counter = writers") writers (counter ());
      check_int (name ^ "every request committed") cfg.S.requests
        tally.Scheduler.committed;
      let txns = if query then writers else cfg.S.requests in
      check_int (name ^ "engine transactions begun") txns !begins;
      check_int (name ^ "engine transactions ended") txns !ends)
    (List.concat_map
       (fun c -> [ (c, false); (c, true) ])
       [
         (true, 8, 60.);
         (false, 8, 60.);
         (true, 1, 60.);
         (false, 1, 60.);
         (true, 8, 200.);
       ])

(* A deadlock victim that never began a transaction: plans that only
   read, taking Exclusive on two keys in orders that alternate with the
   request id, under closed-loop sessions with no think time. Victims
   abort without calling the engine, back off and retry, and every
   request commits; the engine begins, ends and aborts nothing. *)
let test_query_deadlock_victim () =
  let cfg =
    {
      quick_cfg with
      S.requests = 60;
      load = S.Closed_loop { sessions = 4; think_us = 0. };
    }
  in
  let begins = ref 0 and ends = ref 0 and aborts = ref 0 in
  let w = S.build_world cfg in
  let e = counting_txns begins ends w.S.engine in
  let e =
    {
      e with
      Engine.abort =
        (fun tid ->
          incr aborts;
          e.Engine.abort tid);
    }
  in
  let w = { w with S.engine = e } in
  let addr = Placement.account_addr w.S.placement 0 in
  let read () = ignore (e.Engine.load ~addr ~len:8) in
  let steps (s : Tpca.spec) =
    let a, b = if s.Tpca.id mod 2 = 0 then ("a", "b") else ("b", "a") in
    [
      Scheduler.Lock (Lock_mgr.Exclusive, a);
      Scheduler.Query read;
      Scheduler.Lock (Lock_mgr.Exclusive, b);
      Scheduler.Query read;
    ]
  in
  let gen rng =
    Tpca.make_gen ~accounts:cfg.S.accounts ~zipf_s:cfg.S.zipf_s
      ~transfer_pct:cfg.S.transfer_pct ~rng ()
  in
  let tally =
    Scheduler.run (S.scheduler cfg w ~gen ~steps ~label:tpca_label)
  in
  check_bool "some request lost a deadlock" true (tally.Scheduler.aborts > 0);
  check_int "every request committed" cfg.S.requests tally.Scheduler.committed;
  check_int "engine transactions begun" 0 !begins;
  check_int "engine transactions ended" 0 !ends;
  check_int "engine aborts" 0 !aborts

(* Read-only commits force nothing but count toward closing the batch:
   under saturation (closed-loop sessions, no think time, so the
   dispatcher never idles) a batch that counted only writers would hold
   each writer while any number of read-only commits went by. The rule
   acts where a force is issued: the force that carries a writer starts
   within [batch_max] commits of the writer's spool, its own included.
   The writer acks when that force lands, by which time at most one more
   batch has filled behind it: a full batch waits for the force in
   flight, so the log disk runs one force at a time. Thirty-two sessions
   as well as sixteen, because sixteen cannot fill the batches a second
   force queued behind the first would need. *)
let test_readonly_batch_rule () =
  let batch_max = 8 in
  List.iter
    (fun sessions ->
      let cfg =
        {
          readonly_cfg with
          S.batch_max;
          load = S.Closed_loop { sessions; think_us = 0. };
        }
      in
      let spooled = ref 0 and spooled_at = Hashtbl.create 64 in
      let unforced = ref [] and at_issue = ref 0 and at_ack = ref 0 in
      let wrap (e : Engine.t) =
        {
          e with
          Engine.flush =
            (fun () ->
              List.iter
                (fun k -> at_issue := max !at_issue (!spooled - k + 1))
                !unforced;
              unforced := [];
              e.Engine.flush ());
        }
      in
      let _, sched, lookups, counter =
        counter_server ~wrap ~read_lookups:true cfg
      in
      Scheduler.set_hooks sched
        ~on_spool:(fun r ->
          incr spooled;
          let id = r.Scheduler.id in
          if not (Hashtbl.mem lookups id) then begin
            Hashtbl.replace spooled_at id !spooled;
            unforced := !spooled :: !unforced
          end)
        ~on_ack:(fun r ->
          match Hashtbl.find_opt spooled_at r.Scheduler.id with
          | Some k -> at_ack := max !at_ack (!spooled - k + 1)
          | None -> ());
      let tally = Scheduler.run sched in
      let name = Printf.sprintf "%d sessions: " sessions in
      check_int (name ^ "every request committed") cfg.S.requests
        tally.Scheduler.committed;
      check_int (name ^ "counter = writers")
        (cfg.S.requests - Hashtbl.length lookups)
        (counter ());
      if !at_issue > batch_max then
        Alcotest.failf
          "%sa writer's force was issued %d commits into its batch \
           (batch_max %d)"
          name !at_issue batch_max;
      if !at_ack > 2 * batch_max then
        Alcotest.failf "%sa writer acked %d commits into its batch (bound %d)"
          name !at_ack (2 * batch_max))
    [ 16; 32 ]

(* An ack waits for its force. The batch force runs on the log disk's
   lane while the dispatcher goes on, so the engine's durable LSN moves
   when the force is issued, long before the disk finishes it. A writer
   may ack only once the first force whose horizon covers its commit LSN
   has ended on the disk, and a read-only request only once the first
   force covering its dependency has. The world's flush is wrapped to
   record each force's end time on the lane and the durable LSN after
   it. Acking at force issue would still put every ack after its sync in
   device-event order, so the crash explorers cannot catch that; only
   the clock can. *)
let test_ack_waits_for_force () =
  List.iter
    (fun (shards, elr) ->
      let cfg = { read_cfg with S.shards; elr; batch_max = 8 } in
      let w = S.build_world cfg in
      let e = w.S.engine in
      let forces = ref [] (* (end_us, durable_lsn), newest first *) in
      let flush () =
        e.Engine.flush ();
        forces :=
          (Rvm_util.Clock.now_us w.S.clock, e.Engine.durable_lsn ())
          :: !forces
      in
      let w = { w with S.engine = { e with Engine.flush } } in
      let sched = S.scheduler_of cfg w in
      (* the end of the oldest force whose horizon covers [lsn] *)
      let covered_at lsn =
        List.fold_left
          (fun acc (end_us, d) -> if d >= lsn then Some end_us else acc)
          None !forces
      in
      let early = ref None and checked = ref 0 in
      let name = Printf.sprintf "%d shard(s), elr %b: " shards elr in
      Scheduler.set_hooks sched ~on_spool:ignore ~on_ack:(fun r ->
          let now = Rvm_util.Clock.now_us w.S.clock in
          List.iter
            (fun (what, lsn) ->
              if lsn > 0 then
                match covered_at lsn with
                | Some end_us when now >= end_us -> incr checked
                | found ->
                  if !early = None then
                    early :=
                      Some
                        (Printf.sprintf
                           "%sreq %d acked at %.0f us, before its %s %d was \
                            forced (%s)"
                           name r.Scheduler.id now what lsn
                           (match found with
                           | Some end_us -> Printf.sprintf "at %.0f us" end_us
                           | None -> "by no force yet")))
            [ ("commit", r.Scheduler.commit_lsn); ("dependency", r.Scheduler.dep_lsn) ]);
      let tally = Scheduler.run sched in
      Option.iter Alcotest.fail !early;
      check_int (name ^ "every request acked") cfg.S.requests
        (tally.Scheduler.committed + tally.Scheduler.reads);
      check_bool (name ^ "acks were checked") true (!checked > 0))
    [ (1, true); (1, false); (2, true); (2, false) ]

(* The batcher is the one bound on unforced work: it forces the log every
   [batch_max] commits, so between quanta no shard engine ever holds more
   than one batch of no-flush records in its spool. TPC-A worlds with 64
   in flight and 20% lookups, at batch sizes up to the deepest a caller
   sets (64, here under saturation), on one, two and four shards, with
   ELR on and off. [peak] is the deepest spool each world reaches:
   unbatched commits never spool, one shard fills its batch, several
   shards split it. *)
let test_spool_bounded_by_batch () =
  List.iter
    (fun (shards, batch_max, load, elr, peak) ->
      let cfg =
        {
          S.default_config with
          S.shards;
          batch_max;
          load;
          elr;
          requests = 3_000;
          max_inflight = 64;
          read_pct = 20;
        }
      in
      let name =
        Printf.sprintf "%d shard(s), batch %d, %s, elr %b: " shards batch_max
          (S.load_name load) elr
      in
      let w = S.build_world cfg in
      let engines =
        match w.S.backend with
        | S.Single r -> [ r ]
        | S.Sharded m -> List.init (Multi.shard_count m) (Multi.shard m)
      in
      let sched = S.scheduler_of cfg w in
      let deepest = ref 0 in
      Scheduler.set_on_quantum sched (fun () ->
          List.iter
            (fun r ->
              deepest :=
                max !deepest (Rvm_core.Rvm.query r).Rvm_core.Rvm.spool_records)
            engines);
      ignore (Scheduler.run sched);
      if !deepest > batch_max then
        Alcotest.failf "%sa spool held %d records (batch_max %d)" name
          !deepest batch_max;
      check_int (name ^ "deepest spool") peak !deepest)
    [
      (1, 1, S.Open_loop 160., true, 0);
      (1, 8, S.Open_loop 160., true, 8);
      (1, 64, S.Open_loop 2000., true, 64);
      (2, 64, S.Open_loop 2000., true, 23);
      (4, 64, S.Open_loop 2000., true, 13);
      (1, 16, S.Closed_loop { sessions = 64; think_us = 0. }, false, 16);
      (2, 16, S.Closed_loop { sessions = 64; think_us = 0. }, true, 12);
    ]

(* The allocation budget of one scheduler quantum: minor words per
   [Scheduler.run] iteration over a whole read-heavy run on the counter
   world, engine commits and forces included. 38.5 words per iteration
   on OCaml 5.1.1; 74.1 while each quantum requeued through a fresh queue
   cell, polled arrivals and truncation through options and boxed
   floats, and each lock grant built closures. The bound leaves
   headroom for allocation differences between compiler versions. *)
let test_quantum_allocation () =
  let _, sched, _, _ = counter_server ~read_lookups:true readonly_cfg in
  let w0 = Gc.minor_words () in
  let tally = Scheduler.run sched in
  let per_iteration =
    (Gc.minor_words () -. w0) /. float_of_int tally.Scheduler.iterations
  in
  if per_iteration > 48. then
    Alcotest.failf "%.1f minor words per scheduler quantum (bound 48)"
      per_iteration

(* --- the one opener: Engine.initialize and S.open_world --- *)

(* A formatted log and a segment per shard. *)
let shard_devices n =
  let mem () = Rvm_disk.Mem_device.create ~size:(64 * 1024) () in
  let logs = Array.init n (fun _ -> mem ()) in
  let segs = Array.init n (fun _ -> mem ()) in
  Multi.create_logs logs;
  (logs, segs)

let test_engine_one_log () =
  let logs, segs = shard_devices 1 in
  let eng, backend = Engine.initialize ~logs ~segs () in
  check_int "one shard" 1 eng.Engine.shards;
  check_bool "the single-log engine" true
    (match backend with Engine.Single _ -> true | Engine.Sharded _ -> false);
  let _, two_segs = shard_devices 2 in
  match Engine.initialize ~logs ~segs:two_segs () with
  | _ -> Alcotest.fail "opened one log with two segments"
  | exception Invalid_argument _ -> ()

(* On two logs a region mapped on shard 1 is the sharded engine's shard 1:
   a flushed commit to it writes log 1 alone, and recovery on the same
   devices replays it into segment 1 alone and reads it back. *)
let test_engine_two_logs () =
  let logs, segs = shard_devices 2 in
  let eng, backend = Engine.initialize ~logs ~segs () in
  check_int "two shards" 2 eng.Engine.shards;
  let m =
    match backend with
    | Engine.Sharded m -> m
    | Engine.Single _ -> Alcotest.fail "expected the sharded engine"
  in
  let map backend =
    (Engine.map backend ~shard:1 ~seg_off:0 ~len:4096 ()).Rvm_core.Region.vaddr
  in
  let addr = map backend in
  check_int "mapped on shard 1" 1 (Multi.shard_of_addr m ~addr);
  let writes devs =
    Array.map (fun (d : Rvm_disk.Device.t) -> d.stats.Rvm_disk.Device.writes)
      devs
  in
  let before = writes logs in
  let tid = eng.Engine.begin_txn ~mode:Rvm_core.Types.No_restore in
  eng.Engine.set_range tid ~addr ~len:5;
  eng.Engine.store ~addr (Bytes.of_string "hello");
  eng.Engine.end_txn tid ~mode:Rvm_core.Types.Flush;
  let after = writes logs in
  check_int "log 0 not written" before.(0) after.(0);
  check_bool "log 1 written" true (after.(1) > before.(1));
  let before = writes segs in
  let eng, backend = Engine.initialize ~logs ~segs () in
  let after = writes segs in
  check_int "segment 0 not written" before.(0) after.(0);
  check_bool "segment 1 written" true (after.(1) > before.(1));
  Alcotest.(check string)
    "recovered" "hello"
    (Bytes.to_string (eng.Engine.load ~addr:(map backend) ~len:5))

(* One log for two shards would map both shards' layouts onto it. *)
let test_open_world_log_count () =
  List.iter
    (fun (shards, logs) ->
      let cfg = { S.default_config with S.accounts = 8; S.shards } in
      let logs, segs = shard_devices logs in
      match
        S.open_world cfg ~clock:(Rvm_util.Clock.simulated ())
          ~obs:(Registry.create ()) ~logs ~segs
      with
      | _ ->
        Alcotest.failf "opened %d shards on %d logs" shards (Array.length logs)
      | exception Invalid_argument _ -> ())
    [ (2, 1); (1, 2); (2, 3) ]

(* --- end-to-end: the sharded server --- *)

let sharded_cfg =
  (* enough transfer traffic over interleaved accounts that many requests
     cross shards, and hot enough that some deadlock and retry *)
  {
    S.default_config with
    S.accounts = 16;
    S.shards = 2;
    S.zipf_s = 0.9;
    S.transfer_pct = 60;
    S.requests = 150;
    S.load = S.Open_loop 80.;
    S.batch_max = 4;
    S.max_queue = 400;
  }

let test_sharded_balances_and_cross_commits () =
  let w, tally = S.run_with_world sharded_cfg in
  check_int "all committed" sharded_cfg.S.requests tally.Scheduler.committed;
  check_balances sharded_cfg w;
  match w.S.backend with
  | S.Single _ -> Alcotest.fail "expected a sharded backend"
  | S.Sharded m ->
    check_int "two shards" 2 (Multi.shard_count m);
    check_bool "cross-shard transactions committed" true
      (Multi.cross_committed m > 0)

let test_sharded_deterministic () =
  let r1 = S.run sharded_cfg and r2 = S.run sharded_cfg in
  check_bool "identical results" true (r1 = r2);
  check_bool "cross commits counted" true (r1.S.cross_committed > 0)

let test_sharded_payments_never_cross () =
  (* co-location at work: with no transfers, every request is a Payment
     and commits single-shard even on a 4-shard world *)
  let cfg =
    {
      sharded_cfg with
      S.shards = 4;
      S.transfer_pct = 0;
      S.accounts = 32;
      S.requests = 120;
    }
  in
  let w, tally = S.run_with_world cfg in
  check_int "all committed" cfg.S.requests tally.Scheduler.committed;
  check_balances cfg w;
  match w.S.backend with
  | S.Single _ -> Alcotest.fail "expected a sharded backend"
  | S.Sharded m ->
    check_int "no cross-shard traffic" 0
      (Multi.cross_committed m + Multi.cross_aborted m)

let test_sharded_batching_fewer_syncs () =
  let base = { sharded_cfg with S.load = S.Open_loop 40. } in
  let r1 = S.run { base with S.batch_max = 1 } in
  let r8 = S.run { base with S.batch_max = 8 } in
  check_bool "batched strictly fewer syncs/commit on shards" true
    (r8.S.syncs_per_commit < r1.S.syncs_per_commit);
  check_bool "batched commits no fewer requests" true
    (r8.S.committed >= r1.S.committed)

(* --- end-to-end: background truncation on the scheduler's quantum loop --- *)

(* A log small enough that 200 requests wrap it several times over: with
   [background_truncation] on (the default), reclamation happens in bounded
   truncator steps from the scheduler's background slot, observable in the
   [truncation.steps.per.quantum] and [truncation.pause.us] histograms —
   and the run must still commit everything and match the serial
   reference. With it off, the engine's inline commit-path trigger does
   the reclaiming (classic behavior), the background histograms stay
   empty, and the balances agree. *)
let trunc_cfg =
  {
    S.default_config with
    S.requests = 200;
    S.load = S.Open_loop 80.;
    S.log_size = 16 * 1024;
    S.batch_max = 4;
    S.max_queue = 400;
  }

let test_background_truncation_run () =
  let module Histogram = Rvm_obs.Histogram in
  let steps_hist w =
    match
      List.assoc_opt "truncation.steps.per.quantum"
        (Registry.histograms w.S.obs)
    with
    | Some h -> Histogram.count h
    | None -> 0
  in
  let w_bg, tally_bg = S.run_with_world trunc_cfg in
  check_int "all committed with background truncation" trunc_cfg.S.requests
    tally_bg.Scheduler.committed;
  check_balances trunc_cfg w_bg;
  check_bool "background steps observed" true (steps_hist w_bg > 0);
  let pause_count =
    match
      List.assoc_opt "truncation.pause.us" (Registry.histograms w_bg.S.obs)
    with
    | Some h -> Histogram.count h
    | None -> 0
  in
  check_bool "pause histogram populated" true (pause_count > 0);
  let off = { trunc_cfg with S.background_truncation = false } in
  let w_off, tally_off = S.run_with_world off in
  check_int "all committed with inline truncation" off.S.requests
    tally_off.Scheduler.committed;
  check_balances off w_off;
  check_int "no background steps when disabled" 0 (steps_hist w_off)

(* Background truncation keeps the tail of an unwrapped run: the
   truncator's segment syncs occupy its data disk, not the dispatcher, so
   a log that wraps several times serves within 1.25x of the p99 of one
   that never truncates. *)
let test_truncation_tail () =
  let serve log_size =
    let cfg =
      {
        S.default_config with
        S.requests = 200;
        S.load = S.Open_loop 80.;
        S.batch_max = 4;
        S.log_size;
      }
    in
    let w = S.build_world cfg in
    let r = S.reduce cfg w (S.serve w (S.scheduler_of cfg w)) in
    let steps =
      match
        List.assoc_opt "truncation.steps.per.quantum"
          (Registry.histograms w.S.obs)
      with
      | Some h -> Rvm_obs.Histogram.count h
      | None -> 0
    in
    (r.S.p99_latency_us, steps)
  in
  let wrapped, wrapped_steps = serve (64 * 1024) in
  let unwrapped, unwrapped_steps = serve (4 * 1024 * 1024) in
  check_bool "the small log ran truncation steps" true (wrapped_steps > 0);
  check_int "the large log ran none" 0 unwrapped_steps;
  check_bool
    (Printf.sprintf "p99 %.0f us within 1.25x of the unwrapped %.0f us"
       wrapped unwrapped)
    true
    (wrapped <= 1.25 *. unwrapped)

(* --- end-to-end: req.root parents txn.commit in the trace --- *)

let test_trace_parenting () =
  let cfg = { quick_cfg with S.requests = 40 } in
  let w = S.build_world cfg in
  Registry.set_trace_capacity w.S.obs 65536;
  let tally = Scheduler.run (S.scheduler_of cfg w) in
  check_int "all committed" 40 tally.Scheduler.committed;
  let events = Registry.events w.S.obs in
  let by_id = Hashtbl.create 256 in
  List.iter
    (fun (e : Registry.span_event) -> Hashtbl.replace by_id e.id e)
    events;
  let roots = List.filter (fun (e : Registry.span_event) -> e.scope = "req.root") events in
  let commits =
    List.filter (fun (e : Registry.span_event) -> e.scope = "txn.commit") events
  in
  check_int "one req.root per request" 40 (List.length roots);
  check_int "one txn.commit per request" 40 (List.length commits);
  (* Each req.root names its request's kind through TPC-A's label. *)
  let specs = Array.of_list (replay_specs cfg) in
  List.iter
    (fun (e : Registry.span_event) ->
      match (List.assoc_opt "req" e.attrs, List.assoc_opt "kind" e.attrs) with
      | Some (Rvm_obs.Trace.Int id), Some (Rvm_obs.Trace.String kind) ->
        Alcotest.(check string)
          (Printf.sprintf "kind of request %d" id)
          (Tpca.kind_name specs.(id).Tpca.kind)
          kind
      | _ -> Alcotest.fail "req.root lacks its req or kind attribute")
    roots;
  List.iter
    (fun (c : Registry.span_event) ->
      match c.parent with
      | None -> Alcotest.fail "txn.commit has no parent span"
      | Some pid -> (
        match Hashtbl.find_opt by_id pid with
        | Some (p : Registry.span_event) ->
          Alcotest.(check string) "txn.commit parented by req.root" "req.root"
            p.scope
        | None -> Alcotest.fail "txn.commit parent span not retained"))
    commits

(* --- property: random arrival orders neither hang nor corrupt --- *)

let gen_cfg =
  QCheck.Gen.(
    int_range 1 10_000 >>= fun seed ->
    int_range 4 64 >>= fun accounts ->
    frequency [ (2, return 1); (2, return 2); (1, return 3) ] >>= fun shards ->
    int_range 0 100 >>= fun transfer_pct ->
    int_range 0 15 >>= fun zipf_tenths ->
    frequency [ (1, return 1); (3, int_range 2 16) ] >>= fun batch_max ->
    int_range 1 12 >>= fun max_inflight ->
    int_range 10 60 >>= fun requests ->
    frequency
      [
        (3, map (fun t -> S.Open_loop (float_of_int t)) (int_range 5 300));
        ( 1,
          map
            (fun s -> S.Closed_loop { sessions = s; think_us = 20_000. })
            (int_range 1 8) );
      ]
    >>= fun load ->
    return
      {
        S.default_config with
        S.seed = Int64.of_int seed;
        accounts;
        shards;
        transfer_pct;
        zipf_s = float_of_int zipf_tenths /. 10.;
        batch_max;
        max_inflight;
        requests;
        load;
        (* deep queue: nothing sheds, so the serial reference covers
           every generated request *)
        max_queue = 1000;
      })

let print_cfg (c : S.config) =
  Printf.sprintf
    "{seed=%Ld accounts=%d shards=%d transfer=%d%% zipf=%.1f batch=%d \
     inflight=%d requests=%d load=%s}"
    c.S.seed c.S.accounts c.S.shards c.S.transfer_pct c.S.zipf_s c.S.batch_max
    c.S.max_inflight c.S.requests (S.load_name c.S.load)

let prop_no_hang_and_serial_balances =
  QCheck.Test.make
    ~name:"server: random arrival orders terminate and match serial reference"
    ~count:40
    (QCheck.make ~print:print_cfg gen_cfg)
    (fun cfg ->
      let w, tally = S.run_with_world cfg in
      (* no hang: run returned within the scheduler's iteration budget
         (Scheduler.Stuck would have raised), and everything committed *)
      if tally.Scheduler.committed <> cfg.S.requests then
        QCheck.Test.fail_reportf "committed %d of %d (shed %d)"
          tally.Scheduler.committed cfg.S.requests tally.Scheduler.shed;
      check_balances cfg w;
      true)

(* Same serial-reference property, but with the contention-relief machinery
   randomly exercised: early lock release on or off, a random lookup share,
   and skews reaching into the hot-key regime where ELR actually reorders
   lock handoff relative to the force. Whatever the interleaving, committed
   plus answered must account for every request and balances must match the
   commutative serial reference — i.e. releasing locks at spool time never
   leaks an unforced write into another transaction's committed state. *)
let gen_elr_cfg =
  QCheck.Gen.(
    gen_cfg >>= fun cfg ->
    bool >>= fun elr ->
    int_range 0 50 >>= fun read_pct ->
    return { cfg with S.elr; read_pct })

let print_elr_cfg (c : S.config) =
  Printf.sprintf "%s elr=%b read_pct=%d" (print_cfg c) c.S.elr c.S.read_pct

let prop_elr_serial_balances =
  QCheck.Test.make
    ~name:
      "server: ELR and snapshot reads preserve the serial reference across \
       skew/batch/shards"
    ~count:40
    (QCheck.make ~print:print_elr_cfg gen_elr_cfg)
    (fun cfg ->
      let w, tally, late, _ = serve_checking_acks cfg in
      if
        tally.Scheduler.committed + tally.Scheduler.reads <> cfg.S.requests
      then
        QCheck.Test.fail_reportf "committed %d + reads %d <> %d (shed %d)"
          tally.Scheduler.committed tally.Scheduler.reads cfg.S.requests
          tally.Scheduler.shed;
      Option.iter (QCheck.Test.fail_reportf "ack before durability: %s") late;
      check_balances cfg w;
      true)

let suite =
  [
    ("server.sort-floats", `Quick, test_sort_floats);
    ("admission.caps", `Quick, test_admission_caps);
    ("admission.double-release-idempotent", `Quick, test_admission_double_release);
    ("batcher.fifo", `Quick, test_batcher_fifo);
    ("arrivals.open-loop-deterministic", `Quick, test_arrivals_deterministic);
    ("arrivals.closed-loop-think", `Quick, test_arrivals_closed_loop_think);
    ("server.run-deterministic", `Quick, test_run_deterministic);
    ("server.batched-fewer-syncs", `Quick, test_batched_fewer_syncs);
    ("server.shed-only-beyond-limit", `Quick, test_shed_only_beyond_limit);
    ("server.deadlock-abort-retry", `Quick, test_deadlock_abort_retry);
    ("server.snapshot-reads", `Quick, test_snapshot_reads);
    ("server.custom-steps", `Quick, test_custom_steps);
    ("server.readonly-commits", `Quick, test_readonly_commits);
    ("server.query-deadlock-victim", `Quick, test_query_deadlock_victim);
    ("server.readonly-batch-rule", `Quick, test_readonly_batch_rule);
    ("server.ack-waits-for-its-force", `Quick, test_ack_waits_for_force);
    ("server.spool-bounded-by-batch", `Quick, test_spool_bounded_by_batch);
    ("server.quantum-allocation", `Quick, test_quantum_allocation);
    ("engine.initialize-one-log", `Quick, test_engine_one_log);
    ("engine.initialize-two-logs", `Quick, test_engine_two_logs);
    ("server.open-world-log-count", `Quick, test_open_world_log_count);
    ( "server.balances-match-serial-reference",
      `Quick,
      test_balances_match_serial_reference );
    ( "server.sharded-balances-and-cross-commits",
      `Quick,
      test_sharded_balances_and_cross_commits );
    ("server.sharded-deterministic", `Quick, test_sharded_deterministic);
    ( "server.sharded-payments-never-cross",
      `Quick,
      test_sharded_payments_never_cross );
    ( "server.sharded-batching-fewer-syncs",
      `Quick,
      test_sharded_batching_fewer_syncs );
    ( "server.background-truncation-run",
      `Quick,
      test_background_truncation_run );
    ("server.truncation-tail", `Quick, test_truncation_tail);
    ("server.trace-parents-commits", `Quick, test_trace_parenting);
    QCheck_alcotest.to_alcotest prop_no_hang_and_serial_balances;
    QCheck_alcotest.to_alcotest prop_elr_serial_balances;
  ]
