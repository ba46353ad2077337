(* Causal structured tracing: the Trace ring itself, the engine's span
   plumbing (every device op rooted under the transaction that caused it),
   simulated-clock span durations, and the Chrome trace_event exporter. *)

open Rvm_obs
open Rvm_core
module Clock = Rvm_util.Clock
module Cost_model = Rvm_util.Cost_model
module Mem_device = Rvm_disk.Mem_device
module Stack = Rvm_disk.Stack

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* --- the Trace ring --- *)

let test_causality () =
  let t = Trace.create ~capacity:16 () in
  Trace.enter t ~now:0. "outer";
  check_int "outer is open" 1 (Trace.depth t);
  Trace.enter t ~now:10. ~attrs:[ ("k", Trace.Int 7) ] "inner";
  Trace.add_attr t "late" (Trace.String "v");
  let inner = Trace.exit t ~now:25. in
  check_str "inner scope" "inner" inner.Trace.scope;
  Alcotest.(check (float 1e-9)) "inner duration" 15. inner.Trace.dur_us;
  check_bool "inner's parent is outer" true (inner.Trace.parent <> None);
  Alcotest.(check (list (pair string bool)))
    "attrs in call order"
    [ ("k", true); ("late", true) ]
    (List.map (fun (k, _) -> (k, true)) inner.Trace.attrs);
  Trace.instant t ~now:30. "point";
  let outer = Trace.exit t ~now:40. in
  check_bool "outer is a root" true (outer.Trace.parent = None);
  (* Children close (and are recorded) before parents. *)
  let scopes = List.map (fun s -> s.Trace.scope) (Trace.events t) in
  Alcotest.(check (list string)) "close order" [ "inner"; "point"; "outer" ]
    scopes;
  let by_scope n =
    List.find (fun s -> s.Trace.scope = n) (Trace.events t)
  in
  check_bool "ids are unique" true
    ((by_scope "inner").Trace.id <> (by_scope "outer").Trace.id);
  Alcotest.(check (option int)) "inner points at outer"
    (Some (by_scope "outer").Trace.id)
    (by_scope "inner").Trace.parent;
  Alcotest.(check (option int)) "instant points at outer"
    (Some (by_scope "outer").Trace.id)
    (by_scope "point").Trace.parent;
  check_bool "exit with nothing open raises" true
    (match Trace.exit t ~now:50. with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_ring_resize () =
  let t = Trace.create ~capacity:4 () in
  for i = 1 to 6 do
    Trace.enter t ~now:(float_of_int i) (Printf.sprintf "s%d" i);
    ignore (Trace.exit t ~now:(float_of_int i))
  done;
  let scopes () = List.map (fun s -> s.Trace.scope) (Trace.events t) in
  Alcotest.(check (list string)) "newest 4 retained"
    [ "s3"; "s4"; "s5"; "s6" ] (scopes ());
  check_int "seq counts everything" 6 (Trace.seq t);
  Trace.set_capacity t 2;
  Alcotest.(check (list string)) "shrink keeps newest" [ "s5"; "s6" ]
    (scopes ());
  Trace.set_capacity t 8;
  Alcotest.(check (list string)) "grow preserves contents" [ "s5"; "s6" ]
    (scopes ());
  Trace.enter t ~now:7. "s7";
  ignore (Trace.exit t ~now:7.);
  Alcotest.(check (list string)) "recording continues after resize"
    [ "s5"; "s6"; "s7" ] (scopes ());
  Trace.clear t;
  check_int "clear drops retained" 0 (List.length (Trace.events t));
  check_int "clear keeps the cursor" 7 (Trace.seq t)

(* Every span the ring hands back — through [events], [events_since]
   cursors, across wrap-around and both directions of [set_capacity] —
   equals the one [exit] returned (or the one [instant] described) when
   it closed. *)
let test_ring_readback () =
  let t = Trace.create ~capacity:8 () in
  let recorded = ref [] (* every finished span, newest first *) in
  let next_id = ref 1 in
  let step i =
    let now = float_of_int (10 * i) in
    if i mod 5 = 4 then begin
      let attrs = [ ("i", Trace.Int i); ("tag", Trace.String "pt") ] in
      Trace.instant t ~now ~attrs "point";
      recorded :=
        { Trace.id = !next_id; parent = Trace.current t; scope = "point";
          start_us = now; dur_us = 0.; attrs }
        :: !recorded;
      incr next_id
    end
    else begin
      Trace.enter t ~now ~attrs:[ ("i", Trace.Int i) ] "child";
      incr next_id;
      if i mod 3 = 0 then Trace.add_attr t "odd" (Trace.Bool (i mod 2 = 1));
      recorded := Trace.exit t ~now:(now +. 2.5) :: !recorded
    end
  in
  let newest n =
    let rec take k = function
      | x :: r when k > 0 -> x :: take (k - 1) r
      | _ -> []
    in
    List.rev (take n !recorded)
  in
  let check_retained what =
    check_bool what true (Trace.events t = newest (Trace.length t))
  in
  Trace.enter t ~now:0. "root";
  incr next_id;
  let cursor = ref 0 in
  for i = 0 to 29 do
    step i;
    check_retained (Printf.sprintf "retained after span %d" i);
    if i mod 4 = 3 then begin
      let fresh, c = Trace.events_since t !cursor in
      check_bool "cursor yields exactly the new spans" true
        (fresh = newest (min (Trace.length t) (c - !cursor)));
      cursor := c
    end
  done;
  check_int "full ring" 8 (Trace.length t);
  Trace.set_capacity t 3;
  check_retained "after shrink";
  Trace.set_capacity t 16;
  check_retained "after grow";
  for i = 30 to 49 do
    step i
  done;
  check_int "refilled after grow" 16 (Trace.length t);
  check_retained "after refill";
  let fresh, _ = Trace.events_since t !cursor in
  check_bool "stale cursor yields everything retained" true
    (fresh = Trace.events t);
  let root = Trace.exit t ~now:1000. in
  check_bool "the root comes back last" true
    (List.rev (Trace.events t) |> List.hd = root)

(* Recording into a full ring stores fields in place: no per-span record
   is written into the ring, so the minor GC promotes nothing. Here the
   allocation left per span is the record [exit] returns; a registry span
   closes through [close], which returns only the duration. *)
let test_ring_allocation () =
  let t = Trace.create ~capacity:512 () in
  let record n =
    for i = 1 to n do
      let now = float_of_int i in
      Trace.enter t ~now "span";
      ignore (Sys.opaque_identity (Trace.exit t ~now))
    done
  in
  record 512;
  Gc.minor ();
  let minor0 = Gc.minor_words () in
  let promoted0 = (Gc.quick_stat ()).Gc.promoted_words in
  record 10_000;
  Gc.minor ();
  let minor = Gc.minor_words () -. minor0 in
  let promoted = (Gc.quick_stat ()).Gc.promoted_words -. promoted0 in
  if minor > 20. *. 10_000. then
    Alcotest.failf "%.0f minor words for 10k spans (bound 20 per span)" minor;
  if promoted > 1_000. then
    Alcotest.failf "%.0f words promoted recording 10k spans (bound 1000)"
      promoted

(* --- simulated-clock spans (Registry.set_time_source) --- *)

let test_sim_clock_nested_spans () =
  let clock = Clock.simulated () in
  let reg = Registry.create ~trace_capacity:32 () in
  Registry.set_time_source reg (fun () -> Clock.now_us clock);
  Registry.span reg "outer" (fun () ->
      Clock.charge_cpu clock 100.;
      Registry.span reg "inner" (fun () -> Clock.charge_cpu clock 40.);
      Clock.charge_cpu clock 10.);
  let find n = List.find (fun s -> s.Trace.scope = n) (Registry.events reg) in
  let outer = find "outer" and inner = find "inner" in
  Alcotest.(check (float 1e-9)) "inner spans 40 simulated us" 40.
    inner.Trace.dur_us;
  Alcotest.(check (float 1e-9)) "outer spans the sum" 150. outer.Trace.dur_us;
  Alcotest.(check (float 1e-9)) "inner starts 100us in" 100.
    inner.Trace.start_us;
  Alcotest.(check (option int)) "causality under the simulated clock"
    (Some outer.Trace.id) inner.Trace.parent;
  (* The span histograms see the same simulated durations. *)
  Alcotest.(check (float 1e-9)) "histogram in simulated us" 40.
    (Histogram.sum (Registry.histogram reg "inner.us"))

(* A full engine round with the simulated clock and a latency-modeled log
   device: a group-commit drain advances simulated time mid-transaction,
   and the spans both nest correctly and measure that simulated time. *)
let test_sim_clock_across_drain () =
  let clock = Clock.simulated () in
  let model = Cost_model.dec5000 in
  let log_mem = Mem_device.create ~size:(256 * 1024) () in
  Rvm.create_log log_mem;
  let log_dev =
    Stack.with_latency ~clock ~disk:model.Cost_model.log_disk () log_mem
  in
  let seg_dev = Mem_device.create ~size:8192 () in
  let obs = Registry.create ~trace_capacity:1024 () in
  let rvm =
    Rvm.initialize ~clock ~model ~obs ~log:log_dev
      ~resolve:(fun _ -> seg_dev)
      ()
  in
  let region = Rvm.map rvm ~seg:1 ~seg_off:0 ~len:8192 () in
  let base = region.Region.vaddr in
  for i = 0 to 3 do
    let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
    Rvm.modify rvm tid ~addr:(base + (i * 512)) (Bytes.make 200 'x');
    Rvm.end_transaction rvm tid
      ~mode:(if i < 3 then Types.No_flush else Types.Flush)
  done;
  let spans = Registry.events obs in
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.Trace.id s) spans;
  let rec root s =
    match s.Trace.parent with
    | None -> s
    | Some p -> (
      match Hashtbl.find_opt by_id p with None -> s | Some ps -> root ps)
  in
  let drain =
    List.find (fun s -> s.Trace.scope = "log.drain") spans
  and force = List.find (fun s -> s.Trace.scope = "log.force") spans
  and sync = List.find (fun s -> s.Trace.scope = "disk.log.sync") spans in
  check_str "drain is caused by the closing commit" "txn.commit"
    (root drain).Trace.scope;
  check_str "force is caused by the closing commit" "txn.commit"
    (root force).Trace.scope;
  Alcotest.(check (option int)) "device sync nests under log.force"
    (Some force.Trace.id) sync.Trace.parent;
  (* The latency model charges the simulated clock for the sync, and the
     clock advance is visible through every enclosing span. *)
  check_bool "sync takes simulated time" true (sync.Trace.dur_us > 0.);
  check_bool "force covers the sync" true
    (force.Trace.dur_us >= sync.Trace.dur_us);
  check_bool "commit covers the force" true
    ((root force).Trace.dur_us >= force.Trace.dur_us);
  (* The drain advanced simulated time before the force's sync began. *)
  check_bool "time advances across the drain" true
    (sync.Trace.start_us >= drain.Trace.start_us +. drain.Trace.dur_us);
  Rvm.terminate rvm

(* --- the attributes the engine's hot spans carry --- *)

let pp_value ppf = function
  | Trace.Bool b -> Format.fprintf ppf "Bool %b" b
  | Trace.Int i -> Format.fprintf ppf "Int %d" i
  | Trace.Float f -> Format.fprintf ppf "Float %g" f
  | Trace.String s -> Format.fprintf ppf "String %S" s

let attr_list = Alcotest.(list (pair string (testable pp_value ( = ))))

(* One No_flush commit of two 128-byte ranges and the Flush that writes
   it, on an engine with the default 512-span flight recorder: each hot
   span of the cycle reads back its attributes, keys, values and order
   intact. The cycle repeats until the ring has wrapped many times, and
   every cycle is checked. *)
let test_engine_attrs () =
  let log = Mem_device.create ~size:(1024 * 1024) () in
  Rvm.create_log log;
  let seg = Mem_device.create ~size:(64 * 1024) () in
  let rvm = Rvm.initialize ~log ~resolve:(fun _ -> seg) () in
  let obs = Rvm.obs rvm in
  check_int "default recorder" 512 (Registry.trace_capacity obs);
  let base = (Rvm.map rvm ~seg:1 ~seg_off:0 ~len:(64 * 1024) ()).Region.vaddr in
  let data = Bytes.make 128 'a' in
  let record_bytes = 39 + (2 * (32 + 128)) + 20 in
  let cycle i =
    let addr = base + (i mod 32 * 2048) in
    let tid = Rvm.begin_transaction rvm ~mode:Types.No_restore in
    Rvm.modify rvm tid ~addr data;
    Rvm.modify rvm tid ~addr:(addr + 1024) data;
    Rvm.end_transaction rvm tid ~mode:Types.No_flush;
    (* The record is spooled in the engine: the drain writes it at the
       log's tail. *)
    let off = Rvm_log.Log_manager.tail (Rvm.log_manager rvm) in
    Rvm.flush rvm;
    let newest scope =
      match
        List.rev
          (List.filter (fun s -> s.Trace.scope = scope) (Registry.events obs))
      with
      | s :: _ -> s.Trace.attrs
      | [] -> Alcotest.failf "cycle %d: no %s span retained" i scope
    in
    let check scope expected =
      Alcotest.check attr_list (Printf.sprintf "cycle %d: %s" i scope) expected
        (newest scope)
    in
    check "txn.begin"
      [ ("txn_id", Trace.Int tid); ("mode", Trace.String "no-restore") ];
    check "txn.commit"
      [
        ("txn_id", Trace.Int tid);
        ("mode", Trace.String "no-restore");
        ("commit", Trace.String "no-flush");
      ];
    check "commit.encode"
      [ ("ranges", Trace.Int 2); ("bytes", Trace.Int (2 * (32 + 128))) ];
    check "log.drain"
      [ ("bytes", Trace.Int record_bytes); ("writes", Trace.Int 1) ];
    check "log.force" [ ("records", Trace.Int 1) ];
    check "disk.log.write"
      [ ("off", Trace.Int off); ("bytes", Trace.Int record_bytes) ]
  in
  for i = 0 to 399 do
    cycle i
  done;
  check_bool "the ring wrapped" true
    (Registry.trace_seq obs > 4 * Registry.trace_capacity obs);
  (* Every retained span, not only the newest of each scope, reads back
     its keys in order. *)
  let keys =
    [
      ("txn.begin", [ "txn_id"; "mode" ]);
      ("txn.commit", [ "txn_id"; "mode"; "commit" ]);
      ("commit.encode", [ "ranges"; "bytes" ]);
      ("log.drain", [ "bytes"; "writes" ]);
      ("log.force", [ "records" ]);
      ("disk.log.write", [ "off"; "bytes" ]);
    ]
  in
  List.iter
    (fun s ->
      match List.assoc_opt s.Trace.scope keys with
      | Some expected ->
        Alcotest.(check (list string))
          (Printf.sprintf "span #%d %s keys" s.Trace.id s.Trace.scope)
          expected (List.map fst s.Trace.attrs)
      | None -> ())
    (Registry.events obs)

(* --- engine causality + the Chrome exporter --- *)

(* Run a no-flush/flush batched workload plus an abort, snapshot the spans
   (before terminate — shutdown's drain belongs to no transaction), and
   check the paper-trail property end to end: in the exported Chrome JSON
   every log.drain and disk.log.sync complete-event chains up to exactly
   one transaction root. *)
let traced_workload () =
  let log_dev = Mem_device.create ~size:(512 * 1024) () in
  Rvm.create_log log_dev;
  let seg_dev = Mem_device.create ~size:(16 * 1024) () in
  let obs = Registry.create ~trace_capacity:4096 () in
  let rvm =
    Rvm.initialize ~obs ~log:log_dev ~resolve:(fun _ -> seg_dev) ()
  in
  let region = Rvm.map rvm ~seg:1 ~seg_off:0 ~len:(16 * 1024) () in
  let base = region.Region.vaddr in
  for i = 1 to 12 do
    let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
    Rvm.modify rvm tid ~addr:(base + (i * 1024)) (Bytes.make 300 'y');
    Rvm.end_transaction rvm tid
      ~mode:(if i mod 4 = 0 then Types.Flush else Types.No_flush)
  done;
  let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
  Rvm.modify rvm tid ~addr:base (Bytes.make 64 'z');
  Rvm.abort_transaction rvm tid;
  let spans = Registry.events obs in
  Rvm.terminate rvm;
  spans

let test_engine_causality () =
  let spans = traced_workload () in
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.Trace.id s) spans;
  let rec txn_root s =
    if s.Trace.scope = "txn.commit" || s.Trace.scope = "txn.abort" then Some s
    else
      match s.Trace.parent with
      | None -> None
      | Some p -> Option.bind (Hashtbl.find_opt by_id p) txn_root
  in
  let commits =
    List.filter (fun s -> s.Trace.scope = "txn.commit") spans
  in
  check_int "one commit span per transaction" 12 (List.length commits);
  check_int "one abort span" 1
    (List.length (List.filter (fun s -> s.Trace.scope = "txn.abort") spans));
  let rooted scope =
    let all = List.filter (fun s -> s.Trace.scope = scope) spans in
    check_bool (scope ^ " spans exist") true (all <> []);
    List.iter
      (fun s ->
        match txn_root s with
        | Some _ -> ()
        | None -> Alcotest.failf "%s span #%d has no transaction root" scope
                    s.Trace.id)
      all
  in
  rooted "log.drain";
  rooted "disk.log.sync";
  rooted "log.force";
  rooted "commit.encode";
  (* txn_id attributes are on every commit root, and are all distinct. *)
  let ids =
    List.filter_map
      (fun s ->
        match List.assoc_opt "txn_id" s.Trace.attrs with
        | Some (Trace.Int i) -> Some i
        | _ -> None)
      commits
  in
  check_int "every commit carries its txn_id" 12
    (List.length (List.sort_uniq compare ids))

let test_chrome_export () =
  let spans = traced_workload () in
  let doc = Export.chrome_trace ~process_name:"test" spans in
  (* The exporter's output must survive our own parser — and the parse is
     what the structural checks below run against, so the acceptance check
     is on the actual JSON, not the in-memory spans. *)
  let parsed = Json.of_string (Json.to_string doc) in
  let events =
    match Json.member "traceEvents" parsed with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "no traceEvents list"
  in
  let str m e = match Json.member m e with Some (Json.String s) -> Some s | _ -> None in
  let xs = List.filter (fun e -> str "ph" e = Some "X") events in
  let metas = List.filter (fun e -> str "ph" e = Some "M") events in
  check_int "one X event per span" (List.length spans) (List.length xs);
  check_bool "process_name metadata present" true
    (List.exists (fun e -> str "name" e = Some "process_name") metas);
  check_bool "per-layer thread_name metadata present" true
    (List.exists (fun e -> str "name" e = Some "thread_name") metas);
  (* Every complete event has the trace_event essentials. *)
  List.iter
    (fun e ->
      List.iter
        (fun f ->
          if Json.member f e = None then
            Alcotest.failf "X event lacks %S: %s" f (Json.to_string e))
        [ "name"; "cat"; "ts"; "dur"; "pid"; "tid"; "args" ])
    xs;
  (* Layers map to distinct tids; same layer, same tid. *)
  let tid_of e = match Json.member "tid" e with Some (Json.Int t) -> t | _ -> -1 in
  let tids = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let cat = Option.get (str "cat" e) in
      match Hashtbl.find_opt tids cat with
      | None -> Hashtbl.replace tids cat (tid_of e)
      | Some t -> check_int ("stable tid for layer " ^ cat) t (tid_of e))
    xs;
  check_int "distinct tid per layer" (Hashtbl.length tids)
    (List.length
       (List.sort_uniq compare (Hashtbl.fold (fun _ t a -> t :: a) tids [])));
  (* The acceptance property, checked in the export itself: every
     log.drain / disk.log.sync event walks args.parent up to exactly one
     transaction root. *)
  let by_id = Hashtbl.create 256 in
  List.iter
    (fun e ->
      match Json.member "args" e |> Option.map (Json.member "id") with
      | Some (Some (Json.Int id)) -> Hashtbl.replace by_id id e
      | _ -> Alcotest.fail "X event without args.id")
    xs;
  let rec roots e acc =
    let name = Option.get (str "name" e) in
    let acc = if name = "txn.commit" || name = "txn.abort" then e :: acc else acc in
    match Option.bind (Json.member "args" e) (Json.member "parent") with
    | Some (Json.Int p) -> (
      match Hashtbl.find_opt by_id p with
      | Some pe -> roots pe acc
      | None -> acc)
    | _ -> acc
  in
  let checked = ref 0 in
  List.iter
    (fun e ->
      let name = Option.get (str "name" e) in
      if name = "log.drain" || name = "disk.log.sync" then begin
        incr checked;
        check_int
          (Printf.sprintf "%s descends from exactly one txn root" name)
          1
          (List.length (roots e []))
      end)
    xs;
  check_bool "drain/sync events were present" true (!checked > 0)

let test_txn_costs_and_top () =
  let spans = traced_workload () in
  let costs = Export.txn_costs spans in
  check_int "one cost row per transaction" 13 (List.length costs);
  let commits =
    List.filter (fun c -> c.Export.root.Trace.scope = "txn.commit") costs
  in
  check_int "commit rows" 12 (List.length commits);
  List.iter
    (fun c -> check_bool "txn_id extracted" true (c.Export.txn_id <> None))
    costs;
  (* Flush commits carry the drain+sync cost of their whole batch;
     no-flush commits only spool. *)
  check_bool "some commit paid for a sync" true
    (List.exists (fun c -> c.Export.root.Trace.dur_us >= c.Export.sync_us)
       commits);
  let rendered = Format.asprintf "%a" (Export.pp_top ~slowest:3) spans in
  let contains needle =
    let nl = String.length needle and hl = String.length rendered in
    let rec go i =
      i + nl <= hl && (String.sub rendered i nl = needle || go (i + 1))
    in
    go 0
  in
  check_bool "top shows the txn count" true
    (contains "12 committed, 1 aborted");
  check_bool "top shows the latency table" true (contains "commit latency");
  check_bool "top shows the slowest list" true (contains "slowest commits")

let suite =
  [
    ("trace.causality", `Quick, test_causality);
    ("trace.ring-resize", `Quick, test_ring_resize);
    ("trace.ring-readback", `Quick, test_ring_readback);
    ("trace.ring-allocation", `Quick, test_ring_allocation);
    ("trace.engine-attrs", `Quick, test_engine_attrs);
    ("trace.sim-clock-nested", `Quick, test_sim_clock_nested_spans);
    ("trace.sim-clock-across-drain", `Quick, test_sim_clock_across_drain);
    ("trace.engine-causality", `Quick, test_engine_causality);
    ("trace.chrome-export", `Quick, test_chrome_export);
    ("trace.txn-costs-top", `Quick, test_txn_costs_and_top);
  ]
