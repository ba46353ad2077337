(* The bench regression gate (Rvm_obs.Gate): the checked-in artifacts
   pass against themselves and are fully declared, every absolute bound
   fires under its own name just past its threshold, and the trajectory
   rule fails exactly the moves it should. Mutations are made in memory
   on copies of the checked-in artifacts. *)

module J = Rvm_obs.Json
module Gate = Rvm_obs.Gate

let gated =
  [ "baseline"; "server"; "shards"; "contention"; "truncation"; "ycsb" ]

let load name = J.read_file ~path:(Printf.sprintf "../BENCH_%s.json" name)

let num = function
  | J.Int i -> float_of_int i
  | J.Float f -> f
  | _ -> Alcotest.fail "expected a number"

let map_member key f = function
  | J.Obj m ->
    J.Obj (List.map (fun (k, v) -> if k = key then (k, f v) else (k, v)) m)
  | j -> j

(* Apply [f] to the rows of list [list] selected by [where]. *)
let map_rows list ~where f =
  map_member list (function
    | J.List rows ->
      J.List (List.mapi (fun i r -> if where i r then f r else r) rows)
    | j -> j)

let set key v = map_member key (fun _ -> v)
let scale key by = map_member key (fun v -> J.Float (num v *. by))
let first i _ = i = 0
let every _ _ = true

let hot ~elr _ r =
  J.member "zipf_s" r = Some (J.Float 0.99)
  && J.member "elr" r = Some (J.Bool elr)

let arm name _ r = J.member "arm" r = Some (J.String name)

let field list ~where key doc =
  match J.member list doc with
  | Some (J.List rows) -> (
    match List.filteri where rows with
    | r :: _ -> num (Option.get (J.member key r))
    | [] -> Alcotest.fail "no such row")
  | _ -> Alcotest.fail ("no list " ^ list)

let failure_names ~old doc =
  List.map fst (Gate.check ~old ~new_:doc).Gate.failures

let names = Alcotest.(list string)

let test_self_pass () =
  List.iter
    (fun a ->
      let doc = load a in
      let r = Gate.check ~old:doc ~new_:doc in
      Alcotest.check names (a ^ " passes against itself") []
        (List.map fst r.Gate.failures);
      Alcotest.(check bool) (a ^ " compares some metric") true
        (r.Gate.compared > 0))
    gated

let test_every_leaf_declared () =
  let docs = List.map load gated in
  List.iter2
    (fun a doc ->
      Alcotest.check names (a ^ " has no undeclared leaf") []
        (Gate.undeclared doc))
    gated docs;
  (* and the table declares nothing that no artifact carries *)
  let rec mem name = function
    | J.Obj m -> List.exists (fun (k, v) -> k = name || mem name v) m
    | J.List l -> List.exists (mem name) l
    | _ -> false
  in
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool) (name ^ " appears in some artifact") true
        (List.exists (mem name) docs))
    Gate.directions

(* The baseline recovery row with [log_bytes_read] set to its live bytes
   plus one open chunk plus [extra]. *)
let recovery_reads ~extra =
  map_member "metrics"
    (map_member "recovery" (fun r ->
         let live = num (Option.get (J.member "live_log_bytes" r)) in
         set "log_bytes_read"
           (J.Float (live +. float_of_int Gate.log_open_chunk +. extra))
           r))

(* The baseline sharded recovery row with shard 1's [log_bytes_read] one
   byte over its live bytes plus one open chunk. *)
let sharded_recovery_reads =
  map_member "metrics"
    (map_member "sharded_recovery"
       (map_rows "logs" ~where:(fun i _ -> i = 1) (fun r ->
            let live = num (Option.get (J.member "live_log_bytes" r)) in
            set "log_bytes_read"
              (J.Float (live +. float_of_int Gate.log_open_chunk +. 1.))
              r)))

(* The baseline recovery row with [open_sim_s] moved by [by] seconds. *)
let recovery_open ~by =
  map_member "metrics"
    (map_member "recovery" (fun r ->
         set "open_sim_s"
           (J.Float (num (Option.get (J.member "open_sim_s" r)) +. by))
           r))

(* (c) Each mutation moves one artifact just past one bound; the gate
   must fail under exactly that bound's name. *)
let bound_cases =
  let off key doc = field "results" ~where:(hot ~elr:false) key doc in
  [
    ( "baseline.recovery_reads_live_once", "baseline",
      recovery_reads ~extra:1. );
    ( "baseline.sharded_recovery_reads_live_once", "baseline",
      sharded_recovery_reads );
    ("baseline.recovery_phases_sum", "baseline", recovery_open ~by:2e-6);
    ( "contention.elr_fewer_aborts", "contention",
      fun doc ->
        map_rows "results" ~where:(hot ~elr:true)
          (set "abort_rate" (J.Float (off "abort_rate" doc)))
          doc );
    ( "contention.elr_fewer_aborts_across_seeds", "contention",
      map_rows "seed_sweep"
        ~where:(fun _ r -> J.member "zipf_s" r = Some (J.Float 0.99))
        (fun r ->
          set "elr_abort_rate"
            (Option.get (J.member "elr_off_abort_rate" r))
            r) );
    ( "contention.elr_speedup_1.5x", "contention",
      fun doc ->
        map_rows "results" ~where:(hot ~elr:true)
          (set "throughput_tps"
             (J.Float (1.499 *. off "throughput_tps" doc)))
          doc );
    ( "contention.elr_read_p99_below_p99", "contention",
      fun doc ->
        let p99 =
          field "results" ~where:(hot ~elr:true) "p99_latency_us" doc
        in
        map_rows "results" ~where:(hot ~elr:true)
          (set "read_p99_latency_us" (J.Float p99))
          doc );
    ( "truncation.background_wraps_3x", "truncation",
      map_rows "arms" ~where:(arm "background")
        (set "log_wraps" (J.Float 2.999)) );
    ( "truncation.disabled_wraps_below_1", "truncation",
      map_rows "arms" ~where:(arm "disabled") (set "log_wraps" (J.Float 1.0)) );
    ( "truncation.p99_ratio_1.25x", "truncation",
      set "p99_ratio_background_over_disabled" (J.Float 1.251) );
    ( "ycsb.serial_equal", "ycsb",
      map_rows "results" ~where:(fun i _ -> i = 2)
        (set "serial_equal" (J.Bool false)) );
    ( "ycsb.committed", "ycsb",
      map_rows "results" ~where:first (set "committed" (J.Int 0)) );
    ( "ycsb.vm_faults", "ycsb",
      map_rows "results" ~where:every (set "vm_faults" (J.Int 0)) );
  ]

let test_bound_fires (name, artifact, mutate) () =
  let doc = mutate (load artifact) in
  Alcotest.check names (name ^ " fires alone") [ name ]
    (failure_names ~old:doc doc)

let test_every_bound_tested () =
  Alcotest.check names "one mutation per declared bound"
    (List.map (fun b -> b.Gate.name) Gate.bounds)
    (List.map (fun (n, _, _) -> n) bound_cases)

(* ... and the thresholds themselves still pass. *)
let test_bounds_at_threshold () =
  let b = recovery_reads ~extra:0. (load "baseline") in
  Alcotest.check names "recovery reads at the threshold" []
    (failure_names ~old:b b);
  let b = recovery_open ~by:0.9e-6 (load "baseline") in
  Alcotest.check names "recovery phases within a microsecond" []
    (failure_names ~old:b b);
  let t = load "truncation" in
  List.iter
    (fun doc ->
      Alcotest.check names "at the threshold" [] (failure_names ~old:doc doc))
    [
      map_rows "arms" ~where:(arm "background") (set "log_wraps" (J.Float 3.))
        t;
      map_rows "arms" ~where:(arm "disabled")
        (set "log_wraps" (J.Float 0.999))
        t;
      set "p99_ratio_background_over_disabled" (J.Float 1.25) t;
    ]

(* Directions against the checked-in copy. *)
let test_trajectory () =
  let server = load "server" and ycsb = load "ycsb" in
  let row0 key by doc = map_rows "results" ~where:first (scale key by) doc in
  Alcotest.check names "p99 +11% fails" [ "results[0].p99_latency_us" ]
    (failure_names ~old:server (row0 "p99_latency_us" 1.11 server));
  Alcotest.check names "p99 +9% passes" []
    (failure_names ~old:server (row0 "p99_latency_us" 1.09 server));
  Alcotest.check names "throughput -11% fails" [ "results[0].throughput_tps" ]
    (failure_names ~old:server (row0 "throughput_tps" 0.89 server));
  Alcotest.check names "throughput +11% is an improvement" []
    (failure_names ~old:server (row0 "throughput_tps" 1.11 server));
  Alcotest.check names "heap growth +11% fails"
    [ "results[0].heap_allocated_bytes" ]
    (failure_names ~old:ycsb (row0 "heap_allocated_bytes" 1.11 ycsb));
  Alcotest.check names "declaring word by word again fails"
    [ "results[0].set_ranges_per_commit"; "results[0].log_bytes_per_commit" ]
    (failure_names ~old:ycsb
       (row0 "log_bytes_per_commit" 2.
          (row0 "set_ranges_per_commit" 15. ycsb)));
  (* Row 2 is mix C, whose reads begin no engine transaction; row 0 is
     mix A, whose updates alone do. *)
  Alcotest.check names "reads opening engine transactions again fails"
    [ "results[0].engine_txns_per_commit"; "results[2].engine_txns_per_commit" ]
    (failure_names ~old:ycsb
       (map_rows "results"
          ~where:(fun i _ -> i = 0 || i = 2)
          (set "engine_txns_per_commit" (J.Float 1.))
          ycsb));
  let reseeded = set "seed" (J.Int 7) server in
  let r = Gate.check ~old:server ~new_:reseeded in
  Alcotest.check names "seed drift does not fail" []
    (List.map fst r.Gate.failures);
  Alcotest.(check int) "seed drift warns" 1 (List.length r.Gate.warnings);
  let deleted =
    map_rows "results" ~where:first
      (function
        | J.Obj m -> J.Obj (List.remove_assoc "p99_latency_us" m)
        | j -> j)
      server
  in
  Alcotest.check names "a deleted metric fails" [ "results[0].p99_latency_us" ]
    (failure_names ~old:server deleted);
  let novel =
    match server with
    | J.Obj m -> J.Obj (m @ [ ("novel_metric", J.Int 1) ])
    | j -> j
  in
  Alcotest.check names "an undeclared leaf fails" [ "novel_metric" ]
    (failure_names ~old:server novel)

let suite =
  [
    Alcotest.test_case "checked-in artifacts pass against themselves" `Quick
      test_self_pass;
    Alcotest.test_case "every artifact leaf is declared" `Quick
      test_every_leaf_declared;
    Alcotest.test_case "every bound has a mutation case" `Quick
      test_every_bound_tested;
    Alcotest.test_case "bounds pass at their thresholds" `Quick
      test_bounds_at_threshold;
    Alcotest.test_case "trajectory directions" `Quick test_trajectory;
    Alcotest.test_case "recovery bound uses the log's open chunk" `Quick
      (fun () ->
        Alcotest.(check int) "chunk" Rvm_log.Log_manager.open_chunk
          Gate.log_open_chunk);
  ]
  @ List.map
      (fun ((name, _, _) as case) ->
        Alcotest.test_case ("bound " ^ name) `Quick (test_bound_fires case))
      bound_cases
