(* Runs every workload at quick scale, untraced and traced, and checks the
   output against BENCHMARK.json: each declared metric is present with its
   unit and a finite value, and the correctness gates ran and held. *)

module Json = Rvm_obs.Json
module W = Rvm_benchmark.Workloads
module Report = Rvm_benchmark.Report

let fail fmt = Printf.ksprintf failwith fmt

let member k j =
  match Json.member k j with Some v -> v | None -> fail "BENCHMARK.json: no %S" k

let string = function Json.String s -> s | _ -> fail "expected a string"
let list = function Json.List l -> l | _ -> fail "expected a list"

let declared spec key =
  List.map
    (fun m -> (string (member "name" m), string (member "unit" m)))
    (list (member key spec))

let check_report ~declared (r : Report.t) =
  let got = List.map (fun (n, _, u) -> (n, u)) r.Report.metrics in
  if got <> declared then
    fail "%s%s: metrics or units differ from BENCHMARK.json" r.Report.workload
      (if r.Report.traced then " (traced)" else "");
  List.iter
    (fun (n, v, _) ->
      if not (Float.is_finite v) then fail "%s: %s is not finite" r.Report.workload n)
    r.Report.metrics;
  if r.Report.gates = [] then fail "%s: no correctness gate ran" r.Report.workload;
  List.iter
    (fun (g, ok) -> if not ok then fail "%s: gate %s failed" r.Report.workload g)
    r.Report.gates;
  if r.Report.attempted < 1 then fail "%s: nothing attempted" r.Report.workload

let () =
  let spec = Json.read_file ~path:"../../BENCHMARK.json" in
  let workloads =
    List.map (fun w -> string (member "name" w)) (list (member "workloads" spec))
  in
  if workloads <> W.names then fail "BENCHMARK.json workloads differ from the benchmark's";
  let end_to_end = declared spec "end_to_end" and per_layer = declared spec "per_layer" in
  if end_to_end <> Report.end_to_end then fail "end_to_end differs from Report.end_to_end";
  if per_layer <> Report.per_layer then fail "per_layer differs from Report.per_layer";
  List.iter
    (fun name ->
      List.iter
        (fun traced ->
          let o = { W.seed = 7; seconds = 0.; scale = W.Quick; traced } in
          check_report
            ~declared:(if traced then per_layer else end_to_end)
            (W.run name o))
        [ false; true ])
    W.names;
  print_endline "benchmark: every workload reports every declared metric; gates hold"
