(* Metric declarations and the two output forms of a run: the human table
   plus provenance JSON, and the one-line result object that ends stdout. *)

module Json = Rvm_obs.Json

(* Every workload reports every metric of its mode. BENCHMARK.json
   declares the same names and units; the benchmark's own test checks the
   two lists agree. *)
let end_to_end =
  [
    ("p50_ms", "ms");
    ("p99_ms", "ms");
    ("p999_ms", "ms");
    ("host_us_per_op", "us");
    ("alloc_kw_per_op", "kword");
    ("setup_s", "s");
    ("heap_peak_mb", "MiB");
  ]

let rvm_calls =
  [
    "begin_txn"; "set_range"; "load"; "store"; "end_txn"; "abort"; "flush";
    "truncation_step"; "truncate";
  ]

let per_layer =
  [
    ("server.queue_wait_p99_ms", "ms");
    ("server.batch_size_mean", "count");
    ("server.iterations_per_op", "count");
    ("server.self_host_us_per_op", "us");
    ("server.shed_frac", "fraction");
    ("server.snapshot_read_frac", "fraction");
    ("server.slo_tps", "tps");
    ("server.read_p99_ms", "ms");
    ("lock.abort_rate", "fraction");
    ("lock.retries_per_op", "count");
  ]
  @ List.concat_map
      (fun c ->
        [
          ("rvm." ^ c ^ ".host_us", "us");
          ("rvm." ^ c ^ ".alloc_w", "word");
          ("rvm." ^ c ^ ".per_op", "count");
        ])
      rvm_calls
  @ [
      ("rvm.truncation_pause_p99_ms", "ms");
      ("rvm.log_wraps", "count");
      ("rvm.recovery_s", "s");
      ("rvm.recovery_sim_s", "s");
      ("rvm.recovery_mb_per_s", "MB/s");
      ("log.force_p99_ms", "ms");
      ("log.syncs_per_op", "count");
      ("log.absorbed_frac", "fraction");
      ("log.bytes_per_op", "byte");
      ("log.write_amp", "ratio");
      ("disk.log.writes_per_op", "count");
      ("disk.seg.writes_per_op", "count");
      ("disk.log.busy_frac", "fraction");
      ("pbtree.load_us_per_key", "us");
      ("pbtree.get.host_us", "us");
      ("pbtree.put.host_us", "us");
      ("pbtree.splits_per_op", "count");
      ("rds.space_amp", "ratio");
      ("rds.free_list_len", "count");
      ("vm.faults_per_op", "count");
      ("vm.evictions_per_op", "count");
      ("obs.trace_overhead_frac", "fraction");
    ]

(* A workload that bypasses a layer reports that layer's metrics as 0, by
   name prefix, so a metric is never silently missing. *)
let bypassed prefixes =
  List.filter_map
    (fun (name, _) ->
      if List.exists (fun p -> String.starts_with ~prefix:p name) prefixes
      then Some (name, 0.)
      else None)
    per_layer

type layer_row = {
  layer : string;
  calls_per_op : float;
  host_us_per_op : float;
  self_us_per_op : float;
  words_per_op : float;
}

type t = {
  workload : string;
  seed : int;
  scale : string;
  traced : bool;
  attempted : int;
  failed : int;
  gates : (string * bool) list;
  metrics : (string * float * string) list;  (** name, value, unit *)
  repetitions : (string * float list) list;
      (** per-repetition host values behind each median *)
  layers : layer_row list;
  tracer : Probe.tracer option;  (** the traced run's spans *)
}

let correct r = r.gates <> [] && List.for_all snd r.gates

let make ~workload ~seed ~scale ~attempted ~failed ~gates ~repetitions
    ?(layers = []) ?tracer values =
  let traced = tracer <> None in
  let declared = if traced then per_layer else end_to_end in
  let metrics =
    List.map
      (fun (name, unit) ->
        match List.assoc_opt name values with
        | Some v -> (name, v, unit)
        | None -> failwith (workload ^ " did not report " ^ name))
      declared
  in
  { workload; seed; scale; traced; attempted; failed; gates; metrics;
    repetitions; layers; tracer }

(* {1 Provenance} *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The commit of a git checkout, read from .git without running git;
   "unknown" in exported trees. *)
let git_commit () =
  let packed ref_name =
    read_file ".git/packed-refs"
    |> String.split_on_char '\n'
    |> List.find_map (fun line ->
           match String.split_on_char ' ' line with
           | [ sha; r ] when r = ref_name -> Some sha
           | _ -> None)
    |> Option.value ~default:"unknown"
  in
  let resolve ref_name =
    try String.trim (read_file (".git/" ^ ref_name))
    with Sys_error _ -> packed ref_name
  in
  try
    match String.trim (read_file ".git/HEAD") with
    | h when String.starts_with ~prefix:"ref: " h ->
      resolve (String.sub h 5 (String.length h - 5))
    | h -> h
  with Sys_error _ -> "unknown"

let metrics_json r =
  Json.Obj
    (List.map
       (fun (n, v, u) ->
         (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
       r.metrics)

let to_json r =
  let spread xs =
    Json.Obj
      [
        ("q1", Json.Float (Probe.quantile xs 0.25));
        ("median", Json.Float (Probe.median xs));
        ("q3", Json.Float (Probe.quantile xs 0.75));
        ("values", Json.List (List.map (fun x -> Json.Float x) xs));
      ]
  in
  Json.Obj
    [
      ("workload", Json.String r.workload);
      ("seed", Json.Int r.seed);
      ("scale", Json.String r.scale);
      ("traced", Json.Bool r.traced);
      ("git_commit", Json.String (git_commit ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("correct", Json.Bool (correct r));
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("gates", Json.Obj (List.map (fun (g, ok) -> (g, Json.Bool ok)) r.gates));
      ("metrics", metrics_json r);
      ( "repetitions",
        Json.Obj (List.map (fun (n, xs) -> (n, spread xs)) r.repetitions) );
    ]

(* The last line of stdout: exactly these four keys. *)
let result_line r =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (correct r));
         ("attempted", Json.Int r.attempted);
         ("failed", Json.Int r.failed);
         ("metrics", metrics_json r);
       ])

let pp_table fmt r =
  Format.fprintf fmt "== %s (seed %d, %s scale%s): %s, %d attempted, %d failed@\n"
    r.workload r.seed r.scale
    (if r.traced then ", traced" else "")
    (if correct r then "correct" else "INCORRECT")
    r.attempted r.failed;
  List.iter
    (fun (g, ok) -> Format.fprintf fmt "   gate %-34s %s@\n" g (if ok then "ok" else "FAILED"))
    r.gates;
  List.iter
    (fun (n, v, u) -> Format.fprintf fmt "   %-34s %14.4f %s@\n" n v u)
    r.metrics;
  List.iter
    (fun (n, xs) ->
      Format.fprintf fmt "   repetitions %-22s median %.4f [q1 %.4f, q3 %.4f] n=%d@\n"
        n (Probe.median xs) (Probe.quantile xs 0.25) (Probe.quantile xs 0.75)
        (List.length xs))
    r.repetitions;
  if r.layers <> [] then begin
    Format.fprintf fmt "   %-8s %12s %14s %14s %14s@\n" "layer" "calls/op"
      "host us/op" "self us/op" "words/op";
    List.iter
      (fun l ->
        Format.fprintf fmt "   %-8s %12.3f %14.2f %14.2f %14.0f@\n" l.layer
          l.calls_per_op l.host_us_per_op l.self_us_per_op l.words_per_op)
      r.layers
  end
