(* The one regression gate for the deterministic bench artifacts: a
   direction for every leaf name, absolute bounds per artifact, and one
   function that checks a regenerated artifact against the checked-in
   copy with both. *)

type direction = Lower | Higher | Config

let tolerance = 0.10

let directions =
  let all dir = List.map (fun name -> (name, dir)) in
  all Config
    [
      "artifact"; "txns"; "accounts"; "requests"; "transfer_pct"; "read_pct";
      "batch_max"; "sessions"; "seed"; "load"; "offered_tps"; "shards";
      "zipf_s"; "elr"; "records"; "value_len"; "degree"; "mem_fraction";
      "mix"; "scan_max"; "arm"; "log_size"; "background_truncation";
      "gate_max_ratio"; "live_log_bytes";
    ]
  @ all Lower
      [
        "device_writes_per_txn"; "device_syncs_per_txn"; "shed"; "aborts";
        "abort_rate"; "elr_abort_rate"; "elr_off_abort_rate"; "batches";
        "duration_us"; "mean_latency_us";
        "p50_latency_us"; "p95_latency_us"; "p99_latency_us";
        "read_p99_latency_us"; "log_writes"; "log_syncs";
        "syncs_per_commit"; "writes_per_commit"; "set_ranges_per_commit";
        "log_bytes_per_commit"; "engine_txns_per_commit"; "cross_aborted";
        "cross_abort_rate"; "log_wraps"; "truncation_pauses";
        "truncation_pause_max_us"; "truncation_pause_p99_us";
        "truncation_steps"; "p99_ratio_background_over_disabled"; "vm_faults";
        "vm_evictions"; "vm_pageouts"; "heap_allocated_bytes";
        "heap_free_bytes"; "heap_free_list"; "splits"; "merges";
        "log_bytes_read"; "seg_bytes_written"; "recovery_sim_s";
        "open_sim_s"; "plan_sim_s"; "apply_sim_s"; "reset_sim_s";
      ]
  @ all Higher
      [
        "committed"; "reads"; "throughput_tps"; "snapshot_read_fraction";
        "cross_committed"; "peak_tps_1"; "peak_tps_2"; "peak_tps_4";
        "speedup_2x"; "speedup_4x"; "tree_length"; "serial_equal";
      ]

(* --- absolute bounds --- *)

type bound = {
  artifact : string;
  name : string;
  violations : Json.t -> string list;
}

exception Missing of string

let num key row =
  match Json.member key row with
  | Some (Json.Int i) -> float_of_int i
  | Some (Json.Float f) -> f
  | _ -> raise (Missing key)

let rows key doc =
  match Json.member key doc with
  | Some (Json.List l) -> l
  | _ -> raise (Missing key)

let is key v row = Json.member key row = Some v

(* One violation message unless [ok]. *)
let unless ok fmt = Printf.ksprintf (fun msg -> if ok then [] else [ msg ]) fmt

(* [prop] over the ELR-off and ELR-on rows at every skew at or above the
   hot-key point 0.99, where lock-hold time is the bottleneck ELR
   removes. *)
let at_hot_skews prop doc =
  let results = rows "results" doc in
  let row s elr =
    match
      List.find_opt
        (fun r -> num "zipf_s" r = s && is "elr" (Json.Bool elr) r)
        results
    with
    | Some r -> r
    | None -> raise (Missing (Printf.sprintf "elr=%b row at zipf_s %g" elr s))
  in
  let hot =
    List.filter (fun s -> s >= 0.99) (List.map (num "zipf_s") results)
  in
  if hot = [] then raise (Missing "a row at zipf_s >= 0.99");
  List.concat_map
    (fun s ->
      List.map (Printf.sprintf "at zipf_s %g: %s" s)
        (prop ~off:(row s false) ~on:(row s true)))
    (List.sort_uniq compare hot)

let arm name doc =
  match List.find_opt (is "arm" (Json.String name)) (rows "arms" doc) with
  | Some r -> r
  | None -> raise (Missing ("arm " ^ name))

let every_mix prop doc =
  List.concat_map
    (fun r ->
      let mix =
        match Json.member "mix" r with Some (Json.String m) -> m | _ -> "?"
      in
      List.map (Printf.sprintf "%s: %s" mix) (prop r))
    (rows "results" doc)

let log_open_chunk = 256 * 1024

(* The recovery row's phase leaves: the open scan, then recovery's plan,
   apply and reset spans. *)
let recovery_phases =
  [ "open_sim_s"; "plan_sim_s"; "apply_sim_s"; "reset_sim_s" ]

(* A recovery row read its log's live bytes plus at most one open chunk. *)
let reads_live_once what r =
  let read = num "log_bytes_read" r and live = num "live_log_bytes" r in
  unless
    (read <= live +. float_of_int log_open_chunk)
    "%s read %.0f log bytes, more than %.0f live plus one %d-byte chunk" what
    read live log_open_chunk

let metric name doc =
  match Json.member "metrics" doc with
  | Some m -> (
    match Json.member name m with Some r -> r | None -> raise (Missing name))
  | None -> raise (Missing "metrics")

let bounds =
  let bound artifact name violations =
    { artifact; name = artifact ^ "." ^ name; violations }
  in
  let baseline = bound "baseline" in
  let contention = bound "contention" and truncation = bound "truncation" in
  let ycsb = bound "ycsb" in
  [
    baseline "recovery_reads_live_once" (fun doc ->
        reads_live_once "recovery" (metric "recovery" doc));
    baseline "sharded_recovery_reads_live_once" (fun doc ->
        List.concat
          (List.mapi
             (fun i -> reads_live_once (Printf.sprintf "shard %d recovery" i))
             (rows "logs" (metric "sharded_recovery" doc))));
    baseline "recovery_phases_sum" (fun doc ->
        let r = metric "recovery" doc in
        let phases =
          List.fold_left (fun acc k -> acc +. num k r) 0. recovery_phases
        and total = num "recovery_sim_s" r in
        unless
          (abs_float (phases -. total) <= 1e-6)
          "recovery phases sum to %.7f s, not the %.7f s recovery_sim_s"
          phases total);
    contention "elr_fewer_aborts"
      (at_hot_skews (fun ~off ~on ->
           let a = num "abort_rate" on and b = num "abort_rate" off in
           unless (a < b) "ELR abort_rate %.4g is not below ELR-off %.4g" a b));
    (* One seed can flip the comparison above by luck; the means of each
       skew's [seed_sweep] rows cannot. *)
    contention "elr_fewer_aborts_across_seeds" (fun doc ->
        let sweep = rows "seed_sweep" doc in
        if sweep = [] then raise (Missing "a seed_sweep row");
        List.concat_map
          (fun s ->
            let cells = List.filter (fun r -> num "zipf_s" r = s) sweep in
            let n = List.length cells in
            let mean key =
              List.fold_left (fun acc r -> acc +. num key r) 0. cells
              /. float_of_int n
            in
            let a = mean "elr_abort_rate" and b = mean "elr_off_abort_rate" in
            unless (a < b)
              "at zipf_s %g over %d seeds: ELR mean abort_rate %.4g is not \
               below ELR-off %.4g"
              s n a b)
          (List.sort_uniq compare (List.map (num "zipf_s") sweep)));
    contention "elr_speedup_1.5x"
      (at_hot_skews (fun ~off ~on ->
           let r = num "throughput_tps" on /. num "throughput_tps" off in
           unless (r >= 1.5)
             "ELR throughput_tps is %.3gx ELR-off, below 1.5x" r));
    contention "elr_read_p99_below_p99"
      (at_hot_skews (fun ~off:_ ~on ->
           let r = num "read_p99_latency_us" on
           and w = num "p99_latency_us" on in
           unless (r < w)
             "ELR read_p99_latency_us %.0f is not below p99 %.0f" r w));
    truncation "background_wraps_3x" (fun doc ->
        let w = num "log_wraps" (arm "background" doc) in
        unless (w >= 3.) "background log_wraps %.3g is below 3" w);
    truncation "disabled_wraps_below_1" (fun doc ->
        let w = num "log_wraps" (arm "disabled" doc) in
        unless (w < 1.) "disabled log_wraps %.3g is not below 1" w);
    truncation "p99_ratio_1.25x" (fun doc ->
        let r = num "p99_ratio_background_over_disabled" doc in
        unless (r <= 1.25)
          "p99_ratio_background_over_disabled %.4g exceeds 1.25" r);
    ycsb "serial_equal"
      (every_mix (fun r ->
           unless (is "serial_equal" (Json.Bool true) r)
             "final tree diverges from the serial replay of its commits"));
    ycsb "committed"
      (every_mix (fun r ->
           unless (num "committed" r > 0.) "committed nothing"));
    ycsb "vm_faults" (fun doc ->
        let faults =
          List.fold_left (fun acc r -> acc +. num "vm_faults" r) 0.
            (rows "results" doc)
        in
        unless (faults > 0.) "no row faulted: the sweep ran without paging");
  ]

(* --- the check --- *)

type report = {
  compared : int;
  improved : int;
  bounds_checked : string list;
  warnings : string list;
  failures : (string * string) list;
}

let undeclared doc =
  let rec leaves key acc = function
    | Json.Obj members ->
      List.fold_left (fun acc (k, v) -> leaves k acc v) acc members
    | Json.List items -> List.fold_left (leaves key) acc items
    | _ ->
      if List.mem_assoc key directions || List.mem key acc then acc
      else key :: acc
  in
  List.rev (leaves "" [] doc)

(* A boolean compares as 0 or 1, so a declared one (serial_equal)
   regresses by flipping the wrong way. *)
let value = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | Json.Bool b -> Some (if b then 1. else 0.)
  | _ -> None

let check ~old ~new_ =
  let compared = ref 0 and improved = ref 0 in
  let warnings = ref [] and failures = ref [] in
  let fail name msg = failures := (name, msg) :: !failures in
  let warn name msg =
    warnings := Printf.sprintf "%s: %s" name msg :: !warnings
  in
  List.iter (fun k -> fail k "undeclared metric") (undeclared new_);
  let leaf path key a b =
    let moved = Json.to_string a ^ " -> " ^ Json.to_string b in
    match (List.assoc_opt key directions, value a, value b) with
    | None, _, _ -> () (* already failed as undeclared *)
    | Some Config, _, _ -> if a <> b then warn path ("config drift " ^ moved)
    | Some dir, Some x, Some y ->
      incr compared;
      let rel = (y -. x) /. Float.max (abs_float x) 1e-9 in
      if abs_float rel > tolerance then
        if (match dir with Lower -> rel > 0. | _ -> rel < 0.) then
          fail path (Printf.sprintf "%s (%+.1f%%)" moved (100. *. rel))
        else incr improved
    | Some _, _, _ -> if a <> b then fail path ("changed " ^ moved)
  in
  let rec walk path key a b =
    match (a, b) with
    | Json.Obj fa, Json.Obj fb ->
      let sub k = if path = "" then k else path ^ "." ^ k in
      List.iter
        (fun (k, va) ->
          match List.assoc_opt k fb with
          | Some vb -> walk (sub k) k va vb
          | None -> fail (sub k) "metric missing from new artifact")
        fa;
      List.iter
        (fun (k, _) ->
          if not (List.mem_assoc k fa) then warn (sub k) "only in new artifact")
        fb
    | Json.List la, Json.List lb ->
      if List.length la <> List.length lb then
        fail path
          (Printf.sprintf "row count changed: %d -> %d" (List.length la)
             (List.length lb))
      else
        List.iteri
          (fun i (va, vb) -> walk (Printf.sprintf "%s[%d]" path i) key va vb)
          (List.combine la lb)
    | (Json.Obj _ | Json.List _), _ | _, (Json.Obj _ | Json.List _) ->
      fail path "value shape changed"
    | _ -> leaf path key a b
  in
  walk "" "" old new_;
  let applicable =
    List.filter (fun b -> is "artifact" (Json.String b.artifact) new_) bounds
  in
  List.iter
    (fun b ->
      let vs = try b.violations new_ with Missing k -> [ "missing " ^ k ] in
      List.iter (fail b.name) vs)
    applicable;
  {
    compared = !compared;
    improved = !improved;
    bounds_checked = List.map (fun b -> b.name) applicable;
    warnings = List.rev !warnings;
    failures = List.rev !failures;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "%d metric(s) compared, %d improved beyond %.0f%%; bounds checked: %s@."
    r.compared r.improved (100. *. tolerance)
    (if r.bounds_checked = [] then "none"
     else String.concat ", " r.bounds_checked);
  List.iter (Format.fprintf ppf "warn: %s@.") r.warnings;
  if r.failures = [] then Format.fprintf ppf "no regressions@."
  else begin
    Format.fprintf ppf "%d failure(s):@." (List.length r.failures);
    List.iter (fun (name, why) -> Format.fprintf ppf "  FAIL %s: %s@." name why)
      r.failures
  end
