open Rvm_core

type config = {
  region_len : int;
  log_size : int;
  core : Crash.config;
  truncation_mode : Types.truncation_mode;
  group_commit : bool;
  mid_truncation : bool;
}

let default_config =
  {
    region_len = 2 * 4096;
    log_size = 64 * 1024;
    core = { Crash.sector = 512; exhaustive = false; max_torn_per_write = 12 };
    truncation_mode = Types.Epoch;
    group_commit = true;
    mid_truncation = false;
  }

let options ~truncation_mode ~group_commit ~mid_truncation =
  {
    Options.default with
    Options.truncation_mode;
    (* Mid-truncation exploration needs the truncator due after the
       first couple of commits so [Step] ops actually advance a run. *)
    truncation_threshold = (if mid_truncation then 0.05 else 0.4);
    group_commit;
    (* Mid-truncation exploration drives the truncator from [Step] ops
       and needs the run left suspended between them, so the inline
       commit-path trigger (which would run it to completion) is off. *)
    auto_truncate = not mid_truncation;
  }

(* Open the engine on a log and a segment device; map the region. *)
let mount ?obs config ~log ~seg =
  let options =
    options ~truncation_mode:config.truncation_mode
      ~group_commit:config.group_commit ~mid_truncation:config.mid_truncation
  in
  let rvm = Rvm.reinitialize ~options ?obs ~log ~resolve:(fun _ -> seg) () in
  (rvm, (Rvm.map rvm ~seg:1 ~seg_off:0 ~len:config.region_len ()).Region.vaddr)

(* Recover the two crash images and read back the region bytes. *)
let recover config images =
  let rvm, base = mount config ~log:images.(0) ~seg:images.(1) in
  Rvm.load rvm ~addr:base ~len:config.region_len

(* Run the workload against traced devices, keeping the reference model
   and checkpointing the durable commit count. *)
let world config ops rig =
  let log_mem = Crash.device rig ~name:"check-log" ~size:config.log_size in
  let seg_mem = Crash.device rig ~name:"check-seg" ~size:config.region_len in
  Rvm.create_log log_mem;
  (* Trace after formatting: crash point zero is the freshly formatted,
     empty state, which must recover to the blank region. *)
  let log = Crash.trace rig ~label:"log" log_mem in
  let seg = Crash.trace rig ~label:"seg" seg_mem in
  let rvm, base = mount config ~obs:(Crash.obs rig) ~log ~seg in
  let model = Model.create ~region_len:config.region_len in
  let note_durable () =
    Model.mark_durable model;
    Crash.durable rig (Model.durable_count model)
  in
  List.iter
    (fun op ->
      match op with
      | Workload.Commit { ranges; mode } ->
        let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
        let writes =
          List.map
            (fun (off, len, c) ->
              let data = Bytes.make len c in
              Rvm.modify rvm tid ~addr:(base + off) data;
              (off, data))
            ranges
        in
        Rvm.end_transaction rvm tid ~mode;
        Model.commit model writes;
        (* A flush-mode commit drains the spool first, so every commit so
           far is durable once its force returns. Forces the engine takes
           on its own (spool overflow, truncation) are deliberately not
           counted: under-approximating the required durable prefix is
           sound — it can never produce a false violation. *)
        if mode = Types.Flush then note_durable ()
      | Workload.Abort ranges ->
        let tid = Rvm.begin_transaction rvm ~mode:Types.Restore in
        List.iter
          (fun (off, len, c) ->
            Rvm.modify rvm tid ~addr:(base + off) (Bytes.make len c))
          ranges;
        Rvm.abort_transaction rvm tid
      | Workload.Flush ->
        Rvm.flush rvm;
        note_durable ()
      | Workload.Truncate -> Rvm.truncate rvm
      | Workload.Step n ->
        for _ = 1 to n do
          ignore (Rvm.truncation_step rvm)
        done)
    ops;
  let commits = Model.commit_count model in
  let oracle (crash : Crash.crash_point) recovered =
    let required = Crash.required rig ~upto:crash.Crash.upto in
    match Model.matching_prefix model ~min:required recovered with
    | Some _ -> None
    | None ->
      Some
        (Printf.sprintf "%s (required %d of %d commits durable)"
           (Model.describe_mismatch model ~min:required recovered)
           required commits)
  in
  {
    Crash.recover = recover config;
    oracle;
    commits;
    counters = [ ("known durable", Model.durable_count model) ];
  }

let run ?(config = default_config) ops = Crash.run config.core (world config ops)
let violates ?config ops = (run ?config ops).Crash.violations <> []

(* Shrinking edits: drop one range of a commit/abort, then shrink range
   lengths (halving, then to 1). *)
let drop_ranges op =
  let without ranges =
    List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) ranges) ranges
  in
  match op with
  | Workload.Commit { ranges; mode } when List.length ranges > 1 ->
    List.map (fun rs -> [ Workload.Commit { ranges = rs; mode } ]) (without ranges)
  | Workload.Abort ranges when List.length ranges > 1 ->
    List.map (fun rs -> [ Workload.Abort rs ]) (without ranges)
  | _ -> []

let shrink_lens op =
  let shrink_range (off, len, c) =
    List.filter_map
      (fun len' -> if len' > 0 && len' < len then Some (off, len', c) else None)
      [ len / 2; 1 ]
  in
  let variants ranges rebuild =
    List.concat
      (List.mapi
         (fun i r ->
           List.map
             (fun r' ->
               [ rebuild (List.mapi (fun j x -> if j = i then r' else x) ranges) ])
             (shrink_range r))
         ranges)
  in
  match op with
  | Workload.Commit { ranges; mode } ->
    variants ranges (fun rs -> Workload.Commit { ranges = rs; mode })
  | Workload.Abort ranges -> variants ranges (fun rs -> Workload.Abort rs)
  | _ -> []

let edits = [ drop_ranges; shrink_lens ]
