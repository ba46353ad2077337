open Rvm_core
module Multi = Rvm_shard.Multi
module Engine = Rvm_server.Engine

type config = {
  shards : int;
  log_size : int;
  core : Crash.config;
  truncation_mode : Types.truncation_mode;
  mid_truncation : bool;
}

let for_shards shards =
  {
    shards;
    log_size = 64 * 1024;
    core =
      {
        Crash.sector = 512;
        exhaustive = false;
        max_torn_per_write = (if shards = 1 then 12 else 8);
      };
    truncation_mode = Types.Epoch;
    mid_truncation = false;
  }

let default_config = for_shards 1

let options config =
  {
    Options.default with
    Options.truncation_mode = config.truncation_mode;
    (* Mid-truncation exploration needs the truncator due after the
       first couple of commits so [Step] ops actually advance a run. *)
    truncation_threshold = (if config.mid_truncation then 0.05 else 0.4);
    (* Mid-truncation exploration drives the truncator from [Step] ops
       and needs the run left suspended between them, so the inline
       commit-path trigger (which would run it to completion) is off. *)
    auto_truncate = not config.mid_truncation;
  }

(* --- the devices: one log and one segment per shard --- *)

(* [2 * shards] devices in trace order — every shard's log, then every
   shard's segment — as the engine's logs and segments. *)
let split shards devs = (Array.sub devs 0 shards, Array.sub devs shards shards)

let trace_shards rig ~shards ~log_size ~seg_size =
  let name kind s = if shards = 1 then kind else kind ^ string_of_int s in
  let make kind size =
    Array.init shards (fun s ->
        Rvm_disk.Mem_device.create ~name:("check-" ^ name kind s)
          ~size:(size s) ())
  in
  let logs = make "log" (fun _ -> log_size) in
  let segs = make "seg" seg_size in
  Multi.create_logs logs;
  (* One shared recorder across every device: a crash is a moment in the
     global write order, and the inter-shard boundaries of the parallel
     commit round are exactly the event boundaries between one shard's
     force and the next. Trace after formatting: crash point zero is the
     freshly formatted, empty state, which must recover blank regions. *)
  let trace kind =
    Array.mapi (fun s d -> Crash.trace rig ~label:(name kind s) d)
  in
  let logs = trace "log" logs in
  split shards (Array.append logs (trace "seg" segs))

(* Open the engine the server builds for [config.shards] on
   [(logs, segs)], on a fresh simulated clock so that recovering the
   same images is deterministic, and map every shard's region. *)
let mount ?obs config (logs, segs) =
  let eng, backend =
    Engine.initialize ~options:(options config)
      ~clock:(Rvm_util.Clock.simulated ()) ?obs ~logs ~segs ()
  in
  ( eng,
    Array.init config.shards (fun shard ->
        (Engine.map backend ~shard ~seg_off:0 ~len:Workload.region_len ())
          .Region.vaddr) )

let recover config images =
  let eng, bases = mount config (split config.shards images) in
  Array.map (fun addr -> eng.Engine.load ~addr ~len:Workload.region_len) bases

(* Run the workload against traced devices, keeping the reference model
   and checkpointing what each force made durable. *)
let world config ops rig =
  let shards = config.shards in
  let eng, bases =
    mount config ~obs:(Crash.obs rig)
      (trace_shards rig ~shards ~log_size:config.log_size
         ~seg_size:(fun _ -> Workload.region_len))
  in
  let model = Model.create ~shards ~region_len:Workload.region_len in
  (* Durability checkpoints, newest first: from device event [e] on, the
     entries in [counts] and the cross transactions in [ids] must survive
     any crash. Each checkpoint covers every earlier one. Forces the
     engine takes on its own (spool overflow, truncation) are
     deliberately not counted: under-approximating the required durable
     prefix is sound — it can never produce a false violation. *)
  let checkpoints = ref [ (0, Array.make shards 0, []) ] in
  let decided = ref [] in
  let checkpoint forced =
    let _, prev, _ = List.hd !checkpoints in
    let counts =
      Array.init shards (fun s ->
          if List.mem s forced then Model.entries model s else prev.(s))
    in
    checkpoints := (Crash.events_so_far rig, counts, !decided) :: !checkpoints
  in
  let write tid shard ranges =
    List.map
      (fun (off, len, c) ->
        let addr = bases.(shard) + off and data = Bytes.make len c in
        eng.Engine.set_range tid ~addr ~len;
        eng.Engine.store ~addr data;
        (off, data))
      ranges
  in
  let write_parts tid = List.map (fun (s, ranges) -> (s, write tid s ranges)) in
  let begin_txn () = eng.Engine.begin_txn ~mode:Types.Restore in
  List.iter
    (fun op ->
      match op with
      | Workload.Commit { shard; ranges; mode } ->
        let tid = begin_txn () in
        let writes = write tid shard ranges in
        eng.Engine.end_txn tid ~mode;
        Model.commit model ~shard writes;
        (* A flush-mode commit drains the shard's spool first, so every
           earlier entry on that shard is durable once its force returns. *)
        if mode = Types.Flush then checkpoint [ shard ]
      | Workload.Cross { parts; mode } ->
        let tid = begin_txn () in
        let writes = write_parts tid parts in
        eng.Engine.end_txn tid ~mode;
        let id = Model.cross model writes in
        if mode = Types.Flush then begin
          (* The parallel-commit round forced every participant's log: the
             transaction is implicitly committed from here on, and each
             participant's earlier entries are durable. *)
          decided := id :: !decided;
          checkpoint (List.map fst parts)
        end
      | Workload.Abort parts ->
        let tid = begin_txn () in
        ignore (write_parts tid parts);
        eng.Engine.abort tid
      | Workload.Flush ->
        (* Every shard's tail forced, every pending cross-shard commit
           resolved. *)
        eng.Engine.flush ();
        decided := List.init (Model.crosses model) Fun.id;
        checkpoint (List.init shards Fun.id)
      | Workload.Truncate -> eng.Engine.truncate ()
      | Workload.Step n ->
        for _ = 1 to n do
          ignore (eng.Engine.truncation_step ())
        done)
    ops;
  let checkpoints = !checkpoints in
  let oracle (crash : Crash.crash_point) images =
    (* A crash after [upto] events must preserve the newest checkpoint
       taken by then. *)
    let _, counts, ids =
      List.find (fun (e, _, _) -> e <= crash.Crash.upto) checkpoints
    in
    let req = { Model.counts; ids } in
    if Model.matches model req images then None
    else Some (Model.describe_mismatch model req images)
  in
  let _, durable, _ = List.hd checkpoints in
  let sum = Array.fold_left ( + ) 0 in
  {
    Crash.recover = recover config;
    oracle;
    commits = sum (Array.init shards (Model.entries model));
    counters =
      [ ("known durable", sum durable); ("cross-shard", Model.crosses model) ];
  }

let run ?(config = default_config) ops =
  if config.shards < 1 then invalid_arg "Explorer.run: shards must be >= 1";
  Crash.run config.core (world config ops)

let violates ?config ops = (run ?config ops).Crash.violations <> []

(* Shrinking edits on single-shard ops: drop one range of a commit or
   abort, then shrink range lengths (halving, then to 1). *)
let drop_ranges op =
  let without ranges =
    List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) ranges) ranges
  in
  match op with
  | Workload.Commit { shard; ranges; mode } when List.length ranges > 1 ->
    List.map
      (fun rs -> [ Workload.Commit { shard; ranges = rs; mode } ])
      (without ranges)
  | Workload.Abort [ (shard, ranges) ] when List.length ranges > 1 ->
    List.map (fun rs -> [ Workload.Abort [ (shard, rs) ] ]) (without ranges)
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
  | Workload.Commit { shard; ranges; mode } ->
    variants ranges (fun rs -> Workload.Commit { shard; ranges = rs; mode })
  | Workload.Abort [ (shard, ranges) ] ->
    variants ranges (fun rs -> Workload.Abort [ (shard, rs) ])
  | _ -> []

let edits = [ drop_ranges; shrink_lens ]
