module Types = Rvm_core.Types
module Region = Rvm_core.Region
module Rng = Rvm_util.Rng
module Routing = Rvm_shard.Routing
module Multi = Rvm_shard.Multi

type range = int * int * char

type op =
  | Local of { shard : int; ranges : range list; mode : Types.commit_mode }
  | Cross of { parts : (int * range list) list; mode : Types.commit_mode }
  | Flush
  | Truncate
  | Step of int

type config = {
  shards : int;
  region_len : int;
  log_size : int;
  core : Crash.config;
  truncation_mode : Types.truncation_mode;
  group_commit : bool;
  mid_truncation : bool;
}

let default_config =
  {
    shards = 2;
    region_len = 2 * 4096;
    log_size = 64 * 1024;
    core = { Crash.sector = 512; exhaustive = false; max_torn_per_write = 8 };
    truncation_mode = Types.Epoch;
    group_commit = true;
    mid_truncation = false;
  }

(* --- workload generation --- *)

let gen_ranges ~rng ~region_len ~n =
  List.init
    (1 + Rng.int rng n)
    (fun _ ->
      let len = 1 + Rng.int rng 120 in
      let off = Rng.int rng (region_len - len) in
      (off, len, Char.chr (65 + Rng.int rng 26)))

let max_cross_per_workload = 6

let generate ?(mid_truncation = false) ~rng ~ops ~shards ~region_len () =
  if region_len <= 128 then invalid_arg "Shard_check.generate: region too small";
  let crosses = ref 0 in
  List.init ops (fun _ ->
      let roll = Rng.int rng 10 in
      if roll <= 2 then
        Local
          {
            shard = Rng.int rng shards;
            ranges = gen_ranges ~rng ~region_len ~n:3;
            mode = (if Rng.bool rng then Types.Flush else Types.No_flush);
          }
      else if roll <= 6 && shards >= 2 && !crosses < max_cross_per_workload
      then begin
        incr crosses;
        let k = 2 + Rng.int rng (shards - 1) in
        let all = Array.init shards Fun.id in
        Rng.shuffle rng all;
        let parts =
          List.sort compare
            (List.init k (fun i ->
                 (all.(i), gen_ranges ~rng ~region_len ~n:2)))
        in
        Cross
          {
            parts;
            mode = (if Rng.bool rng then Types.Flush else Types.No_flush);
          }
      end
      else if roll <= 8 then Flush
      else if mid_truncation && Rng.int rng 4 > 0 then Step (1 + Rng.int rng 3)
      else Truncate)

let range_to_string (off, len, c) = Printf.sprintf "%d+%d'%c'" off len c

let op_to_string = function
  | Local { shard; ranges; mode } ->
    Printf.sprintf "Local@%d[%s]%s" shard
      (String.concat ";" (List.map range_to_string ranges))
      (match mode with Types.Flush -> "!" | Types.No_flush -> "~")
  | Cross { parts; mode } ->
    Printf.sprintf "Cross{%s}%s"
      (String.concat "|"
         (List.map
            (fun (s, ranges) ->
              Printf.sprintf "%d:[%s]" s
                (String.concat ";" (List.map range_to_string ranges)))
            parts))
      (match mode with Types.Flush -> "!" | Types.No_flush -> "~")
  | Flush -> "Flush"
  | Truncate -> "Truncate"
  | Step n -> Printf.sprintf "Step%d" n

let to_string ops = String.concat " " (List.map op_to_string ops)

(* --- per-shard reference model --- *)

(* One entry per commit that touched the shard, oldest first once
   reversed. A cross-shard transaction contributes one entry per
   participant shard, all sharing the transaction's [id]. *)
type entry =
  | E_local of (int * Bytes.t) list
  | E_cross of { id : int; writes : (int * Bytes.t) list }

type model = {
  m_shards : int;
  m_region_len : int;
  mutable entries : entry list array;  (* per shard, newest first *)
  cross_parts : (int, int list) Hashtbl.t;  (* id -> participant shards *)
  mutable next_cross : int;
}

let model_create ~shards ~region_len =
  {
    m_shards = shards;
    m_region_len = region_len;
    entries = Array.make shards [];
    cross_parts = Hashtbl.create 16;
    next_cross = 0;
  }

let model_local m ~shard writes =
  m.entries.(shard) <- E_local writes :: m.entries.(shard)

let model_cross m parts =
  let id = m.next_cross in
  m.next_cross <- id + 1;
  Hashtbl.replace m.cross_parts id (List.map fst parts);
  List.iter
    (fun (shard, writes) ->
      m.entries.(shard) <- E_cross { id; writes } :: m.entries.(shard))
    parts;
  id

let entry_count m shard = List.length m.entries.(shard)

(* Shard [s] after its oldest [k] entries, applying a cross entry only
   when its transaction is in the decided-committed set. *)
let model_state m ~shard ~k ~decided =
  let img = Bytes.make m.m_region_len '\000' in
  let apply writes =
    List.iter
      (fun (off, data) -> Bytes.blit data 0 img off (Bytes.length data))
      writes
  in
  List.iteri
    (fun i e ->
      if i < k then
        match e with
        | E_local writes -> apply writes
        | E_cross { id; writes } -> if List.mem id decided then apply writes)
    (List.rev m.entries.(shard));
  img

(* Oldest-first index of cross transaction [id] in shard [s]'s entries,
   if it touched that shard. *)
let cross_index m ~shard ~id =
  let n = entry_count m shard in
  let rec go i = function
    | [] -> None
    | E_cross { id = id'; _ } :: _ when id' = id -> Some (n - 1 - i)
    | _ :: rest -> go (i + 1) rest
  in
  go 0 m.entries.(shard)

(* --- matching: does some (per-shard prefix, decision set) pair explain
   the recovered images? --- *)

type requirement = {
  req_counts : int array;  (* per-shard entries that must survive *)
  req_ids : int list;  (* cross txns that must be committed *)
}

let subsets ids =
  List.fold_left
    (fun acc id -> acc @ List.map (fun s -> id :: s) acc)
    [ [] ] ids

(* All-or-none is enforced structurally: a decided-committed transaction
   must fall inside the surviving prefix of EVERY participant shard (the
   prefix lower bound below), and an undecided one is applied on none. *)
let matches m ~requirement ~images =
  let all_ids = List.init m.next_cross Fun.id in
  let optional =
    List.filter (fun id -> not (List.mem id requirement.req_ids)) all_ids
  in
  if List.length optional > 16 then
    Types.error "shard_check: too many undecided cross transactions (%d)"
      (List.length optional);
  let try_decision decided =
    let ok_shard s =
      let n = entry_count m s in
      let lower =
        List.fold_left
          (fun acc id ->
            match cross_index m ~shard:s ~id with
            | Some i -> max acc (i + 1)
            | None -> acc)
          requirement.req_counts.(s) decided
      in
      let rec search k =
        if k < lower then false
        else if Bytes.equal (model_state m ~shard:s ~k ~decided) images.(s)
        then true
        else search (k - 1)
      in
      search n
    in
    let rec all s = s >= m.m_shards || (ok_shard s && all (s + 1)) in
    all 0
  in
  List.exists
    (fun extra -> try_decision (requirement.req_ids @ extra))
    (subsets optional)

let describe_mismatch m ~requirement ~images =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    "no (per-shard prefixes, cross decisions) explain the recovered images";
  for s = 0 to m.m_shards - 1 do
    let full =
      model_state m ~shard:s ~k:(entry_count m s)
        ~decided:(List.init m.next_cross Fun.id)
    in
    let first_diff =
      let rec go i =
        if i >= Bytes.length full then None
        else if Bytes.get full i <> Bytes.get images.(s) i then Some i
        else go (i + 1)
      in
      go 0
    in
    match first_diff with
    | None ->
      Buffer.add_string buf
        (Printf.sprintf "; shard %d matches the all-committed state" s)
    | Some off ->
      Buffer.add_string buf
        (Printf.sprintf
           "; shard %d (required prefix %d/%d) first differs from the \
            all-committed state at offset %d: expected 0x%02x, recovered \
            0x%02x"
           s requirement.req_counts.(s) (entry_count m s) off
           (Char.code (Bytes.get full off))
           (Char.code (Bytes.get images.(s) off)))
  done;
  Buffer.contents buf

(* --- crash exploration --- *)

(* Segment id for shard [s]: control records use the reserved negative
   sentinel, data segments here are 1..N routed one-per-shard. *)
let seg_of_shard s = s + 1

let make_routing shards =
  Routing.of_table ~shards (List.init shards (fun s -> (seg_of_shard s, s)))

(* [2 * shards] devices in trace order — every shard's log, then every
   shard's segment — as [Multi]'s logs and segment resolver. *)
let split shards devs =
  let routing = make_routing shards in
  ( Array.sub devs 0 shards,
    fun seg -> devs.(shards + Routing.shard_of routing ~seg) )

let trace_shards rig ~shards ~log_size ~seg_size =
  let make kind size =
    Array.init shards (fun s ->
        Crash.device rig ~name:(Printf.sprintf "check-%s%d" kind s) ~size:(size s))
  in
  let logs = make "log" (fun _ -> log_size) in
  let segs = make "seg" seg_size in
  Multi.create_logs logs;
  (* One shared recorder across every device: a crash is a moment in the
     global write order, and the inter-shard boundaries of the parallel
     commit round are exactly the event boundaries between one shard's
     force and the next. Trace after formatting. *)
  let trace kind =
    Array.mapi (fun s d -> Crash.trace rig ~label:(Printf.sprintf "%s%d" kind s) d)
  in
  let logs = trace "log" logs in
  split shards (Array.append logs (trace "seg" segs))

(* Open the engine on [(logs, resolve)]; map every shard's region. *)
let mount ?obs config (logs, resolve) =
  let options =
    Explorer.options ~truncation_mode:config.truncation_mode
      ~group_commit:config.group_commit ~mid_truncation:config.mid_truncation
  in
  let m =
    Multi.reinitialize ~options ?obs ~routing:(make_routing config.shards)
      ~logs ~resolve ()
  in
  ( m,
    Array.init config.shards (fun s ->
        (Multi.map m ~seg:(seg_of_shard s) ~seg_off:0 ~len:config.region_len ())
          .Region.vaddr) )

let recover config images =
  let m, bases = mount config (split config.shards images) in
  Array.map (fun addr -> Multi.load m ~addr ~len:config.region_len) bases

let world config ops rig =
  let shards = config.shards in
  let m, bases =
    mount config ~obs:(Crash.obs rig)
      (trace_shards rig ~shards ~log_size:config.log_size
         ~seg_size:(fun _ -> config.region_len))
  in
  let model = model_create ~shards ~region_len:config.region_len in
  (* Durability checkpoints, oldest last: at [event_count], the entries in
     [counts] and the cross transactions in [ids] must survive any later
     crash. Under-approximating (forces the engine takes on its own are
     not counted) is sound. *)
  let checkpoints = ref [ (0, Array.make shards 0, []) ] in
  let committed_ids = ref [] in
  let note_checkpoint ~shards_durable ~ids =
    let counts =
      Array.init shards (fun s ->
          if List.mem s shards_durable then entry_count model s
          else
            match !checkpoints with
            | (_, prev, _) :: _ -> prev.(s)
            | [] -> 0)
    in
    checkpoints := (Crash.events_so_far rig, counts, ids) :: !checkpoints
  in
  let write_ranges tid base ranges =
    List.map
      (fun (off, len, c) ->
        let data = Bytes.make len c in
        Multi.modify m tid ~addr:(base + off) data;
        (off, data))
      ranges
  in
  List.iter
    (fun op ->
      match op with
      | Local { shard; ranges; mode } ->
        let tid = Multi.begin_transaction m ~mode:Types.Restore in
        let writes =
          write_ranges tid bases.(shard) ranges
        in
        Multi.end_transaction m tid ~mode;
        model_local model ~shard writes;
        if mode = Types.Flush then
          (* The commit's force drains shard [shard]'s tail, so every
             earlier entry on that shard is durable too. *)
          note_checkpoint ~shards_durable:[ shard ] ~ids:!committed_ids
      | Cross { parts; mode } ->
        let tid = Multi.begin_transaction m ~mode:Types.Restore in
        let writes =
          List.map
            (fun (shard, ranges) ->
              (shard, write_ranges tid bases.(shard) ranges))
            parts
        in
        Multi.end_transaction m tid ~mode;
        let id = model_cross model writes in
        if mode = Types.Flush then begin
          (* The parallel-commit round forced every participant's log:
             the transaction is implicitly committed from here on, and
             each participant's earlier entries are durable. *)
          committed_ids := id :: !committed_ids;
          note_checkpoint ~shards_durable:(List.map fst parts)
            ~ids:!committed_ids
        end
      | Flush ->
        Multi.flush m;
        (* Global flush: every shard's tail forced, every pending
           cross-shard commit resolved. *)
        committed_ids := List.init model.next_cross Fun.id;
        note_checkpoint
          ~shards_durable:(List.init shards Fun.id)
          ~ids:!committed_ids
      | Truncate -> Multi.truncate m
      | Step n ->
        for _ = 1 to n do
          ignore (Multi.truncation_step m)
        done)
    ops;
  let checkpoints = !checkpoints in
  let requirement_at k =
    let counts = Array.make shards 0 in
    let ids = ref [] in
    List.iter
      (fun (e, c, i) ->
        if e <= k then begin
          Array.iteri (fun s v -> if v > counts.(s) then counts.(s) <- v) c;
          List.iter
            (fun id -> if not (List.mem id !ids) then ids := id :: !ids)
            i
        end)
      checkpoints;
    { req_counts = counts; req_ids = !ids }
  in
  let oracle (crash : Crash.crash_point) images =
    let requirement = requirement_at crash.Crash.upto in
    if matches model ~requirement ~images then None
    else Some (describe_mismatch model ~requirement ~images)
  in
  {
    Crash.recover = recover config;
    oracle;
    commits = Array.fold_left (fun acc e -> acc + List.length e) 0 model.entries;
    counters = [ ("cross-shard", model.next_cross) ];
  }

let run ?(config = default_config) ops =
  if config.shards < 1 then invalid_arg "Shard_check.run: shards must be >= 1";
  Crash.run config.core (world config ops)

let violates ?config ops = (run ?config ops).Crash.violations <> []
