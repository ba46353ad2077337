module Types = Rvm_core.Types

(* One entry per commit that touched the shard. A cross-shard transaction
   contributes one entry per participant shard, all sharing its [id]. *)
type entry =
  | Local of (int * Bytes.t) list
  | Cross of { id : int; writes : (int * Bytes.t) list }

type t = {
  shards : int;
  region_len : int;
  entries : entry list array;  (* per shard, newest first *)
  mutable crosses : int;
}

let create ~shards ~region_len =
  { shards; region_len; entries = Array.make shards []; crosses = 0 }

let commit t ~shard writes =
  t.entries.(shard) <- Local writes :: t.entries.(shard)

let cross t parts =
  let id = t.crosses in
  t.crosses <- id + 1;
  List.iter
    (fun (shard, writes) ->
      t.entries.(shard) <- Cross { id; writes } :: t.entries.(shard))
    parts;
  id

let entries t shard = List.length t.entries.(shard)
let crosses t = t.crosses

(* Shard [shard] after its oldest [k] entries, applying a cross entry only
   when its transaction is in the decided-committed set. *)
let state t ~shard ~k ~decided =
  let img = Bytes.make t.region_len '\000' in
  let apply writes =
    List.iter
      (fun (off, data) -> Bytes.blit data 0 img off (Bytes.length data))
      writes
  in
  List.iteri
    (fun i e ->
      if i < k then
        match e with
        | Local writes -> apply writes
        | Cross { id; writes } -> if List.mem id decided then apply writes)
    (List.rev t.entries.(shard));
  img

(* Oldest-first index of cross transaction [id] in shard [shard]'s
   entries, if it touched that shard. *)
let cross_index t ~shard ~id =
  let n = entries t shard in
  let rec go i = function
    | [] -> None
    | Cross { id = id'; _ } :: _ when id' = id -> Some (n - 1 - i)
    | _ :: rest -> go (i + 1) rest
  in
  go 0 t.entries.(shard)

type requirement = { counts : int array; ids : int list }

let subsets ids =
  List.fold_left
    (fun acc id -> acc @ List.map (fun s -> id :: s) acc)
    [ [] ] ids

(* All-or-none is enforced structurally: a decided-committed transaction
   must fall inside the surviving prefix of EVERY participant shard (the
   prefix lower bound below), and an undecided one is applied on none. *)
let matches t req images =
  let optional =
    List.filter
      (fun id -> not (List.mem id req.ids))
      (List.init t.crosses Fun.id)
  in
  if List.length optional > 16 then
    Types.error "model: too many undecided cross transactions (%d)"
      (List.length optional);
  let try_decision decided =
    let ok_shard s =
      let lower =
        List.fold_left
          (fun acc id ->
            match cross_index t ~shard:s ~id with
            | Some i -> max acc (i + 1)
            | None -> acc)
          req.counts.(s) decided
      in
      let rec search k =
        k >= lower
        && (Bytes.equal (state t ~shard:s ~k ~decided) images.(s)
           || search (k - 1))
      in
      search (entries t s)
    in
    let rec all s = s >= t.shards || (ok_shard s && all (s + 1)) in
    all 0
  in
  List.exists (fun extra -> try_decision (req.ids @ extra)) (subsets optional)

let describe_mismatch t req images =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    "no (per-shard prefixes, cross decisions) explain the recovered images";
  for s = 0 to t.shards - 1 do
    let full =
      state t ~shard:s ~k:(entries t s) ~decided:(List.init t.crosses Fun.id)
    in
    let rec first_diff i =
      if i >= Bytes.length full then None
      else if Bytes.get full i <> Bytes.get images.(s) i then Some i
      else first_diff (i + 1)
    in
    match first_diff 0 with
    | None ->
      Printf.bprintf buf "; shard %d matches the all-committed state" s
    | Some off ->
      Printf.bprintf buf
        "; shard %d (required prefix %d/%d) first differs from the \
         all-committed state at offset %d: expected 0x%02x, recovered 0x%02x"
        s req.counts.(s) (entries t s) off
        (Char.code (Bytes.get full off))
        (Char.code (Bytes.get images.(s) off))
  done;
  Buffer.contents buf
