type mode = Shared | Update | Exclusive

type t = {
  locks : (string, (int * mode) list ref) Hashtbl.t;
  held : (int, string list) Hashtbl.t;
      (* owner -> the keys it holds, each once: release touches only
         these, never the whole lock table *)
  waits : (int, int list) Hashtbl.t;  (* owner -> owners it waits for *)
  stamps : (string, int * int) Hashtbl.t;
      (* key -> (commit LSN, writer) of the key's last committed holder.
         The early-lock-release dependency rule: the next owner to touch
         the key inherits the stamp as an ack dependency — it must not
         acknowledge before the stamped commit is durable. *)
}

let create () =
  {
    locks = Hashtbl.create 64;
    held = Hashtbl.create 16;
    waits = Hashtbl.create 16;
    stamps = Hashtbl.create 64;
  }

let cell t key =
  match Hashtbl.find_opt t.locks key with
  | Some c -> c
  | None ->
    let c = ref [] in
    Hashtbl.add t.locks key c;
    c

(* Update is compatible with Shared holders and nothing else: one
   updater reads beside any number of readers, and two updaters queue at
   the Update request instead of deadlocking at the upgrade. *)
let compatible holders ~owner ~mode =
  let blockers =
    List.filter_map
      (fun (o, m) ->
        let ok =
          match (mode, m) with
          | Shared, (Shared | Update) | Update, Shared -> true
          | _ -> false
        in
        if o = owner || ok then None else Some o)
      holders
  in
  if blockers = [] then Ok () else Error blockers

let keys_of t owner = Option.value (Hashtbl.find_opt t.held owner) ~default:[]

let try_acquire t ~owner ~key mode =
  let c = cell t key in
  match compatible !c ~owner ~mode with
  | Error blockers -> `Conflict (List.sort_uniq compare blockers)
  | Ok () ->
    let mine = List.assoc_opt owner !c in
    if Option.is_none mine then
      Hashtbl.replace t.held owner (key :: keys_of t owner);
    let merged =
      match (mine, mode) with
      | Some Exclusive, _ | _, Exclusive -> Exclusive  (* fresh X, or upgrade *)
      | Some Update, _ | _, Update -> Update
      | (Some Shared | None), Shared -> Shared
    in
    c := (owner, merged) :: List.remove_assoc owner !c;
    `Granted

(* Cycle check in the wait-for graph starting from [src]. *)
let reaches t ~src ~dst =
  let seen = Hashtbl.create 8 in
  let rec go o =
    o = dst
    || (not (Hashtbl.mem seen o))
       && begin
            Hashtbl.add seen o ();
            List.exists go (Option.value (Hashtbl.find_opt t.waits o) ~default:[])
          end
  in
  go src

let wait_for t ~owner ~key mode =
  match try_acquire t ~owner ~key mode with
  | `Granted ->
    Hashtbl.remove t.waits owner;
    `Granted
  | `Conflict blockers ->
    if List.exists (fun b -> reaches t ~src:b ~dst:owner) blockers then
      `Deadlock
    else begin
      Hashtbl.replace t.waits owner blockers;
      `Wait blockers
    end

(* LSNs are assigned in commit order, so a plain replace keeps each key's
   stamp monotone. *)
let stamp_held t ~owner s =
  List.iter (fun key -> Hashtbl.replace t.stamps key s) (keys_of t owner)

let release_all t ~owner =
  let keys = keys_of t owner in
  Hashtbl.remove t.held owner;
  List.iter
    (fun key ->
      let c = Hashtbl.find t.locks key in
      c := List.filter (fun (o, _) -> o <> owner) !c)
    keys;
  Hashtbl.remove t.waits owner;
  (* Drop the reverse edges too — waiters blocked on the released owner.
     Collect first: replacing/removing inside Hashtbl.iter over the same
     table is unspecified behavior. *)
  let updates =
    Hashtbl.fold
      (fun o blockers acc ->
        if List.mem owner blockers then
          (o, List.filter (fun b -> b <> owner) blockers) :: acc
        else acc)
      t.waits []
  in
  List.iter
    (fun (o, blockers) ->
      if blockers = [] then Hashtbl.remove t.waits o
      else Hashtbl.replace t.waits o blockers)
    updates

let stamp t ~key = Hashtbl.find_opt t.stamps key

let wait_edges t =
  Hashtbl.fold (fun o blockers acc -> (o, List.sort compare blockers) :: acc)
    t.waits []
  |> List.sort compare

let holders t ~key =
  match Hashtbl.find_opt t.locks key with Some c -> !c | None -> []

let held_keys t ~owner = List.sort compare (keys_of t owner)

let lock_count t =
  Hashtbl.fold (fun _ c acc -> acc + List.length !c) t.locks 0
