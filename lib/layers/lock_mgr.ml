type mode = Shared | Update | Exclusive

(* One owner's hold on a key, in the strongest mode granted so far: a
   re-grant rewrites [mode] in place. *)
type holder = { owner : int; mutable mode : mode }

(* Everything known about one key, made on the key's first request and
   kept: its holders, and the (commit LSN, writer) of its last committed
   holder. The early-lock-release dependency rule: the next owner to
   touch the key inherits the stamp as an ack dependency — it must not
   acknowledge before the stamped commit is durable. The stamp is stored
   as the option {!stamp} returns, so reading it allocates nothing. *)
type lock = {
  key : string;
  mutable holders : holder list;
  mutable stamp : (int * int) option;
}

type t = {
  locks : (string, lock) Hashtbl.t;
  held : (int, lock list) Hashtbl.t;
      (* owner -> the locks it holds, each once: release and stamping
         touch only these, never the whole lock table *)
  waits : (int, int list) Hashtbl.t;  (* owner -> owners it waits for *)
}

let create () =
  {
    locks = Hashtbl.create 64;
    held = Hashtbl.create 16;
    waits = Hashtbl.create 16;
  }

let lock t key =
  match Hashtbl.find t.locks key with
  | l -> l
  | exception Not_found ->
    let l = { key; holders = []; stamp = None } in
    Hashtbl.add t.locks key l;
    l

let locks_of t owner =
  match Hashtbl.find t.held owner with ls -> ls | exception Not_found -> []

(* Update is compatible with Shared holders and nothing else: one
   updater reads beside any number of readers, and two updaters queue at
   the Update request instead of deadlocking at the upgrade. *)
let compatible ~mode held =
  match (mode, held) with
  | Shared, (Shared | Update) | Update, Shared -> true
  | _ -> false

(* The grant test and the blockers it fails on are separate walks, so a
   grant — the common case — builds no list. *)
let rec grantable ~owner ~mode = function
  | [] -> true
  | h :: rest ->
    (h.owner = owner || compatible ~mode h.mode) && grantable ~owner ~mode rest

let blockers holders ~owner ~mode =
  List.sort_uniq compare
    (List.filter_map
       (fun h ->
         if h.owner = owner || compatible ~mode h.mode then None
         else Some h.owner)
       holders)

let rec holder_of owner = function
  | [] -> raise Not_found
  | h :: rest -> if h.owner = owner then h else holder_of owner rest

(* An owner holds a key at most once, so dropping its first hold drops
   them all; a sole holder's release copies nothing. *)
let rec without owner = function
  | [] -> []
  | h :: rest -> if h.owner = owner then rest else h :: without owner rest

(* A re-grant keeps the stronger of the held and requested modes. *)
let merge held mode =
  match (held, mode) with
  | Exclusive, _ | _, Exclusive -> Exclusive  (* fresh X, or upgrade *)
  | Update, _ | _, Update -> Update
  | Shared, Shared -> Shared

(* The owner granted last leads the holders; it usually leads them
   already, and then a re-grant allocates nothing. *)
let grant t l ~owner mode =
  match l.holders with
  | h :: _ when h.owner = owner -> h.mode <- merge h.mode mode
  | hs -> (
    match holder_of owner hs with
    | h ->
      h.mode <- merge h.mode mode;
      l.holders <- h :: without owner hs
    | exception Not_found ->
      l.holders <- { owner; mode } :: hs;
      Hashtbl.replace t.held owner (l :: locks_of t owner))

let try_acquire t ~owner ~key mode =
  let l = lock t key in
  if grantable ~owner ~mode l.holders then begin
    grant t l ~owner mode;
    `Granted
  end
  else `Conflict (blockers l.holders ~owner ~mode)

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

let rec set_stamps s = function
  | [] -> ()
  | l :: rest ->
    l.stamp <- s;
    set_stamps s rest

(* LSNs are assigned in commit order, so a plain replace keeps each key's
   stamp monotone. *)
let stamp_held t ~owner s =
  match Hashtbl.find t.held owner with
  | ls -> set_stamps (Some s) ls
  | exception Not_found -> ()

let rec drop_holds owner = function
  | [] -> ()
  | l :: rest ->
    l.holders <- without owner l.holders;
    drop_holds owner rest

let release_all t ~owner =
  (match Hashtbl.find t.held owner with
  | ls ->
    Hashtbl.remove t.held owner;
    drop_holds owner ls
  | exception Not_found -> ());
  if Hashtbl.length t.waits > 0 then begin
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
  end

let stamp t ~key =
  match Hashtbl.find t.locks key with l -> l.stamp | exception Not_found -> None

let wait_edges t =
  Hashtbl.fold (fun o blockers acc -> (o, List.sort compare blockers) :: acc)
    t.waits []
  |> List.sort compare

let holders t ~key =
  match Hashtbl.find_opt t.locks key with
  | Some l -> List.map (fun h -> (h.owner, h.mode)) l.holders
  | None -> []

let held_keys t ~owner =
  List.sort compare (List.map (fun l -> l.key) (locks_of t owner))

let lock_count t =
  Hashtbl.fold (fun _ l acc -> acc + List.length l.holders) t.locks 0
