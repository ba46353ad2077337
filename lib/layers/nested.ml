module Rvm = Rvm_core.Rvm
module Types = Rvm_core.Types
module Intervals = Rvm_util.Intervals

type ntid = int

type level = {
  id : ntid;
  parent : ntid option;
  rvm_tid : Rvm.tid;  (* the top-level RVM transaction this belongs to *)
  depth : int;
  covered : Intervals.t;  (* vaddr intervals declared at this level *)
  mutable undo : (int * Bytes.t) list;  (* (addr, old value), newest first *)
  mutable child : ntid option;
  mutable alive : bool;
}

type t = {
  rvm : Rvm.t;
  levels : (ntid, level) Hashtbl.t;
  mutable next_id : int;
}

let create rvm = { rvm; levels = Hashtbl.create 16; next_id = 1 }

let find t id =
  match Hashtbl.find_opt t.levels id with
  | Some l when l.alive -> l
  | Some _ -> Types.error "nested: transaction %d is no longer active" id
  | None -> Types.error "nested: unknown transaction %d" id

let fresh t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let begin_top t =
  let id = fresh t in
  let rvm_tid = Rvm.begin_transaction t.rvm ~mode:Types.Restore in
  Hashtbl.add t.levels id
    {
      id;
      parent = None;
      rvm_tid;
      depth = 0;
      covered = Intervals.create ();
      undo = [];
      child = None;
      alive = true;
    };
  id

let begin_nested t ~parent =
  let p = find t parent in
  (match p.child with
  | Some c -> Types.error "nested: transaction %d already has active child %d" parent c
  | None -> ());
  let id = fresh t in
  Hashtbl.add t.levels id
    {
      id;
      parent = Some parent;
      rvm_tid = p.rvm_tid;
      depth = p.depth + 1;
      covered = Intervals.create ();
      undo = [];
      child = None;
      alive = true;
    };
  p.child <- Some id;
  id

let require_leaf l =
  match l.child with
  | Some c ->
    Types.error "nested: transaction %d has unresolved child %d" l.id c
  | None -> ()

let set_range t id ~addr ~len =
  let l = find t id in
  require_leaf l;
  (* Save this level's undo data for the newly covered bytes only, then
     forward to RVM so the eventual top-level commit logs them. *)
  Intervals.add_uncovered l.covered ~lo:addr ~len ~f:(fun ~lo ~len ->
      l.undo <- (lo, Rvm.load t.rvm ~addr:lo ~len) :: l.undo);
  Rvm.set_range t.rvm l.rvm_tid ~addr ~len

let modify t id ~addr bytes =
  set_range t id ~addr ~len:(Bytes.length bytes);
  Rvm.store t.rvm ~addr bytes

let finish t l =
  l.alive <- false;
  (match l.parent with
  | Some p -> (Hashtbl.find t.levels p).child <- None
  | None -> ());
  Hashtbl.remove t.levels l.id

let commit t id ?(mode = Types.Flush) () =
  let l = find t id in
  require_leaf l;
  (match l.parent with
  | None -> Rvm.end_transaction t.rvm l.rvm_tid ~mode
  | Some p ->
    (* Merge the undo log into the parent: bytes this level saved that the
       parent had not covered become the parent's responsibility. *)
    let parent = Hashtbl.find t.levels p in
    List.iter
      (fun (addr, old_value) ->
        let len = Bytes.length old_value in
        Intervals.add_uncovered parent.covered ~lo:addr ~len
          ~f:(fun ~lo ~len ->
            parent.undo <-
              (lo, Bytes.sub old_value (lo - addr) len) :: parent.undo))
      (List.rev l.undo));
  finish t l

let abort t id =
  let l = find t id in
  require_leaf l;
  (* Restore this level's bytes. Each byte appears at most once in the undo
     log, so order does not matter. For a top-level abort RVM itself
     restores everything, including committed children's changes. *)
  (match l.parent with
  | None -> Rvm.abort_transaction t.rvm l.rvm_tid
  | Some _ ->
    List.iter
      (fun (addr, old_value) -> Rvm.store t.rvm ~addr old_value)
      l.undo);
  finish t l

let depth t id = (find t id).depth
let active t = Hashtbl.length t.levels
