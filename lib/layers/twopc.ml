module Rvm = Rvm_core.Rvm
module Region = Rvm_core.Region
module Types = Rvm_core.Types
module Intervals = Rvm_util.Intervals

type gid = string

(* --- subordinate --- *)

type branch_state = Active | Prepared

type branch = {
  mutable tid : Rvm.tid;
  covered : Intervals.t;
  mutable compensation : (int * Bytes.t) list;  (* (addr, old value) *)
  mutable state : branch_state;
}

type sub = {
  s_name : string;
  mutable s_rvm : Rvm.t;
  branches : (gid, branch) Hashtbl.t;
}

let sub_create ~name rvm = { s_name = name; s_rvm = rvm; branches = Hashtbl.create 8 }
let sub_name s = s.s_name

(* After a crash-recovery of the underlying instance, every branch of the
   previous incarnation is dead: its tid belongs to a terminated engine and
   its compensation data describes buffers that no longer exist. Rebind the
   subordinate to the recovered instance and drop the volatile state —
   without this, a second recovery in one process finds ghost branches
   ("branch already active", phantom in-doubt gids). *)
let sub_reset ?rvm s =
  (match rvm with Some r -> s.s_rvm <- r | None -> ());
  Hashtbl.reset s.branches

let branch s gid =
  match Hashtbl.find_opt s.branches gid with
  | Some b -> b
  | None -> Types.error "2pc[%s]: no branch for %S" s.s_name gid

let sub_begin s gid =
  if Hashtbl.mem s.branches gid then
    Types.error "2pc[%s]: branch %S already active" s.s_name gid;
  let tid = Rvm.begin_transaction s.s_rvm ~mode:Types.Restore in
  Hashtbl.add s.branches gid
    { tid; covered = Intervals.create (); compensation = []; state = Active }

let sub_modify s gid ~addr bytes =
  let b = branch s gid in
  if b.state <> Active then
    Types.error "2pc[%s]: branch %S is prepared" s.s_name gid;
  let len = Bytes.length bytes in
  (* Compensation data: the old value of each newly covered byte — the
     old-value records the paper proposes end_transaction should return. *)
  Intervals.add_uncovered b.covered ~lo:addr ~len ~f:(fun ~lo ~len ->
      b.compensation <- (lo, Rvm.load s.s_rvm ~addr:lo ~len) :: b.compensation);
  Rvm.modify s.s_rvm b.tid ~addr bytes

let sub_prepare s gid =
  let b = branch s gid in
  if b.state <> Active then
    Types.error "2pc[%s]: branch %S already prepared" s.s_name gid;
  (* First-phase commit: full permanence so the prepared state survives a
     crash of the site (the compensation data is what lets a later global
     abort undo it). *)
  Rvm.end_transaction s.s_rvm b.tid ~mode:Types.Flush;
  b.state <- Prepared;
  `Prepared

let sub_refuse s gid =
  let b = branch s gid in
  Rvm.abort_transaction s.s_rvm b.tid;
  Hashtbl.remove s.branches gid

let sub_commit s gid =
  let b = branch s gid in
  if b.state <> Prepared then
    Types.error "2pc[%s]: commit of unprepared branch %S" s.s_name gid;
  Hashtbl.remove s.branches gid

let sub_abort s gid =
  let b = branch s gid in
  (match b.state with
  | Active -> Rvm.abort_transaction s.s_rvm b.tid
  | Prepared ->
    (* Compensating transaction: restore every modified byte. *)
    let tid = Rvm.begin_transaction s.s_rvm ~mode:Types.Restore in
    List.iter
      (fun (addr, old_value) -> Rvm.modify s.s_rvm tid ~addr old_value)
      b.compensation;
    Rvm.end_transaction s.s_rvm tid ~mode:Types.Flush);
  Hashtbl.remove s.branches gid

let sub_in_doubt s =
  Hashtbl.fold
    (fun gid b acc -> if b.state = Prepared then gid :: acc else acc)
    s.branches []

(* --- coordinator --- *)

(* Decision records live in recoverable memory: 40-byte entries of
   zero-padded gid (32 bytes) + decision byte, preceded by a count. *)

type coordinator = { mutable c_rvm : Rvm.t; mutable region : Region.t }

type decision = Committed | Aborted

let gid_bytes = 32
let entry_size = gid_bytes + 8

let coordinator_create rvm ~decision_region =
  { c_rvm = rvm; region = decision_region }

(* The coordinator's durable state is the decision region; its in-process
   handles (engine, region descriptor) die with recovery. Rebind them —
   the re-mapped region again holds every decision ever persisted, so
   in-doubt queries keep working across any number of recoveries. *)
let coordinator_reset c rvm ~decision_region =
  c.c_rvm <- rvm;
  c.region <- decision_region

let decision_count c =
  Int64.to_int (Rvm.get_i64 c.c_rvm ~addr:c.region.Region.vaddr)

let entry_addr c i = c.region.Region.vaddr + 8 + (i * entry_size)

let pad_gid gid =
  if String.length gid > gid_bytes then
    Types.error "2pc: gid %S longer than %d bytes" gid gid_bytes;
  let b = Bytes.make gid_bytes '\000' in
  Bytes.blit_string gid 0 b 0 (String.length gid);
  b

let lookup_decision c gid =
  let padded = pad_gid gid in
  let n = decision_count c in
  let rec go i =
    if i >= n then None
    else
      let a = entry_addr c i in
      if Rvm.load c.c_rvm ~addr:a ~len:gid_bytes = padded then
        match Rvm.get_u8 c.c_rvm ~addr:(a + gid_bytes) with
        | 1 -> Some Committed
        | _ -> Some Aborted
      else go (i + 1)
  in
  go 0

let persist_decision c gid d =
  let n = decision_count c in
  let a = entry_addr c n in
  if a + entry_size > Region.end_vaddr c.region then
    Types.error "2pc: decision region full";
  let tid = Rvm.begin_transaction c.c_rvm ~mode:Types.Restore in
  Rvm.modify c.c_rvm tid ~addr:a (pad_gid gid);
  Rvm.set_range c.c_rvm tid ~addr:(a + gid_bytes) ~len:1;
  Rvm.set_u8 c.c_rvm ~addr:(a + gid_bytes) (match d with Committed -> 1 | Aborted -> 0);
  Rvm.set_range c.c_rvm tid ~addr:c.region.Region.vaddr ~len:8;
  Rvm.set_i64 c.c_rvm ~addr:c.region.Region.vaddr (Int64.of_int (n + 1));
  (* The decision must be durable before any announcement: this is the
     commit point of the whole distributed transaction. *)
  Rvm.end_transaction c.c_rvm tid ~mode:Types.Flush

(* --- parallel commit (CockroachDB's ParallelCommits.tla; DESIGN.md §10) --- *)

module Parallel = struct
  module Pcommit = Rvm_log.Pcommit

  type evidence = {
    staged : int list option;
    intents : int list;
    resolutions : Pcommit.decision list;
  }

  let no_evidence = { staged = None; intents = []; resolutions = [] }

  let resolve e =
    match e.resolutions with
    | d :: rest ->
      (* Resolutions are only ever written after the decision is fixed
         (implicit commit reached, or orphan abort declared), so two
         contradicting ones mean a corrupted image — refuse to guess. *)
      if List.exists (fun d' -> d' <> d) rest then
        Types.error "parallel commit: contradictory resolution records";
      d
    | [] -> (
      match e.staged with
      | Some participants
        when participants <> []
             && List.for_all (fun s -> List.mem s e.intents) participants ->
        (* The implicit-commit condition: the staged record plus every
           named participant's intent survived. *)
        Pcommit.Committed
      | Some _ | None ->
        (* Orphan: the staged record is missing, or names a participant
           whose intent did not survive (torn away, or its checksum —
           hence the whole record — failed to verify). *)
        Pcommit.Aborted)

  type state =
    | Pending
    | Staged_in_flight
    | Implicit
    | Explicit of Pcommit.decision

  type event =
    | Write_round  (** intents + staged record appended, one round *)
    | All_durable  (** every participant's force returned *)
    | Resolve of Pcommit.decision  (** explicit resolution written *)

  let state_name = function
    | Pending -> "pending"
    | Staged_in_flight -> "staged-in-flight"
    | Implicit -> "implicit"
    | Explicit d -> "explicit-" ^ Pcommit.decision_to_string d

  let event_name = function
    | Write_round -> "write-round"
    | All_durable -> "all-durable"
    | Resolve d -> "resolve-" ^ Pcommit.decision_to_string d

  let step state event =
    match (state, event) with
    | Pending, Write_round -> Ok Staged_in_flight
    | Staged_in_flight, All_durable -> Ok Implicit
    | Implicit, Resolve Pcommit.Committed -> Ok (Explicit Pcommit.Committed)
    | Staged_in_flight, Resolve Pcommit.Aborted
    | Pending, Resolve Pcommit.Aborted ->
      (* Orphan abort: resolution before the implicit-commit point is only
         ever an abort — committing without full durable evidence is the
         protocol's one forbidden move. *)
      Ok (Explicit Pcommit.Aborted)
    | (Explicit _ as s), Resolve d when s = Explicit d ->
      (* Re-resolving with the same decision is idempotent (several
         participant logs each get a resolution record). *)
      Ok s
    | s, e ->
      Error
        (Printf.sprintf "illegal transition: %s on %s" (state_name s)
           (event_name e))
end

let run c gid ~participants ~work ?(fail_vote = fun _ -> false) () =
  List.iter (fun s -> sub_begin s gid) participants;
  List.iter (fun s -> work s) participants;
  (* Phase one: collect votes. *)
  let votes =
    List.map
      (fun s ->
        if fail_vote s.s_name then begin
          sub_refuse s gid;
          (s, `Refused)
        end
        else (s, sub_prepare s gid))
      participants
  in
  let all_prepared = List.for_all (fun (_, v) -> v = `Prepared) votes in
  let d = if all_prepared then Committed else Aborted in
  persist_decision c gid d;
  (* Phase two. *)
  List.iter
    (fun (s, v) ->
      match (d, v) with
      | Committed, `Prepared -> sub_commit s gid
      | Aborted, `Prepared -> sub_abort s gid
      | _, `Refused -> ())
    votes;
  d
