module Log_manager = Rvm_log.Log_manager
module Record = Rvm_log.Record
module Pcommit = Rvm_log.Pcommit
module Intervals = Rvm_util.Intervals
module Clock = Rvm_util.Clock
module Cost_model = Rvm_util.Cost_model

let src = Logs.Src.create "rvm.recovery" ~doc:"RVM crash recovery"

module L = (val Logs.src_log src : Logs.LOG)

type outcome = {
  records_seen : int;
  bytes_applied : int;
  segments_touched : Segment.t list;
}

type plan = {
  plan_writes : (int * int * Bytes.t) list;
  plan_preserved : Record.t list;
  plan_records_seen : int;
}

let controls live =
  (* Prepending while walking newest-first leaves the list oldest first. *)
  let acc = ref [] in
  Log_manager.iter_backward live ~f:(fun ~off:_ r ->
      match Pcommit.classify r with
      | `Control c -> acc := c :: !acc
      | `Plain | `Malformed -> ());
  !acc

let plan_live ?before_seqno ?(intent_decision = fun _ -> `Abort) log =
  (* One read of the live window, two passes over it. The first collects
     explicit resolution records over the whole log (not just the frozen
     window — a resolution appended after the epoch boundary still tells
     the truth about an intent inside it); in-log resolutions take
     precedence over the caller's callback. The second scans newest-first
     with per-segment covered intervals and returns the gap writes, whose
     data is copied out of the decoded records: the plan stays valid while
     new commits append past the frozen window. *)
  let live = Log_manager.view log in
  let resolutions : (string, Pcommit.decision) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (function
      | Pcommit.Resolution { gid; decision } ->
        (* Oldest first: the newest resolution for a gid wins (they never
           disagree when written by this engine, but be deterministic). *)
        Hashtbl.replace resolutions gid decision
      | Pcommit.Intent _ | Pcommit.Stage _ -> ())
    (controls live);
  let decide gid =
    match Hashtbl.find_opt resolutions gid with
    | Some Pcommit.Committed -> `Commit
    | Some Pcommit.Aborted -> `Abort
    | None -> intent_decision gid
  in
  let covered : (int, Intervals.t) Hashtbl.t = Hashtbl.create 8 in
  let records_seen = ref 0 in
  let writes = ref [] in
  let preserved = ref [] in
  let wanted (r : Record.t) =
    r.Record.kind = Record.Commit
    && match before_seqno with None -> true | Some b -> r.Record.seqno < b
  in
  let plan_ranges ranges =
    List.iter
      (fun (range : Record.range) ->
        if not (Pcommit.is_control range) then begin
          let seg = range.Record.seg and off = range.Record.off in
          let cov =
            match Hashtbl.find_opt covered seg with
            | Some cov -> cov
            | None ->
              let cov = Intervals.create () in
              Hashtbl.add covered seg cov;
              cov
          in
          Intervals.add_uncovered cov ~lo:off
            ~len:(Bytes.length range.Record.data) ~f:(fun ~lo ~len ->
              let data = Bytes.sub range.Record.data (lo - off) len in
              writes := (seg, lo, data) :: !writes)
        end)
      ranges
  in
  Log_manager.iter_backward live ~f:(fun ~off:_ r ->
      if wanted r then begin
        incr records_seen;
        match Pcommit.classify r with
        | `Plain -> plan_ranges r.Record.ranges
        | `Control (Pcommit.Stage _) | `Control (Pcommit.Resolution _) ->
          (* Control-only records; nothing to apply. *)
          ()
        | `Control (Pcommit.Intent { gid; _ }) -> (
          match decide gid with
          | `Commit -> plan_ranges r.Record.ranges
          | `Abort -> ()
          | `Pending ->
            (* Mid-protocol intent: neither committed nor orphaned. The
               caller must re-append it past the truncation point so the
               eventual resolution still finds its evidence. Prepending
               while walking newest-first leaves the list oldest first. *)
            preserved := r :: !preserved)
        | `Malformed ->
          (* A parallel-commit flag with missing or corrupt evidence: treat
             as unresolvable, toward abort — never apply its ranges. *)
          L.warn (fun m ->
              m "malformed parallel-commit record seqno=%d dropped"
                r.Record.seqno)
      end);
  {
    plan_writes = List.rev !writes;
    plan_preserved = !preserved;
    plan_records_seen = !records_seen;
  }

let recover ?obs ~resolve ~clock ~model log =
  let span name f =
    match obs with Some reg -> Rvm_obs.Registry.span reg name f | None -> f ()
  in
  let plan = span "recovery.plan" (fun () -> plan_live log) in
  let bytes_applied = ref 0 in
  let touched =
    span "recovery.apply" @@ fun () ->
    let segs = Hashtbl.create 8 in
    List.iter
      (fun (id, off, data) ->
        if not (Hashtbl.mem segs id) then Hashtbl.add segs id (resolve id);
        let len = Bytes.length data in
        Segment.write (Hashtbl.find segs id) ~off ~buf:data ~pos:0 ~len;
        bytes_applied := !bytes_applied + len;
        Clock.charge_cpu clock
          (float_of_int len *. model.Cost_model.cpu_per_byte_copy_us))
      plan.plan_writes;
    let touched = Hashtbl.fold (fun _ s acc -> s :: acc) segs [] in
    (* Segment sync before the head moves: the write ordering that makes
       head movement safe. *)
    List.iter (fun seg -> span "segment.sync" (fun () -> Segment.sync seg))
      touched;
    touched
  in
  (* Declaring the log empty is the last step: recovery is idempotent
     until it happens. *)
  span "recovery.reset" (fun () -> Log_manager.reset_empty log);
  L.debug (fun m ->
      m "applied %d records, %d bytes, %d segments" plan.plan_records_seen
        !bytes_applied (List.length touched));
  {
    records_seen = plan.plan_records_seen;
    bytes_applied = !bytes_applied;
    segments_touched = touched;
  }
