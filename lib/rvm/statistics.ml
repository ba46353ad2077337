type t = {
  txns_committed : int;
  txns_aborted : int;
  set_ranges : int;
  bytes_logged : int;
  bytes_spooled : int;
  intra_saved : int;
  inter_saved : int;
  forces : int;
  flushes : int;
  epoch_truncations : int;
  incremental_steps : int;
  incremental_blocked : int;
  recoveries : int;
  records_dropped : int;
}

let original_bytes t = t.bytes_logged + t.intra_saved + t.inter_saved

let fraction part whole =
  if whole = 0 then 0. else float_of_int part /. float_of_int whole

let intra_fraction t = fraction t.intra_saved (original_bytes t)
let inter_fraction t = fraction t.inter_saved (original_bytes t)

let total_fraction t =
  fraction (t.intra_saved + t.inter_saved) (original_bytes t)

(* Registry-backed counters behind the same record shape. Each field of
   {!t} maps to one named counter; names are shared with the span scopes
   ([log.force.count], [truncation.epoch.count],
   [truncation.incremental.step.count]) so a span-wrapped operation and its
   statistic are the same counter — bumped once, never double-counted. *)
module Live = struct
  module C = Rvm_obs.Counter
  module R = Rvm_obs.Registry

  type live = {
    txns_committed : C.t;
    txns_aborted : C.t;
    set_ranges : C.t;
    bytes_logged : C.t;
    bytes_spooled : C.t;
    intra_saved : C.t;
    inter_saved : C.t;
    forces : C.t;
    flushes : C.t;
    epoch_truncations : C.t;
    incremental_steps : C.t;
    incremental_blocked : C.t;
    recoveries : C.t;
    records_dropped : C.t;
  }

  let create reg =
    {
      txns_committed = R.counter reg "txn.committed";
      txns_aborted = R.counter reg "txn.aborted";
      set_ranges = R.counter reg "txn.set_range";
      bytes_logged = R.counter reg "log.bytes_logged";
      bytes_spooled = R.counter reg "log.bytes_spooled";
      intra_saved = R.counter reg "opt.intra.saved_bytes";
      inter_saved = R.counter reg "opt.inter.saved_bytes";
      forces = R.counter reg "log.force.count";
      flushes = R.counter reg "log.flush";
      epoch_truncations = R.counter reg "truncation.epoch.count";
      incremental_steps = R.counter reg "truncation.incremental.step.count";
      incremental_blocked = R.counter reg "truncation.incremental.blocked";
      recoveries = R.counter reg "recovery.count";
      records_dropped = R.counter reg "opt.inter.records_dropped";
    }

  let snapshot l : t =
    {
      txns_committed = C.get l.txns_committed;
      txns_aborted = C.get l.txns_aborted;
      set_ranges = C.get l.set_ranges;
      bytes_logged = C.get l.bytes_logged;
      bytes_spooled = C.get l.bytes_spooled;
      intra_saved = C.get l.intra_saved;
      inter_saved = C.get l.inter_saved;
      forces = C.get l.forces;
      flushes = C.get l.flushes;
      epoch_truncations = C.get l.epoch_truncations;
      incremental_steps = C.get l.incremental_steps;
      incremental_blocked = C.get l.incremental_blocked;
      recoveries = C.get l.recoveries;
      records_dropped = C.get l.records_dropped;
    }

  let reset l =
    C.reset l.txns_committed;
    C.reset l.txns_aborted;
    C.reset l.set_ranges;
    C.reset l.bytes_logged;
    C.reset l.bytes_spooled;
    C.reset l.intra_saved;
    C.reset l.inter_saved;
    C.reset l.forces;
    C.reset l.flushes;
    C.reset l.epoch_truncations;
    C.reset l.incremental_steps;
    C.reset l.incremental_blocked;
    C.reset l.recoveries;
    C.reset l.records_dropped
end

let pp ppf t =
  Format.fprintf ppf
    "@[<v>txns: %d committed, %d aborted; set_ranges: %d@,\
     log: %d bytes written, %d forces, %d flushes@,\
     optimizations: intra %.1f%%, inter %.1f%% (%d records dropped)@,\
     truncation: %d epoch, %d incremental steps (%d blocked); %d recoveries@]"
    t.txns_committed t.txns_aborted t.set_ranges t.bytes_logged t.forces
    t.flushes
    (100. *. intra_fraction t)
    (100. *. inter_fraction t)
    t.records_dropped t.epoch_truncations t.incremental_steps
    t.incremental_blocked t.recoveries
