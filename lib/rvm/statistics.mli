(** Engine counters, including the instrumentation behind Table 2: RVM was
    "instrumented to keep track of the total volume of log data eliminated
    by each technique" (section 7.3). *)

type t = {
  txns_committed : int;
  txns_aborted : int;
  set_ranges : int;
  bytes_logged : int;  (** record bytes actually appended *)
  bytes_spooled : int;
  intra_saved : int;  (** record bytes eliminated by set-range coalescing *)
  inter_saved : int;
      (** record bytes eliminated by dropping subsumed spooled records *)
  forces : int;
  flushes : int;
  epoch_truncations : int;
  incremental_steps : int;
  incremental_blocked : int;
      (** times an incremental step found its queue head referenced by an
          uncommitted or unflushed transaction *)
  recoveries : int;
  records_dropped : int;  (** spool entries killed by inter-opt *)
}
(** A read-only snapshot of the counters ({!Live.snapshot}). *)

val original_bytes : t -> int
(** What would have been logged with no optimizations:
    [bytes_logged + intra_saved + inter_saved]. *)

val intra_fraction : t -> float
(** Fraction of the original log volume eliminated intra-transaction. *)

val inter_fraction : t -> float
val total_fraction : t -> float
val pp : Format.formatter -> t -> unit

(** Registry-backed counters behind the same field set. The engine holds a
    [Live.live]; {!Live.snapshot} materializes the familiar record for
    callers. Counter names are shared with span scopes where both exist
    (e.g. [log.force.count]), so the statistic and the span count are one
    counter. *)
module Live : sig
  type live = {
    txns_committed : Rvm_obs.Counter.t;
    txns_aborted : Rvm_obs.Counter.t;
    set_ranges : Rvm_obs.Counter.t;
    bytes_logged : Rvm_obs.Counter.t;
    bytes_spooled : Rvm_obs.Counter.t;
    intra_saved : Rvm_obs.Counter.t;
    inter_saved : Rvm_obs.Counter.t;
    forces : Rvm_obs.Counter.t;
    flushes : Rvm_obs.Counter.t;
    epoch_truncations : Rvm_obs.Counter.t;
    incremental_steps : Rvm_obs.Counter.t;
    incremental_blocked : Rvm_obs.Counter.t;
    recoveries : Rvm_obs.Counter.t;
    records_dropped : Rvm_obs.Counter.t;
  }

  val create : Rvm_obs.Registry.t -> live
  (** Get-or-create the engine counters in [reg]. *)

  val snapshot : live -> t
  val reset : live -> unit
end
