(** Per-transaction state.

    A transaction accumulates, per region, the set of byte ranges declared
    by [set_range] (an interval set, which is what makes the
    intra-transaction optimization automatic: duplicate, overlapping and
    adjacent declarations collapse into coalesced intervals) and, in an
    {!Undo} arena, the saved old values needed to undo on abort (skipped
    in no-restore mode). The
    pages it holds an uncommitted reference on (the page vector's counts)
    are exactly the pages its covered intervals reach. *)

type status = Active | Committed | Aborted

type per_region = {
  region : Region.t;
  covered : Rvm_util.Intervals.t;  (** region-offset intervals *)
  mutable calls : int array;
      (** with [per_call], every set_range call as declared,
          [(region_off, len)] pairs in call order, the first [call_count]
          of them used — what is logged when the intra-transaction
          optimization is disabled for ablation; empty otherwise *)
  mutable call_count : int;  (** set_range calls on the region *)
  mutable call_bytes : int;  (** bytes they declared, overlaps counted *)
}

type t = {
  tid : int;
  mode : Types.restore_mode;
  started_us : int;
  per_call : bool;
      (** log one range per set_range call (the intra-transaction
          optimization off), fixed when the transaction begins *)
  mutable status : status;
  mutable regions : per_region list;
      (** increasing vaddr; a transaction touches a handful of regions *)
  undo : Undo.t;
      (** the old values of every byte first covered, in save order;
          {!Undo.empty} in no-restore mode *)
}

val create :
  tid:int ->
  mode:Types.restore_mode ->
  started_us:int ->
  per_call:bool ->
  undo:Undo.t ->
  t
val per_region : t -> Region.t -> per_region
(** Find or create the per-region state. *)

val add_call : t -> per_region -> region_off:int -> len:int -> unit
(** Count one set_range call, and with [per_call] append it to
    [calls]. *)

val naive_bytes : per_region -> int
(** Record bytes an unoptimized implementation would log for the region:
    one range header plus the full length per set_range call. *)

val regions : t -> per_region list
(** In increasing vaddr order (deterministic log layout). *)

val is_active : t -> bool
