(** Engine tuning knobs — the [options_desc] of Figure 4 and the knobs
    [set_options] adjusts (truncation threshold, buffer sizes). *)

type map_mode =
  | Copy
      (** read the region from its external data segment en masse at map
          time (the implemented strategy of section 3.2: simple, but
          startup pays for the whole region) *)
  | Demand
      (** the optional external-pager strategy the paper planned ("in the
          future, we plan to provide an optional Mach external pager to
          copy data on demand"): map returns immediately and pages are
          charged as they are first touched. Pair it with a paging
          simulator whose fault disk is the data disk. *)

type t = {
  page_size : int;
  truncation_threshold : float;
      (** fraction of log capacity that triggers automatic truncation *)
  truncation_critical : float;
      (** fraction at which blocked incremental truncation reverts to epoch
          truncation (section 5.1.2) *)
  truncation_mode : Types.truncation_mode;
  auto_truncate : bool;
      (** truncate transparently when the threshold is crossed *)
  spool_max_bytes : int;
      (** no-flush records buffered in memory before an implicit flush *)
  intra_optimization : bool;
      (** coalesce duplicate/overlapping/adjacent set_ranges (section 5.2);
          disabled only for the ablation benchmarks *)
  inter_optimization : bool;
      (** drop spooled records subsumed by a newer no-flush commit *)
  map_mode : map_mode;
}

val default : t
val validate : t -> unit
(** Raises {!Types.Rvm_error} on nonsensical settings. *)
