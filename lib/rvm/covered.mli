(** The bytes one committed transaction modified, in segment coordinates:
    what the inter-transaction optimization compares (section 5.2).

    A flat [int array] of [(seg, lo, hi)] triples, sorted by segment and
    then by offset. Within a segment the half-open intervals are disjoint
    and coalesced: intervals that overlap or meet — including two regions'
    intervals meeting at a region boundary — are one triple. Testing
    subsumption is then one forward walk over both arrays, with no
    allocation. *)

type t

val of_parts : (int * int * Rvm_util.Intervals.t) list -> t
(** [of_parts [(seg, base, covered); ...]]: each part is one region's
    covered set, region-relative, with [base] the region's offset in
    segment [seg]. Parts of one segment merge into one interval set. *)

val of_regions : Txn.per_region list -> t
(** {!of_parts} of a transaction's covered sets, allocating only the
    result. *)

val subsumes : newer:t -> older:t -> bool
(** Is every byte of [older] also in [newer]? *)

val to_list : t -> (int * int * int) list
(** The [(seg, lo, hi)] triples in order. *)
