(** The regression gate for the deterministic [BENCH_*.json] artifacts.

    One declared table decides whether a regenerated artifact passes:
    {!directions} names every leaf of every gated artifact with the way it
    may move against the checked-in copy, and {!bounds} holds the absolute
    properties each artifact must satisfy on its own. {!check} applies
    both; [rvmutl benchdiff] is a thin wrapper over it and nothing else
    gates the artifacts. *)

type direction =
  | Lower  (** a cost: may not grow by more than {!tolerance} *)
  | Higher  (** a yield: may not shrink by more than {!tolerance} *)
  | Config  (** run configuration: drift only warns *)

val tolerance : float
(** Relative move (0.10) a [Lower] or [Higher] leaf may make the wrong
    way before it fails. *)

val directions : (string * direction) list
(** Every leaf name of the gated artifacts, matched exactly. A boolean
    leaf compares as 0 or 1. *)

type bound = {
  artifact : string;  (** the artifact's ["artifact"] tag *)
  name : string;  (** reported on failure *)
  violations : Json.t -> string list;
      (** one message per violation of the property; [[]] when it holds *)
}

val bounds : bound list
(** Absolute properties, checked on the new artifact only. *)

val log_open_chunk : int
(** The log open scan's read size ([Rvm_log.Log_manager.open_chunk]):
    baseline's recovery rows may read each log's live bytes plus at most
    this much. *)

type report = {
  compared : int;  (** [Lower]/[Higher] leaves compared *)
  improved : int;  (** of those, moved the right way beyond {!tolerance} *)
  bounds_checked : string list;
  warnings : string list;
  failures : (string * string) list;  (** (metric path or bound name, why) *)
}

val undeclared : Json.t -> string list
(** Leaf names of the document with no entry in {!directions}, once
    each, in document order. *)

val check : old:Json.t -> new_:Json.t -> report
(** Walk [old] and [new_] in step. Fails on: a declared leaf moving the
    wrong way by more than {!tolerance}, an undeclared leaf in [new_], a
    metric missing from [new_], a changed row count or value shape, and
    every violation of a bound for [new_]'s artifact. *)

val pp_report : Format.formatter -> report -> unit
