(** Causal span recorder: the flight recorder under {!Registry}.

    Every span has an identity ([id]), a causal parent (the span that was
    open when it started — [None] for roots), and typed attributes
    ([txn_id], [bytes], ...). Finished spans land in a bounded ring in
    insertion order; because a span is recorded when it {e closes},
    children precede their parents and the newest [capacity] spans are
    always retained — crash the process (or hit a contract violation) and
    the ring is the post-mortem: the last N things the engine did.

    Single-threaded by design, like the engine it instruments: the open
    span context is one stack, not a thread-local. *)

type value =
  | Bool of bool
  | Int of int
  | Float of float
  | String of string

type span = {
  id : int;  (** unique within one recorder, dense from 1 *)
  parent : int option;  (** the span open when this one started *)
  scope : string;  (** dot-separated, layer first: [log.drain] *)
  start_us : float;
  dur_us : float;
  attrs : (string * value) list;
      (** [enter]'s, then those added, in call order; stored in typed
          columns and rebuilt as a list only when a span is read *)
}

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 0 = recording off) bounds the ring; the open-span
    stack and ids are maintained either way so causality survives a
    mid-run [set_capacity]. *)

val capacity : t -> int
val set_capacity : t -> int -> unit
(** Resize, keeping the newest [min length n] spans. *)

val seq : t -> int
(** Total spans finished so far (recorded or dropped) — the polling
    cursor for {!events_since}. *)

val length : t -> int
(** Spans currently retained in the ring. *)

val depth : t -> int
(** Open (unfinished) spans. *)

val current : t -> int option
(** Id of the innermost open span. *)

val enter : t -> now:float -> ?attrs:(string * value) list -> string -> unit
(** Open a span as a child of {!current}. *)

val add_attr : t -> string -> value -> unit
(** Attach an attribute to the innermost open span; no-op when none is
    open. The span keeps a pointer to [v]. *)

val add_int : t -> string -> int -> unit
(** {!add_attr} of [Int n], storing the int itself: nothing is
    allocated. *)

val add_string : t -> string -> string -> unit
(** {!add_attr} of [String s], storing a pointer to [s]: nothing is
    allocated. *)

val exit : t -> now:float -> span
(** Close the innermost open span, record it, and return it. Raises
    [Invalid_argument] when no span is open. *)

val close : t -> now:float -> float
(** {!exit} returning only the span's duration: nothing is allocated for
    a span record. *)

val close_instant : t -> unit
(** Close the innermost open span with a zero duration, as {!instant}
    records it. Raises [Invalid_argument] when no span is open. *)

val instant : t -> now:float -> ?attrs:(string * value) list -> string -> unit
(** Record a zero-duration span (a point event) under {!current}. *)

val events : t -> span list
(** Retained spans, oldest first. O(length), no re-sorting. *)

val events_since : t -> int -> span list * int
(** [events_since t cursor] returns the retained spans whose global index
    is [>= cursor] (oldest first) and the new cursor — polling the
    recorder in a loop costs O(new events), not O(ring). Pass [0] (or a
    stale cursor) to get everything retained. *)

val clear : t -> unit
(** Drop retained spans. Ids, the cursor and open spans are untouched. *)

val pp_span : Format.formatter -> span -> unit
(** One line: [#id<#parent scope @start +dur attrs...]. *)
