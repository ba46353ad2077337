(** The observability spine: one registry per engine instance.

    A registry is a get-or-create namespace of {!Counter}s and
    {!Histogram}s plus a causal span tracer ({!Trace}) doubling as an
    always-on flight recorder. Every layer — device, log, engine,
    harness — reports through the registry it is handed, so a single
    snapshot attributes cost across the whole stack, and a single trace
    shows {e why} each device write happened: every span is linked to
    the span that was open when it started, rooting device ops under the
    transaction that caused them.

    {2 Naming scheme}

    Dot-separated, layer first: [disk.log.writes], [log.bytes_logged],
    [txn.committed], [truncation.epoch.count]. A span named [s] owns the
    counter [s ^ ".count"] and the histogram [s ^ ".us"]; spans the
    engine emits are [txn.commit], [txn.abort], [commit.encode],
    [commit.no_flush], [log.drain], [log.force], [truncation.epoch],
    [truncation.incremental.step], [segment.sync], [recovery] and the
    device-layer [disk.log.write], [disk.log.sync], [disk.seg.write],
    [disk.seg.sync]. The layer prefix (text before the first dot) keys
    the per-layer tracks in {!Export.chrome_trace}. *)

type t

type span_event = Trace.span = {
  id : int;
  parent : int option;
  scope : string;
  start_us : float;
  dur_us : float;
  attrs : (string * Trace.value) list;
}

val create : ?trace_capacity:int -> unit -> t
(** [trace_capacity] (default 0 = tracing off) bounds the retained span
    events; older events are dropped first. *)

val set_time_source : t -> (unit -> float) -> unit
(** Replace the wall clock (microseconds) used to time spans — e.g. with a
    simulated {!Rvm_util.Clock}, so span histograms and trace timestamps
    report simulated rather than host time. *)

val counter : t -> string -> Counter.t
val histogram : t -> string -> Histogram.t

val span : ?attrs:(string * Trace.value) list -> t -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a named span: bumps [name ^ ".count"], records
    the duration in [name ^ ".us"], and (when tracing is on) records a
    {!span_event} whose parent is the span open at the call. Exceptions
    propagate; the span still closes. *)

val add_attr : t -> string -> Trace.value -> unit
(** Attach an attribute to the innermost open span; no-op when none is
    open (so callers never need to know whether they are being traced). *)

val add_int : t -> string -> int -> unit
(** {!add_attr} of an int, allocating nothing. *)

val add_string : t -> string -> string -> unit
(** {!add_attr} of a string, allocating nothing. *)

(** {2 Spans without a closure}

    The hot paths resolve a {!scope} once and bracket their work with
    {!open_span} and {!close_span}, setting attributes with {!add_int},
    {!add_string} and {!add_attr} in between: a span then allocates
    nothing. A caller that must close the span on an exception does so
    itself, as {!span} does. *)

type scope
(** A span name with its [.count] counter and [.us] histogram resolved.
    They join the registry on the scope's first {!open_span}, so a scope
    resolved early and never used changes no snapshot. *)

val scope : t -> string -> scope
(** The scope {!span} uses for [name]. *)

val instant_scope : t -> string -> scope
(** The scope {!instant} uses for [name]: {!close_span} records a
    zero-duration span and no [.us] histogram exists. *)

val open_span : ?attrs:(string * Trace.value) list -> t -> scope -> unit
(** Open a span of the scope under the current one. *)

val close_span : t -> scope -> unit
(** Close the innermost open span, which must be the scope's: record its
    duration in [.us] and bump [.count]. *)

val instant : ?attrs:(string * Trace.value) list -> t -> string -> unit
(** Record a zero-duration point event under the current span and bump
    [name ^ ".count"]. *)

val set_trace_capacity : t -> int -> unit
val trace_capacity : t -> int

val events : t -> span_event list
(** Retained span events, oldest first (insertion order — children close
    before parents). O(retained). *)

val events_since : t -> int -> span_event list * int
(** Cursor-based polling: spans finished since the cursor, oldest first,
    plus the new cursor. Repeated polling costs O(new events), not
    O(ring). Pass [0] for everything retained. *)

val trace_seq : t -> int
(** Total spans finished so far — a fresh {!events_since} cursor. *)

val counters : t -> (string * int) list
(** Name-sorted. *)

val histograms : t -> (string * Histogram.t) list
(** Name-sorted. *)

val reset : t -> unit
(** Zero every counter and histogram and drop retained events. Handles
    stay valid; open spans and the trace cursor are untouched. *)

val to_json : t -> Json.t
(** Counters, histogram summaries (with p50/p95/p99), and — when tracing
    is on — the retained spans with ids, parents and attributes. *)

val pp : Format.formatter -> t -> unit

val pp_tail : ?n:int -> Format.formatter -> t -> unit
(** Flight-recorder dump: the last [n] (default 16) retained spans, one
    per line, oldest first — what the engine was doing just before an
    abort, a failed recovery, or an injected crash. *)
