(** Declarative SLO monitoring with typed incidents and postmortems.

    A monitor owns a {!Timeseries} and a set of {!rule}s. Every closed
    window is probed by every rule; [open_after] consecutive breaching
    windows open a typed {!incident}, [close_after] consecutive healthy
    windows close it again (hysteresis, so one noisy window never
    pages). Each incident captures the windows that triggered it plus a
    flight-recorder tail of the spans in flight when it opened. A run
    ends with {!finish} and a {!postmortem} JSON document — a healthy
    run reports zero incidents. *)

type severity = Warn | Page

val severity_to_string : severity -> string

type verdict = Healthy | Breach of string

type rule = {
  name : string;  (** incident type, e.g. ["commit-p99-burst"] *)
  severity : severity;
  open_after : int;  (** consecutive breaching windows to open *)
  close_after : int;  (** consecutive healthy windows to close *)
  probe : Timeseries.window -> verdict;
}

val rule :
  ?severity:severity ->
  ?open_after:int ->
  ?close_after:int ->
  string ->
  (Timeseries.window -> verdict) ->
  rule
(** Defaults: [Page], open after 2, close after 3. Raises
    [Invalid_argument] on non-positive streaks. *)

(** {2 The standard rule set}

    Metric names and thresholds are fixed to the transaction server's
    registry schema: [server.*] counters and histograms, the
    [lsn.commit] / [lsn.durable] / [log.occupancy] / [truncation.due]
    gauges registered by the monitored server, and the sharded engine's
    [shard.<i>.committed] counters. *)

val shed_rate_rule : unit -> rule
(** Admission control turning away more than a quarter of a window's
    arrivals (at least 16) — the overload signature past the saturation
    knee, where shedding keeps the inside of the server healthy. *)

val truncation_starvation_rule : unit -> rule
(** Truncation reported due for a whole window while zero truncation
    steps (epoch, incremental, emergency) ran; opens after three such
    windows. *)

val durable_stall_rule : unit -> rule
(** The durable-LSN gauge frozen across a window while the commit LSN
    sits ahead of it. *)

val default_rules : ?shards:int -> unit -> rule list
(** The five engine rules: the three above, plus a commit p99 above three
    times a rolling baseline of healthy windows and more than half of a
    window's operations retried. When [shards > 1], also a per-shard
    committed skew beyond 4x (or a starved shard) in a window with at
    least 8 commits per shard. *)

(** {2 Incidents} *)

type incident = {
  i_rule : string;
  i_severity : severity;
  opened_at_us : float;
  mutable closed_at_us : float option;
      (** [None] = still open when the run ended *)
  mutable i_windows : Timeseries.window list;  (** triggering, oldest first *)
  mutable i_reasons : string list;  (** one per retained window *)
  flight_recorder : Trace.span list;  (** span tail at open *)
}

type t

val create : rules:rule list -> Timeseries.t -> Registry.t -> t
(** The registry supplies the flight-recorder tail (enable a trace
    capacity on it for non-empty tails). An incident keeps at most 16
    triggering windows and the last 16 spans at its opening. *)

val timeseries : t -> Timeseries.t

val tick : t -> now_us:float -> Timeseries.window list
(** Drive the clock forward: closes elapsed windows via
    {!Timeseries.tick}, probes every rule on each, and returns the
    closed windows (usually [[]]) so callers can stream them. *)

val finish : t -> now_us:float -> Timeseries.window list
(** End-of-run {!Timeseries.flush} plus rule evaluation of the tail. *)

val incidents : t -> incident list
(** All incidents, oldest first. *)

val open_incidents : t -> incident list
val incident_count : t -> int

val healthy : t -> bool
(** Zero incidents over the whole run. *)

val health_line : t -> string option
(** Top-style one-liner for the last closed window ([None] before the
    first close): window index, simulated time, commit rate, window
    p99, aborts, sheds, log occupancy, LSN lag and open incident count. *)

val postmortem : ?run:(string * Json.t) list -> t -> Json.t
(** The end-of-run report: run metadata, health verdict, every incident
    with its triggering windows and flight-recorder tail, and the
    retained window series. *)
