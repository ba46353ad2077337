(** Windowed telemetry over a {!Registry}.

    The registry's counters and histograms accumulate for a whole run; a
    timeseries slices them onto a timeline. Each {!tick} (driven from
    the scheduler's quantum loop, so every layer reports on the same
    simulated clock) closes the windows that have elapsed since the last
    call: every counter becomes a per-window delta (and {!rate}), every
    histogram a per-window sub-bucketed p50/p95/p99 via
    {!Histogram.advance}, and every registered gauge is sampled at the
    window close. Closed windows live in a bounded ring, oldest evicted
    first. *)

type window = {
  index : int;  (** 0-based window number since the first tick *)
  t0_us : float;
  t1_us : float;
  counters : (string * int) list;  (** per-window deltas, zeros omitted *)
  hists : (string * Histogram.window_stats) list;  (** empties omitted *)
  gauges : (string * float) list;  (** sampled at [t1_us] *)
}

type t

val create : window_us:float -> Registry.t -> t
(** The retained ring holds the last 512 closed windows. Raises
    [Invalid_argument] on a non-positive window. *)

val window_us : t -> float

val gauge : t -> string -> (unit -> float) -> unit
(** Register a gauge sampled at every window close (LSN horizons, log
    occupancy...). Idempotent per name. *)

val tick : t -> now_us:float -> window list
(** Close every window that has fully elapsed at [now_us]; returns them
    oldest first ([[]] almost always — ticks are much more frequent than
    window closes). The first call pins the window epoch. After a clock
    jump longer than the whole ring, the leading all-empty windows are
    skipped rather than materialized. *)

val flush : t -> now_us:float -> window list
(** End-of-run [tick] plus a final partial window covering the tail. *)

val windows : t -> window list
(** Retained ring, oldest first. *)

val last : t -> window option
val completed : t -> int

val counter_delta : window -> string -> int
(** 0 when absent. *)

val rate : window -> string -> float
(** Counter delta per second of window. *)

val hist_stats : window -> string -> Histogram.window_stats option
val gauge_value : window -> string -> float option
val window_json : window -> Json.t
val to_json : t -> Json.t
