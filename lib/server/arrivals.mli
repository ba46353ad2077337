(** Deterministic request-arrival processes on the simulated clock.

    {e Open-loop}: a Poisson process at a fixed offered rate — arrivals
    keep coming whether or not the server keeps up, which is what bends a
    saturation curve. {e Closed-loop}: a fixed population of sessions,
    each thinking an exponential time after its previous request
    completes — the Coda-server shape, self-throttling by design. Both
    draw from an explicit {!Rvm_util.Rng.t}, so a seeded run's entire
    arrival schedule is reproducible. *)

type t

val open_loop :
  ?start_us:float ->
  rate_tps:float ->
  requests:int ->
  rng:Rvm_util.Rng.t ->
  unit ->
  t
(** Poisson arrivals at [rate_tps] transactions per (simulated) second,
    stopping after [requests] total. [start_us] (default 0) offsets the
    whole schedule — pass the simulated clock's current time so that
    world-building costs (the recovery scan reads the entire log through
    the modeled disk) don't make early arrivals retroactively late. *)

val closed_loop :
  ?start_us:float ->
  sessions:int ->
  think_us:float ->
  requests:int ->
  rng:Rvm_util.Rng.t ->
  unit ->
  t
(** [sessions] concurrent clients with exponential think time, issuing
    [requests] total. {!complete} must be called as requests finish, or
    the process stalls. *)

val next_at : t -> float
(** Timestamp of the next arrival; [infinity] when none is pending — the
    process is exhausted, or a closed loop waits for a {!complete}. *)

val take : t -> float
(** Consume the next arrival, returning its timestamp. Raises
    [Invalid_argument] when none is pending. *)

val complete : t -> now:float -> unit
(** Tell a closed-loop process a request finished (committed {e or} shed):
    its session schedules the next arrival after a think-time draw. No-op
    for open-loop processes. *)

val exhausted : t -> bool
