(** Admission control: bounded concurrency, bounded queueing, explicit
    load shedding.

    Two caps: at most [max_inflight] transactions execute concurrently;
    arrivals beyond that wait in a FIFO of depth at most [max_queue];
    anything further is refused outright ([`Overload] — the caller
    reports it to the client rather than letting latency grow without
    bound). The engine's unforced backlog needs no third cap: the
    server's batcher forces the log every [batch_max] commits, so no
    more than one batch of commit records is ever waiting for a force. *)

type config = {
  max_inflight : int;  (** concurrent transactions cap (> 0) *)
  max_queue : int;  (** waiting-request cap (>= 0) *)
}

val default : config
(** 8 in flight, 16 queued. *)

type 'a t

val create : ?obs:Rvm_obs.Registry.t -> config -> 'a t
(** Raises [Invalid_argument] on a nonsensical config. With [obs],
    double releases bump the [admission.double_release] counter. *)

val config : 'a t -> config
val inflight : 'a t -> int
val queued : 'a t -> int

val double_releases : 'a t -> int
(** Times {!release} was called on a drained pipeline (no slot in
    flight). Shed/abort races make this reachable; it is counted, not
    fatal. *)

val submit : 'a t -> 'a -> [ `Admitted | `Queued | `Overload ]
(** Offer an arriving request. [`Admitted] takes an in-flight slot
    immediately (only when the queue is empty — FIFO order is never
    bypassed); [`Queued] parks it; [`Overload] sheds it. *)

val pop_ready : 'a t -> [ `Admit of 'a | `Empty | `At_capacity ]
(** Admit the head of the queue if a slot is free. The non-[`Admit]
    results say why nothing was admitted. *)

val release : 'a t -> unit
(** Return an in-flight slot (request committed or aborted for good).
    Idempotent on a drained pipeline: a release with nothing in flight is
    counted (see {!double_releases}) rather than raised. *)
