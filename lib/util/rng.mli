(** Deterministic SplitMix64 pseudo-random numbers.

    Every randomized component in the repository (workload generators,
    crash-injection tests, property generators' auxiliary draws) takes an
    explicit [Rng.t] so that runs are reproducible from a seed. *)

type t

val create : seed:int64 -> t
val copy : t -> t

val next : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val bytes : t -> int -> Bytes.t
(** [bytes t n] is [n] random bytes. *)

val split : t -> t
(** An independent stream derived from the current state. *)

type zipf
(** A bounded Zipf distribution over ranks [0, n): precomputed CDF, so
    {!zipf} is one uniform draw plus a binary search. *)

val zipf_make : n:int -> s:float -> zipf
(** [zipf_make ~n ~s] gives rank [i] probability proportional to
    [1/(i+1)^s]. [s = 0] is uniform; larger [s] concentrates mass on low
    ranks (the skewed-key workloads of the transaction server). [n] must
    be positive, [s] non-negative. *)

val zipf_n : zipf -> int
(** The rank bound [n]. *)

val zipf : t -> zipf -> int
(** Sample a rank in [0, n). *)
