(** YCSB-style key-value workload mixes over the recoverable ordered map.

    The six standard mixes:
    - {b A} update-heavy: 50% read / 50% update
    - {b B} read-mostly: 95% read / 5% update
    - {b C} read-only: 100% read
    - {b D} read-latest: 95% read (skewed to recent keys) / 5% insert
    - {b E} short ranges: 95% scan / 5% insert
    - {b F} read-modify-write: 50% read / 50% rmw

    Keys follow a Zipf(0.99) popularity distribution over the live key
    population ({!Rvm_util.Rng.zipf}); mix D reads skew towards the most
    recently inserted keys. All draws come from the caller's seeded
    {!Rvm_util.Rng.t}, with a fixed draw order, so a (seed, mix) pair
    reproduces the exact operation sequence anywhere. *)

type mix = A | B | C | D | E | F

val mix_of_string : string -> mix option
(** ["a"].."f"], case-insensitive. *)

val mix_name : mix -> string
(** ["ycsb-a"].."ycsb-f"]. *)

type op =
  | Read of string
  | Update of string * string
  | Insert of string * string
  | Scan of string * int  (** start key, entry count *)
  | Rmw of string

val op_name : op -> string
val op_key : op -> string

val key_of : int -> string
(** ["user%010d"] — fixed-width, so integer order is key order. Raises
    [Invalid_argument] on a negative index. *)

val value : len:int -> ver:int -> string
(** Version [ver] rendered into a fixed-width prefix, padded to [len]:
    ["v%012d"] followed by ['.'] up to [len] bytes, or cut to [len].
    Deterministic, so execution and serial replay agree byte-for-byte.
    Raises [Invalid_argument] on a negative version. *)

val rmw_next : value_len:int -> string option -> string
(** The read-modify-write step: parse the stored value's version (absent
    or foreign values count as version 0) and render version+1. *)

type gen

val create :
  rng:Rvm_util.Rng.t -> mix:mix -> records:int -> value_len:int ->
  scan_max:int -> gen
(** A generator over an initial population of [records] keys
    ([0..records-1] loaded before the run). Inserts (mixes D/E) extend
    the population; scans draw lengths uniform in [1, scan_max]. *)

val records : gen -> int
(** Current key population (grows with inserts). *)

val next : gen -> op

val apply_model : (string, string) Hashtbl.t -> value_len:int -> op -> unit
(** Serial reference semantics of one op against a plain hash table —
    replayed in commit order to validate the recoverable tree. *)
