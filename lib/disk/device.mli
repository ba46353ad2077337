(** Block devices.

    RVM's permanence guarantee rests on one contract: bytes passed to
    {!write} followed by {!sync} survive a crash; unsynced writes may vanish
    or tear. The same interface backs Unix files (production), in-memory
    stores (tests), crash-injecting wrappers (recovery tests) and
    simulated-timing wrappers (the performance evaluation), so every layer
    above — log, segments, recovery — is exercised identically under all
    four. *)

exception Io_error of string

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable syncs : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
}

type t = {
  name : string;
  size : int;  (** device capacity in bytes *)
  read : off:int -> buf:Bytes.t -> pos:int -> len:int -> unit;
  write : off:int -> buf:Bytes.t -> pos:int -> len:int -> unit;
  sync : unit -> unit;
  close : unit -> unit;
  stats : stats;
}

val fresh_stats : unit -> stats

val read_bytes : t -> off:int -> len:int -> Bytes.t
(** Convenience wrapper allocating the destination. *)

val write_bytes : t -> off:int -> Bytes.t -> unit
val write_string : t -> off:int -> string -> unit

(** {1 Constructors}

    Build every device through these: range checking ([Io_error] outside
    [0, size)) and the per-device {!stats} accounting happen here exactly
    once, so implementations supply only the transport. *)

val make :
  name:string ->
  size:int ->
  ?sync:(unit -> unit) ->
  ?close:(unit -> unit) ->
  read:(off:int -> buf:Bytes.t -> pos:int -> len:int -> unit) ->
  write:(off:int -> buf:Bytes.t -> pos:int -> len:int -> unit) ->
  unit ->
  t
(** A base device over real storage. [sync] defaults to a no-op, [close]
    to a no-op. *)

val layer :
  ?name:string ->
  ?read:(t -> off:int -> buf:Bytes.t -> pos:int -> len:int -> unit) ->
  ?write:(t -> off:int -> buf:Bytes.t -> pos:int -> len:int -> unit) ->
  ?sync:(t -> unit) ->
  ?close:(t -> unit) ->
  t ->
  t
(** Middleware over [base]: each override receives the base device and
    decides how (or whether) to forward; omitted operations forward
    unchanged. The wrapper has the base's size, its own fresh {!stats},
    and — crucially — forwards [close] to the base unless overridden, so
    no layer can silently drop the base's teardown. [name] defaults to the
    base's name. *)
