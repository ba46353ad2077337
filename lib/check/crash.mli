(** Crash-exploration core shared by every explorer (DESIGN.md §6).

    Crash model: a subsystem runs its workload once on devices wrapped by
    one shared {!Rvm_disk.Trace_device} recorder, so every write and sync
    lands in a single global event order. Writes reach the platter in
    issue order, so a crash preserves a prefix of that order plus at most
    a torn fragment of the next write. A write inside one aligned hardware
    sector is atomic — the contract the 512-byte status block is designed
    around — while larger writes may tear at any byte (conservative:
    covers sector boundaries and mid-sector power loss).

    {!run} enumerates crash point 0 (the images at trace time), every
    write/sync boundary and the torn variants of each write; rebuilds every
    traced device's image there; and hands the images to the subsystem's
    [recover] and the result to its [oracle]. An exception escaping
    [recover] is itself a violation: recovery must never crash on a
    reachable disk image. Each violation carries the flight-recorder tail.

    A subsystem is a world builder: given a {!rig}, it makes and formats
    its devices ({!Rvm_disk.Mem_device.create}), traces them ({!trace}),
    runs its workload on the traced devices with {!obs} as the engine's
    registry, and returns a {!recording}. *)

type config = {
  sector : int;  (** hardware atomicity unit; must be positive *)
  exhaustive : bool;
      (** check every admissible torn position instead of capping the
          variants per write at [max_torn_per_write] *)
  max_torn_per_write : int;
}

type rig
(** The recording harness one {!run} hands its world builder. *)

val trace : rig -> label:string -> Rvm_disk.Device.t -> Rvm_disk.Device.t
(** Start recording [dev]: its current contents become its crash-point-0
    image (so format first), and the returned pass-through device is the
    one to give the engine. [label] names the device in {!write_point}s.
    {!recording.recover} receives the images in the order devices were
    traced. *)

val obs : rig -> Rvm_obs.Registry.t
(** The flight-recorder registry violation tails are cut from: pass it to
    the engine the workload runs on. *)

val events_so_far : rig -> int
(** Device events recorded so far: the index a durability checkpoint or
    an ack made now is stamped with. *)

val durable : rig -> int -> unit
(** Durability checkpoint: from the current event on, a crash must
    preserve [n] (commits, snapshots — the subsystem's unit). *)

val required : rig -> upto:int -> int
(** The largest [n] checkpointed at or before event [upto] (0 if none):
    what a crash at [upto] must preserve. *)

type crash_point = {
  upto : int;  (** events fully on disk *)
  torn : int option;  (** bytes kept of event [upto], if torn *)
}

type 'state recording = {
  recover : Rvm_disk.Device.t array -> 'state;
      (** recover from crash images mounted as memory devices *)
  oracle : crash_point -> 'state -> string option;
      (** [None] if the recovered state honours the contract at that
          crash point, else the reason it does not *)
  commits : int;  (** commits the recorded run issued *)
  counters : (string * int) list;
      (** subsystem coverage counters, printed as ["<n> <label>"] *)
}

type violation = {
  crash : crash_point;
  reason : string;
  tail : Rvm_obs.Registry.span_event list;
      (** flight-recorder tail: the last spans (up to 16) the engine
          closed before the crashed device event was issued *)
}

type write_point = {
  event : int;
  dev : string;  (** the label the device was traced under *)
  off : int;
  len : int;
  variants : int;  (** torn variants enumerated for this write *)
}

type outcome = {
  events : int;
  writes : int;
  syncs : int;
  boundaries : int;  (** crash points at event boundaries (events + 1) *)
  torn_variants : int;
  recoveries : int;  (** total images reconstructed and recovered *)
  commits : int;
  counters : (string * int) list;
  write_points : write_point list;  (** one per write event, oldest first *)
  violations : violation list;
}

val torn_positions :
  sector:int -> exhaustive:bool -> max_per_write:int -> off:int -> len:int ->
  int list
(** Admissible torn prefixes (bytes kept, exclusive of 0 and [len]) for a
    write of [len] bytes at device offset [off]. Empty when the write fits
    in one aligned sector (atomic). Otherwise every interior sector
    boundary, topped up with evenly spaced interior positions so that any
    tearable write of at least 5 bytes gets at least 4 variants; capped at
    [max_per_write] (evenly subsampled) unless [exhaustive]. *)

val run : config -> (rig -> 'state recording) -> outcome
(** Record the world once, then recover and judge every crash point.
    Raises [Invalid_argument] if [sector] is not positive. *)

val counter : outcome -> string -> int
(** The subsystem counter recorded under a label. Raises [Not_found]. *)

(** {2 Reporting} *)

val pp_violation : Format.formatter -> violation -> unit

val pp_outcome : Format.formatter -> outcome -> unit
(** Trace and enumeration sizes, counters, and the verdict with the first
    five violations. *)

val summary : outcome -> string
(** [pp_outcome] as a string, as printed by [rvmutl check]. *)

val pp_counterexample :
  to_string:('op -> string) -> Format.formatter -> 'op list -> unit
(** Numbered op listing plus a one-line replayable form. *)
