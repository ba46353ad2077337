(** Simulated-timing device: wraps another device (same bytes, same
    durability semantics) and charges a {!Rvm_util.Clock.t} for the time a
    1993 disk would take.

    Writes model the Unix buffer cache: they cost only a memory copy and
    coalesce into dirty extents (a write that continues the previous one
    extends its extent). [sync] pays one seek + rotation + transfer per
    extent — so a streak of sequential log appends costs a single ~17 ms
    force, while truncation's scattered page writes cost one positioning
    delay each. Reads are synchronous device accesses (region data caching
    is the job of the VM simulator, not the disk).

    Charges are I/O waits; work of a separate task, such as RVM's
    truncation daemon or the server's pipelined batch force, runs under
    {!Rvm_util.Clock.on_lane}. The disk serves one access at a time,
    whichever lane issues it: an access issued before the previous one
    has finished waits for it, and the wait is charged to the issuer as
    I/O (it is not busy time). Two lanes can therefore never book one
    disk for the same interval. *)

type t

val create :
  ?seek_fraction:float ->
  ?sector:int ->
  base:Device.t ->
  clock:Rvm_util.Clock.t ->
  disk:Rvm_util.Cost_model.disk ->
  unit ->
  t
(** [seek_fraction] scales the seek component of each access (1.0 =
    random placement; data disks under sorted write-back sweeps use a small
    value). [sector] (default 1) is the write-coalescing granularity:
    dirty bytes are tracked in [sector]-sized units and runs of consecutive
    dirty sectors form one extent, the way the buffer cache and a sorted
    sweep batch scattered small writes into page-sized I/Os. *)

val device : t -> Device.t
val io_count : t -> int
(** Number of physical accesses charged (reads + syncs with dirty data). *)

val busy_us : t -> float
(** Total simulated device busy time. *)
