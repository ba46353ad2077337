(** The old values a [Restore]-mode transaction saves at [set_range], so
    that an abort can put them back.

    An arena holds one entry per newly covered range: the range's bytes
    as they were before the transaction first declared them, and the
    region, region offset and length they came from. The bytes of all
    entries lie end to end in one {!Rvm_util.Bytebuf} and the other
    fields in growable arrays, so saving a value is a copy into storage
    the arena already has once it has grown to its transaction's size.
    The engine reuses the arenas of finished transactions through a
    {!pool}: there are never more pooled than transactions were live at
    once, and none larger than a small cap.

    The old values die at commit or abort, when the arena goes back to
    the pool. Until then every entry stays addressable by its index, in
    the order it was saved. *)

type t

val empty : t
(** The arena of a transaction that saves nothing ([No_restore]): it is
    never written and never pooled. *)

val save : t -> Region.t -> region_off:int -> len:int -> unit
(** Append the current bytes of [region] at [region_off, region_off +
    len) as a new entry. *)

val count : t -> int
val region : t -> int -> Region.t
val region_off : t -> int -> int
val length : t -> int -> int

val restore : t -> int -> unit
(** Copy entry [i]'s saved bytes back over its region. *)

type pool

val pool : unit -> pool

val take : pool -> t
(** An empty arena: the one the pool returned to it last, or a new one. *)

val give : pool -> t -> unit
(** Empty [t] and keep it for a later {!take}, unless it saved more than
    64 KiB or 1024 entries, or was taken before the pool's last {!drain}:
    then it is dropped. An emptied arena can still name, past its
    entries, regions that earlier transactions saved from. *)

val drain : pool -> unit
(** Let go of every pooled arena, and of every arena taken before now
    when it is given back, so that after a region is unmapped no pooled
    arena names it. *)
