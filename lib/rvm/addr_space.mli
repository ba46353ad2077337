(** The process' recoverable address space: a sorted map from virtual
    address ranges to mapped regions.

    Enforces the section 4.1 mapping rules: mappings are page-aligned,
    never overlap in virtual memory, and no segment range is mapped twice
    (which removes aliasing from the engine entirely). *)

type t

val create : page_size:int -> t
val page_size : t -> int

val check_free : t -> vaddr:int -> len:int -> unit
(** Raises {!Types.Rvm_error} if [vaddr, vaddr+len) overlaps a mapped
    region: the virtual-overlap check of {!add}, for a caller that must
    reject a range before it creates the region. *)

val add : t -> Region.t -> unit
(** Raises {!Types.Rvm_error} on overlap (virtual, as {!check_free}, or
    segment-range) or misalignment. *)

val remove : t -> Region.t -> unit

val find : t -> addr:int -> len:int -> Region.t
(** Region fully containing [addr, addr+len). Raises {!Types.Rvm_error} if
    the range is unmapped or straddles two regions. *)

val find_opt : t -> addr:int -> Region.t option
val regions : t -> Region.t list
(** Mapped regions in increasing vaddr order. *)

val region_count : t -> int

val suggest_vaddr : t -> len:int -> int
(** A free page-aligned base address for a new mapping of [len] bytes. *)
