(** Shard-aware placement of the TPC-A working set.

    One {!Rvm_workload.Tpca.layout} per shard, each holding an interleaved
    slice of the accounts (account [i] lives on shard [i mod shards], at
    local index [i / shards]) plus that shard's own full teller array,
    branch array and audit trail. A Payment touches only structures
    co-located with its account, so it commits single-shard; a Transfer
    whose two accounts route to different shards is the cross-shard case.

    With one layout this degenerates to the unsharded server byte for
    byte: identical addresses, identical lock identities, one audit
    cursor. *)

type t

val make : layouts:Rvm_workload.Tpca.layout array -> t
val shards : t -> int
val layout : t -> int -> Rvm_workload.Tpca.layout

val account_addr : t -> int -> int

val teller_addr : t -> anchor:int -> int -> int
(** Address of teller [i] on the shard of account [anchor]. *)

val branch_addr : t -> anchor:int -> int -> int

val teller_id : t -> anchor:int -> int -> int
(** Globally unique lock identity of that teller record (distinct shards
    hold distinct teller records for the same index). *)

val branch_id : t -> anchor:int -> int -> int

val audit_next : t -> anchor:int -> int
(** Draw the next audit-trail slot on [anchor]'s shard (advancing that
    shard's wrap-around cursor) and return its address. *)
