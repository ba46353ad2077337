(** The TPC-A variant of section 7.1.1.

    "A hypothetical bank with one or more branches, multiple tellers per
    branch, and many customer accounts per branch. A transaction updates a
    randomly chosen account, updates branch and teller balances, and
    appends a history record to an audit trail." All data structures live
    in recoverable memory: accounts are 128-byte records, audit-trail
    entries 64-byte records, each array close to half of recoverable
    memory; teller and branch balances are insignificant in size. Audit
    access is sequential with wrap-around; account access follows one of
    three patterns:

    - {e Sequential} — the paging best case;
    - {e Random} — uniform over all accounts, the worst case;
    - {e Localized} — 70% of transactions update accounts on 5% of the
      account pages, 25% on a different 15%, and 5% on the remaining 80%,
      uniformly within each set. *)

type pattern = Sequential | Random | Localized

val pattern_name : pattern -> string

type layout = {
  accounts : int;
  base : int;  (** vaddr of the account array *)
  tellers_base : int;
  branches_base : int;
  audit_base : int;
  audit_entries : int;
  total_len : int;  (** page-rounded length of the whole recoverable area *)
}

val account_size : int
(** 128 bytes. *)

val audit_size : int
(** 64 bytes. *)

val balance_size : int
(** 16 bytes — one teller or branch balance record. *)

val tellers : int
val branches : int

val layout : accounts:int -> base:int -> page_size:int -> layout
(** Compute the memory layout for a given account count. The audit trail
    gets two entries per account so that both arrays occupy close to half
    of recoverable memory, as in the paper. *)

val account_addr : layout -> int -> int
(** vaddr of account record [i]. *)

val teller_addr : layout -> int -> int
val branch_addr : layout -> int -> int

val audit_addr : layout -> int -> int
(** vaddr of audit-trail slot [i] (callers wrap modulo [audit_entries]). *)

type state

val create : layout -> pattern -> seed:int64 -> state

val transaction : state -> Driver.engine -> unit
(** Run one TPC-A transaction through the engine: pick an account per the
    pattern, update it, update a teller and a branch balance, append the
    audit record. *)

val transactions_run : state -> int
val account_pages_touched : state -> int

(** {1 Server requests}

    TPC-A as the transaction server serves it, over Zipf-skewed account
    keys. A {e payment} is the classic profile above (account, teller,
    branch, audit record); a {e transfer} moves a delta between two
    skew-drawn accounts, locking them in draw order — the deliberate
    source of lock-order inversions that exercises the scheduler's
    deadlock abort-and-retry path. All updates are per-cell additions, so
    any serializable schedule produces the balances of the serial
    reference ({!apply_model}). A {e lookup} is the read-only class
    (balance lookup on the skew-drawn account plus its teller's branch):
    it writes nothing, takes no locks (the server compiles it into one
    lock-free [Read] of the commit stamps), and is a no-op in the serial
    reference. *)

type kind = Payment | Transfer | Lookup

val kind_name : kind -> string

type spec = {
  id : int;
      (** request id; the steps write it into the account record and the
          audit trail *)
  kind : kind;
  account : int;
  account2 : int;  (** transfer credit side; [= account] otherwise *)
  teller : int;
  delta : int64;
}

val make_gen :
  ?read_pct:int ->
  accounts:int ->
  zipf_s:float ->
  transfer_pct:int ->
  rng:Rvm_util.Rng.t ->
  unit ->
  id:int ->
  spec
(** A deterministic request source (Zipf account sampler + uniform
    teller/delta draws) over one {!Rvm_util.Rng.t} stream: applied to
    the ids in order, it draws each request's spec. [read_pct] (default
    0) is the percentage of requests drawn as lookups; the read roll
    happens before the transfer roll, and with [read_pct = 0] the
    generated stream is identical to the pre-lookup generator on the
    same seed. *)

val apply_model :
  shards:int ->
  spec ->
  accounts:int64 array ->
  tellers:int64 array ->
  branches:int64 array ->
  unit
(** Apply the request to plain in-memory balance arrays — the serial
    reference execution the server's results are checked against.
    Tellers and branches are shard-major: a payment updates teller
    [shard * tellers + teller] (likewise its branch) on its account's
    shard [account mod shards]. *)
