(** Client transaction requests: TPC-A-style operations over Zipf-skewed
    account keys.

    A {e payment} is the classic TPC-A profile (account, teller, branch,
    audit record); a {e transfer} moves a delta between two skew-drawn
    accounts, locking them in draw order — the deliberate source of
    lock-order inversions that exercises the scheduler's deadlock
    abort-and-retry path. All updates are per-cell additions, so any
    serializable schedule produces the balances of the serial reference
    ({!apply_model}). A {e lookup} is the read-only class (balance lookup
    on the skew-drawn account plus its teller's branch): it writes
    nothing, takes no locks (TPC-A compiles it into one lock-free
    [Read] of the commit stamps), and is a no-op in the serial
    reference. A {e ycsb} request carries one {!Rvm_workload.Ycsb.op}
    against the recoverable ordered map — the second workload family;
    its steps come from the YCSB layer's step function and it never
    touches the TPC-A arrays. *)

type kind = Payment | Transfer | Lookup | Ycsb of Rvm_workload.Ycsb.op

val kind_name : kind -> string

type spec = {
  id : int;  (** request id; doubles as the lock-manager owner *)
  kind : kind;
  account : int;
  account2 : int;  (** transfer credit side; [= account] for payments *)
  teller : int;
  delta : int64;
}

type gen
(** A deterministic request source (Zipf account sampler + uniform
    teller/delta draws) over one {!Rvm_util.Rng.t} stream. *)

val make_gen :
  ?read_pct:int ->
  accounts:int ->
  zipf_s:float ->
  transfer_pct:int ->
  rng:Rvm_util.Rng.t ->
  unit ->
  gen
(** [read_pct] (default 0) is the percentage of requests drawn as
    lookups; the read roll happens before the transfer roll, and with
    [read_pct = 0] the generated stream is identical to the pre-lookup
    generator on the same seed. *)

val fresh : gen -> spec

val of_fn : (id:int -> spec) -> gen
(** A generator from any deterministic id-indexed source — how non-TPC-A
    workloads (YCSB) feed the scheduler. *)

(** {1 Per-request runtime state} *)

type status =
  | Queued  (** in the admission queue *)
  | Running  (** scheduled, executing steps *)
  | Parked of string  (** waiting for a lock key *)
  | Backoff  (** aborted on deadlock, retry timer pending *)
  | Ready  (** executed, waiting in the commit batch *)
  | Committed
  | Shed  (** refused by admission control: the [`Overload] outcome *)

type t = {
  spec : spec;
  mutable status : status;
  mutable tid : int option;
      (** the live engine transaction: begun at the first step of a plan
          that holds a [Run] step, gone at its commit or abort. A plan
          with no [Run] step runs and commits with [None] throughout. *)
  mutable attempts : int;  (** deadlock aborts suffered so far *)
  arrival_us : float;
  mutable admitted_us : float;
  mutable done_us : float;
  mutable commit_lsn : int;
      (** logical commit LSN assigned when this request's commit record
          spooled; 0 until then *)
  mutable dep_lsn : int;
      (** ack dependency: the highest commit LSN this request observed
          through a key's commit stamp (a lock it acquired or a key it
          read) — the ack must wait until the engine's durable horizon
          covers it *)
  mutable dep_writers : int list;
      (** request ids behind [dep_lsn] — the writers whose durability this
          request's ack vouches for (what the crash explorer checks) *)
}

val make : spec -> arrival_us:float -> t

val apply_model :
  shards:int ->
  spec ->
  accounts:int64 array ->
  tellers:int64 array ->
  branches:int64 array ->
  unit
(** Apply the request to plain in-memory balance arrays — the serial
    reference execution the scheduler's results are checked against.
    Tellers and branches are shard-major: a payment updates teller
    [shard * Tpca.tellers + teller] (likewise its branch) on its
    account's shard [account mod shards]. *)
