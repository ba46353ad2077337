module Rng = Rvm_util.Rng
module Tpca = Rvm_workload.Tpca

type kind = Payment | Transfer | Lookup | Ycsb of Rvm_workload.Ycsb.op

let kind_name = function
  | Payment -> "payment"
  | Transfer -> "transfer"
  | Lookup -> "lookup"
  | Ycsb op -> "ycsb-" ^ Rvm_workload.Ycsb.op_name op

type spec = {
  id : int;
  kind : kind;
  account : int;
  account2 : int;
  teller : int;
  delta : int64;
}

let tpca_draw ~accounts ~zipf ~rng ~transfer_pct ~read_pct ~id =
  let account = Rng.zipf rng zipf in
  (* Draw order is fixed (account, read roll, kind roll, ...) so a stream
     with [read_pct = 0] is byte-identical to one generated before lookups
     existed — the serial-reference replay in the tests depends on it. *)
  let kind =
    if read_pct > 0 && Rng.int rng 100 < read_pct then Lookup
    else if accounts > 1 && Rng.int rng 100 < transfer_pct then Transfer
    else Payment
  in
  (* Transfers keep the two accounts in draw order — NOT sorted — so two
     concurrent transfers over the same hot pair can lock in opposite
     orders and deadlock; that is the scheduler path under test. *)
  let account2 =
    match kind with
    | Payment | Lookup | Ycsb _ -> account
    | Transfer ->
      let rec draw () =
        let a = Rng.zipf rng zipf in
        if a = account then draw () else a
      in
      draw ()
  in
  let teller = Rng.int rng Tpca.tellers in
  let delta = Int64.of_int (Rng.int rng 1000 - 500) in
  { id; kind; account; account2; teller; delta }

(* A generator is any deterministic [id -> spec] source; the TPC-A
   closure below is the original, {!of_fn} admits other workloads (YCSB)
   without the scheduler knowing. *)
type gen = { mutable next_id : int; draw : int -> spec }

let of_fn f = { next_id = 0; draw = (fun id -> f ~id) }

let make_gen ?(read_pct = 0) ~accounts ~zipf_s ~transfer_pct ~rng () =
  if accounts <= 0 then invalid_arg "Request.make_gen: accounts";
  if transfer_pct < 0 || transfer_pct > 100 then
    invalid_arg "Request.make_gen: transfer_pct";
  if read_pct < 0 || read_pct > 100 then
    invalid_arg "Request.make_gen: read_pct";
  let zipf = Rng.zipf_make ~n:accounts ~s:zipf_s in
  of_fn (fun ~id -> tpca_draw ~accounts ~zipf ~rng ~transfer_pct ~read_pct ~id)

let fresh g =
  let id = g.next_id in
  g.next_id <- id + 1;
  g.draw id

type status =
  | Queued
  | Running
  | Parked of string
  | Backoff
  | Ready
  | Committed
  | Shed

type t = {
  spec : spec;
  mutable status : status;
  mutable tid : int option;
  mutable attempts : int;
  arrival_us : float;
  mutable admitted_us : float;
  mutable done_us : float;
  mutable commit_lsn : int;
  mutable dep_lsn : int;
  mutable dep_writers : int list;
}

let make spec ~arrival_us =
  {
    spec;
    status = Queued;
    tid = None;
    attempts = 0;
    arrival_us;
    admitted_us = nan;
    done_us = nan;
    commit_lsn = 0;
    dep_lsn = 0;
    dep_writers = [];
  }

(* Serial reference model: the ops are per-cell additions, so any
   serializable execution of a request set lands on the same balances as
   applying the specs in any order — what the interleaving property
   checks the scheduler against. A payment's teller and branch live on
   its account's shard. *)
let apply_model ~shards spec ~accounts ~tellers ~branches =
  let add arr i d = arr.(i) <- Int64.add arr.(i) d in
  match spec.kind with
  | Payment ->
    let s = spec.account mod shards in
    add accounts spec.account spec.delta;
    add tellers ((s * Tpca.tellers) + spec.teller) spec.delta;
    add branches ((s * Tpca.branches) + (spec.teller mod Tpca.branches))
      spec.delta
  | Transfer ->
    add accounts spec.account spec.delta;
    add accounts spec.account2 (Int64.neg spec.delta)
  | Lookup | Ycsb _ -> ()
