module Rng = Rvm_util.Rng
module Page = Rvm_vm.Page

type pattern = Sequential | Random | Localized

let pattern_name = function
  | Sequential -> "sequential"
  | Random -> "random"
  | Localized -> "localized"

type layout = {
  accounts : int;
  base : int;
  tellers_base : int;
  branches_base : int;
  audit_base : int;
  audit_entries : int;
  total_len : int;
}

let account_size = 128
let audit_size = 64
let tellers = 100
let branches = 10
let balance_size = 16

let layout ~accounts ~base ~page_size =
  let accounts_len = accounts * account_size in
  let tellers_base = base + accounts_len in
  let branches_base = tellers_base + (tellers * balance_size) in
  let audit_base =
    Page.round_up ~page_size (branches_base + (branches * balance_size))
  in
  let audit_entries = 2 * accounts in
  let total_len =
    Page.round_up ~page_size (audit_base + (audit_entries * audit_size) - base)
  in
  {
    accounts;
    base;
    tellers_base;
    branches_base;
    audit_base;
    audit_entries;
    total_len;
  }

let account_addr l i = l.base + (i * account_size)
let teller_addr l i = l.tellers_base + (i * balance_size)
let branch_addr l i = l.branches_base + (i * balance_size)
let audit_addr l i = l.audit_base + (i * audit_size)

type state = {
  l : layout;
  pattern : pattern;
  rng : Rng.t;
  mutable seq_cursor : int;
  mutable audit_cursor : int;
  mutable count : int;
  pages_touched : (int, unit) Hashtbl.t;
}

let create l pattern ~seed =
  {
    l;
    pattern;
    rng = Rng.create ~seed;
    seq_cursor = 0;
    audit_cursor = 0;
    count = 0;
    pages_touched = Hashtbl.create 1024;
  }

let accounts_per_page = 4096 / account_size

(* Localized pattern: 70% of transactions hit the first 5% of account
   pages, 25% the next 15%, 5% the remaining 80% — uniform within each
   set. *)
let pick_account t =
  match t.pattern with
  | Sequential ->
    let a = t.seq_cursor in
    t.seq_cursor <- (t.seq_cursor + 1) mod t.l.accounts;
    a
  | Random -> Rng.int t.rng t.l.accounts
  | Localized ->
    let pages = max 1 ((t.l.accounts + accounts_per_page - 1) / accounts_per_page) in
    let hot = max 1 (pages * 5 / 100) in
    let warm = max 1 (pages * 15 / 100) in
    let cold = max 1 (pages - hot - warm) in
    let d = Rng.int t.rng 100 in
    let page =
      if d < 70 then Rng.int t.rng hot
      else if d < 95 then hot + Rng.int t.rng warm
      else hot + warm + Rng.int t.rng cold
    in
    let first = page * accounts_per_page in
    let span = min accounts_per_page (t.l.accounts - first) in
    first + Rng.int t.rng (max 1 span)

let write_i64 (e : Driver.engine) ~addr v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  e.Driver.store ~addr b

let transaction t (e : Driver.engine) =
  let open Driver in
  let l = t.l in
  let account = pick_account t in
  let teller = Rng.int t.rng tellers in
  let branch = teller mod branches in
  let delta = Int64.of_int (Rng.int t.rng 1000 - 500) in
  let tid = e.begin_txn () in
  (* Account record: declare the whole record, update the balance in its
     first word and a modification stamp after it. *)
  let acct_addr = account_addr l account in
  Hashtbl.replace t.pages_touched (acct_addr / 4096) ();
  e.set_range tid ~addr:acct_addr ~len:account_size;
  let old_balance = Bytes.get_int64_le (e.load ~addr:acct_addr ~len:8) 0 in
  write_i64 e ~addr:acct_addr (Int64.add old_balance delta);
  write_i64 e ~addr:(acct_addr + 8) (Int64.of_int t.count);
  (* Teller and branch balances. *)
  let teller_addr = teller_addr l teller in
  e.set_range tid ~addr:teller_addr ~len:balance_size;
  let old_teller = Bytes.get_int64_le (e.load ~addr:teller_addr ~len:8) 0 in
  write_i64 e ~addr:teller_addr (Int64.add old_teller delta);
  let branch_addr = branch_addr l branch in
  e.set_range tid ~addr:branch_addr ~len:balance_size;
  let old_branch = Bytes.get_int64_le (e.load ~addr:branch_addr ~len:8) 0 in
  write_i64 e ~addr:branch_addr (Int64.add old_branch delta);
  (* Audit trail: sequential append with wrap-around. *)
  let audit_addr = audit_addr l t.audit_cursor in
  t.audit_cursor <- (t.audit_cursor + 1) mod l.audit_entries;
  e.set_range tid ~addr:audit_addr ~len:audit_size;
  let entry = Bytes.create audit_size in
  Bytes.set_int64_le entry 0 (Int64.of_int account);
  Bytes.set_int64_le entry 8 (Int64.of_int teller);
  Bytes.set_int64_le entry 16 delta;
  Bytes.set_int64_le entry 24 (Int64.of_int t.count);
  e.store ~addr:audit_addr entry;
  e.commit tid;
  t.count <- t.count + 1

let transactions_run t = t.count
let account_pages_touched t = Hashtbl.length t.pages_touched

(* --- server requests --- *)

type kind = Payment | Transfer | Lookup

let kind_name = function
  | Payment -> "payment"
  | Transfer -> "transfer"
  | Lookup -> "lookup"

type spec = {
  id : int;
  kind : kind;
  account : int;
  account2 : int;
  teller : int;
  delta : int64;
}

let draw_spec ~accounts ~zipf ~rng ~transfer_pct ~read_pct ~id =
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
    | Payment | Lookup -> account
    | Transfer ->
      let rec draw () =
        let a = Rng.zipf rng zipf in
        if a = account then draw () else a
      in
      draw ()
  in
  let teller = Rng.int rng tellers in
  let delta = Int64.of_int (Rng.int rng 1000 - 500) in
  { id; kind; account; account2; teller; delta }

let make_gen ?(read_pct = 0) ~accounts ~zipf_s ~transfer_pct ~rng () =
  if accounts <= 0 then invalid_arg "Tpca.make_gen: accounts";
  if transfer_pct < 0 || transfer_pct > 100 then
    invalid_arg "Tpca.make_gen: transfer_pct";
  if read_pct < 0 || read_pct > 100 then
    invalid_arg "Tpca.make_gen: read_pct";
  let zipf = Rng.zipf_make ~n:accounts ~s:zipf_s in
  fun ~id -> draw_spec ~accounts ~zipf ~rng ~transfer_pct ~read_pct ~id

(* Serial reference model: the ops are per-cell additions, so any
   serializable execution of a request set lands on the same balances as
   applying the specs in any order — what the interleaving property
   checks the server against. A payment's teller and branch live on its
   account's shard. *)
let apply_model ~shards spec ~accounts ~tellers:teller_bal ~branches:branch_bal
    =
  let add arr i d = arr.(i) <- Int64.add arr.(i) d in
  match spec.kind with
  | Payment ->
    let s = spec.account mod shards in
    add accounts spec.account spec.delta;
    add teller_bal ((s * tellers) + spec.teller) spec.delta;
    add branch_bal ((s * branches) + (spec.teller mod branches)) spec.delta
  | Transfer ->
    add accounts spec.account spec.delta;
    add accounts spec.account2 (Int64.neg spec.delta)
  | Lookup -> ()
