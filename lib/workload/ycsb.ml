module Rng = Rvm_util.Rng

type mix = A | B | C | D | E | F

let mix_of_string = function
  | "a" | "A" -> Some A
  | "b" | "B" -> Some B
  | "c" | "C" -> Some C
  | "d" | "D" -> Some D
  | "e" | "E" -> Some E
  | "f" | "F" -> Some F
  | _ -> None

let mix_name = function
  | A -> "ycsb-a"
  | B -> "ycsb-b"
  | C -> "ycsb-c"
  | D -> "ycsb-d"
  | E -> "ycsb-e"
  | F -> "ycsb-f"

type op =
  | Read of string
  | Update of string * string
  | Insert of string * string
  | Scan of string * int
  | Rmw of string

let op_name = function
  | Read _ -> "read"
  | Update _ -> "update"
  | Insert _ -> "insert"
  | Scan _ -> "scan"
  | Rmw _ -> "rmw"

let op_key = function
  | Read k | Update (k, _) | Insert (k, _) | Scan (k, _) | Rmw k -> k

(* The decimal digits of [n >= 0]. *)
let digits n =
  let rec go n d = if n < 10 then d else go (n / 10) (d + 1) in
  go n 1

(* Write [n >= 0] zero-padded into [b.[pos .. pos + width - 1]], keeping
   only the digits that fall below [b]'s length. *)
let put_digits b ~pos ~width n =
  let n = ref n in
  for p = pos + width - 1 downto pos do
    if p < Bytes.length b then
      Bytes.unsafe_set b p (Char.unsafe_chr (48 + (!n mod 10)));
    n := !n / 10
  done

(* ["user%010d"], written into one buffer. *)
let key_of i =
  if i < 0 then invalid_arg "Ycsb.key_of: negative index";
  let width = Int.max 10 (digits i) in
  let b = Bytes.create (4 + width) in
  Bytes.blit_string "user" 0 b 0 4;
  put_digits b ~pos:4 ~width i;
  Bytes.unsafe_to_string b

(* Values are a version counter in a fixed-width prefix, padded out to
   [len]: ["v%012d"] then ['.'] up to [len], or the prefix cut to [len].
   Deterministic renderings mean the live execution and the serial
   reference replay compute byte-identical read-modify-write results. *)
let value ~len ~ver =
  if ver < 0 then invalid_arg "Ycsb.value: negative version";
  let b = Bytes.make (Int.max 0 len) '.' in
  if len > 0 then Bytes.unsafe_set b 0 'v';
  put_digits b ~pos:1 ~width:(Int.max 12 (digits ver)) ver;
  Bytes.unsafe_to_string b

let version_of v =
  if String.length v >= 13 && v.[0] = 'v' then
    match int_of_string_opt (String.sub v 1 12) with Some n -> n | None -> 0
  else 0

let rmw_next ~value_len old =
  let ver = match old with Some v -> version_of v | None -> 0 in
  value ~len:value_len ~ver:(ver + 1)

type gen = {
  rng : Rng.t;
  mix : mix;
  scan_max : int;
  fresh : string;  (** version 1, the value every update and insert writes *)
  mutable records : int;  (** keys 0..records-1 exist *)
  mutable zipf : Rng.zipf;  (** rebuilt lazily as [records] grows *)
}

let create ~rng ~mix ~records ~value_len ~scan_max =
  if records <= 0 then invalid_arg "Ycsb.create: records must be positive";
  if scan_max <= 0 then invalid_arg "Ycsb.create: scan_max must be positive";
  {
    rng;
    mix;
    scan_max;
    fresh = value ~len:value_len ~ver:1;
    records;
    zipf = Rng.zipf_make ~n:records ~s:0.99;
  }

let records t = t.records

(* Zipf over the current key population. Rebuilding the CDF is O(n), so
   amortize: rebuild only once the population doubles past the sampler,
   and clamp draws in between (the clamp only matters for D/E inserts,
   which grow [records] by a fraction of a percent per rebuild window). *)
let zipf_key t =
  if t.records > 2 * Rng.zipf_n t.zipf then
    t.zipf <- Rng.zipf_make ~n:t.records ~s:0.99;
  min (Rng.zipf t.rng t.zipf) (t.records - 1)

(* YCSB's "latest" distribution: zipf-skewed towards recently inserted
   keys. *)
let latest_key t =
  let d = zipf_key t in
  max 0 (t.records - 1 - d)

let fresh_value t = t.fresh

let insert_op t =
  let i = t.records in
  t.records <- t.records + 1;
  Insert (key_of i, fresh_value t)

(* Draw order is fixed (mix roll, then key) so sequences are seed-stable
   regardless of which arm each roll lands in. *)
let next t =
  let roll = Rng.int t.rng 100 in
  match t.mix with
  | A -> if roll < 50 then Read (key_of (zipf_key t)) else Update (key_of (zipf_key t), fresh_value t)
  | B -> if roll < 95 then Read (key_of (zipf_key t)) else Update (key_of (zipf_key t), fresh_value t)
  | C -> Read (key_of (zipf_key t))
  | D -> if roll < 95 then Read (key_of (latest_key t)) else insert_op t
  | E ->
    if roll < 95 then Scan (key_of (zipf_key t), 1 + Rng.int t.rng t.scan_max)
    else insert_op t
  | F -> if roll < 50 then Read (key_of (zipf_key t)) else Rmw (key_of (zipf_key t))

(* --- serial reference model --- *)

let apply_model tbl ~value_len op =
  match op with
  | Read _ | Scan _ -> ()
  | Update (k, v) | Insert (k, v) -> Hashtbl.replace tbl k v
  | Rmw k -> Hashtbl.replace tbl k (rmw_next ~value_len (Hashtbl.find_opt tbl k))
