(* The SplitMix64 state lives in an 8-byte buffer rather than a mutable
   [int64] field: a field would box every new state, so each draw would
   allocate; a buffer is written in place, and [int], [float] and [zipf]
   draw without allocating. *)
type t = Bytes.t

let create ~seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let copy = Bytes.copy

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 s;
  mix s

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int";
  (* Rejection-free: modulo bias is negligible for the bounds we use
     (bound << 2^63), but use the high-quality low 62 bits anyway. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let[@inline] float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  v /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next t) 1L = 1L

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr (int t 256))
  done;
  b

let split t = create ~seed:(mix (next t))

(* Bounded Zipf(s) over ranks 0..n-1: P(rank i) ∝ 1/(i+1)^s. The
   normalized CDF is materialized once (the server's key universe is
   thousands of accounts, not billions), so sampling is one uniform draw
   plus a binary search — deterministic and O(log n). *)
type zipf = { n : int; cdf : float array }

let zipf_make ~n ~s =
  if n <= 0 then invalid_arg "Rng.zipf_make: n must be positive";
  if s < 0. then invalid_arg "Rng.zipf_make: s must be non-negative";
  let cdf = Array.make n 0. in
  let total = ref 0. in
  for i = 0 to n - 1 do
    total := !total +. (float_of_int (i + 1) ** -.s);
    cdf.(i) <- !total
  done;
  let z = !total in
  for i = 0 to n - 1 do
    cdf.(i) <- cdf.(i) /. z
  done;
  cdf.(n - 1) <- 1.;  (* guard against rounding leaving a gap at the top *)
  { n; cdf }

let zipf_n z = z.n

let zipf t z =
  let u = float t 1.0 in
  (* Smallest rank whose cumulative probability exceeds u. *)
  let lo = ref 0 and hi = ref (z.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo
