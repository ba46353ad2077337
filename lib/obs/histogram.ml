(* HDR-style histogram: exact unit buckets below [sub_count], then
   [sub_count] linear sub-buckets per power-of-two octave, bounding the
   relative quantile error by 1/sub_count (~3%) instead of the 2x of
   plain power-of-two buckets. *)

let sub_bits = 5
let sub_count = 1 lsl sub_bits (* 32 *)
let max_k = 62
let bucket_count = sub_count + ((max_k - sub_bits + 1) * sub_count)

(* The running float statistics sit in a record of floats only, which
   OCaml stores unboxed: an observation updates them in place rather than
   allocating a box for each field it changes. *)
type floats = { mutable sum : float; mutable mn : float; mutable mx : float }

type t = {
  name : string;
  mutable count : int;
  f : floats;
  buckets : int array;
}

type snapshot = {
  mutable s_count : int;
  mutable s_sum : float;
  s_buckets : int array;
}

let v name =
  {
    name;
    count = 0;
    f = { sum = 0.; mn = infinity; mx = neg_infinity };
    buckets = Array.make bucket_count 0;
  }

let name t = t.name

(* floor(log2 n) for n >= 1, with guards against float rounding on exact
   powers of two. *)
let log2_floor n =
  let k = int_of_float (Float.log2 (float_of_int n)) in
  if k > 0 && n lsr k = 0 then k - 1
  else if k + 1 <= max_k && n lsr (k + 1) > 0 then k + 1
  else k

(* Observations bucket by their ceiling integer: exact below [sub_count],
   then octave k / sub-bucket (n - 2^k) / 2^(k-sub_bits). *)
let bucket_of_int n =
  if n < sub_count then n
  else
    let k = log2_floor n in
    if k > max_k then bucket_count - 1
    else
      let sub = (n - (1 lsl k)) lsr (k - sub_bits) in
      sub_count + ((k - sub_bits) * sub_count) + sub

let bucket_index v =
  if v <= 0. then 0
  else if v >= 4.611686018427387904e18 (* 2^62 *) then bucket_count - 1
  else bucket_of_int (int_of_float (Float.ceil v))

(* Largest value that maps to bucket [i] — the inclusive upper edge used
   when reporting quantiles. *)
let upper_bound i =
  if i < sub_count then float_of_int i
  else
    let octave = (i - sub_count) / sub_count in
    let sub = (i - sub_count) mod sub_count in
    let k = octave + sub_bits in
    float_of_int ((1 lsl k) + ((sub + 1) lsl (k - sub_bits)))

let observe t v =
  let v = if v < 0. then 0. else v in
  t.count <- t.count + 1;
  let f = t.f in
  f.sum <- f.sum +. v;
  if v < f.mn then f.mn <- v;
  if v > f.mx then f.mx <- v;
  let i = bucket_index v in
  t.buckets.(i) <- t.buckets.(i) + 1

let count t = t.count
let sum t = t.f.sum
let mean t = if t.count = 0 then 0. else t.f.sum /. float_of_int t.count
let min_value t = t.f.mn
let max_value t = t.f.mx
let min_opt t = if t.count = 0 then None else Some t.f.mn
let max_opt t = if t.count = 0 then None else Some t.f.mx

let quantile t q =
  if t.count = 0 then 0.
  else begin
    let target = Float.max 1. (q *. float_of_int t.count) in
    let acc = ref 0 in
    let result = ref (upper_bound (bucket_count - 1)) in
    (try
       for i = 0 to bucket_count - 1 do
         acc := !acc + t.buckets.(i);
         if float_of_int !acc >= target then begin
           result := upper_bound i;
           raise Exit
         end
       done
     with Exit -> ());
    (* Never report a quantile beyond the observed maximum. *)
    Float.min !result t.f.mx
  end

let percentile t p =
  let p = if p < 0. then 0. else if p > 100. then 100. else p in
  quantile t (p /. 100.)

let buckets t =
  let acc = ref [] in
  for i = bucket_count - 1 downto 0 do
    if t.buckets.(i) > 0 then acc := (upper_bound i, t.buckets.(i)) :: !acc
  done;
  !acc

let reset t =
  t.count <- 0;
  t.f.sum <- 0.;
  t.f.mn <- infinity;
  t.f.mx <- neg_infinity;
  Array.fill t.buckets 0 bucket_count 0

(* Window deltas: a snapshot is a cursor over the cumulative buckets;
   [advance] reports the statistics of everything observed since the
   cursor and moves it forward. *)

type window_stats = {
  w_count : int;
  w_sum : float;
  w_p50 : float;
  w_p95 : float;
  w_p99 : float;
  w_max : float;
}

let snapshot t =
  { s_count = t.count; s_sum = t.f.sum; s_buckets = Array.copy t.buckets }

let zero_snapshot () =
  { s_count = 0; s_sum = 0.; s_buckets = Array.make bucket_count 0 }

let delta_quantile t s ~d_count q =
  let target = Float.max 1. (q *. float_of_int d_count) in
  let acc = ref 0 in
  let result = ref 0. in
  (try
     for i = 0 to bucket_count - 1 do
       acc := !acc + t.buckets.(i) - s.s_buckets.(i);
       if float_of_int !acc >= target then begin
         result := upper_bound i;
         raise Exit
       end
     done
   with Exit -> ());
  !result

let advance t s =
  let d_count = t.count - s.s_count in
  let stats =
    if d_count <= 0 then
      { w_count = 0; w_sum = 0.; w_p50 = 0.; w_p95 = 0.; w_p99 = 0.; w_max = 0. }
    else begin
      let d_sum = t.f.sum -. s.s_sum in
      let hi = ref 0 in
      for i = 0 to bucket_count - 1 do
        if t.buckets.(i) - s.s_buckets.(i) > 0 then hi := i
      done;
      (* Bucket upper edges bound the window maximum from above (the exact
         per-window max is not retained); quantiles cannot exceed it. *)
      let w_max = Float.min (upper_bound !hi) t.f.mx in
      let q x = Float.min (delta_quantile t s ~d_count x) w_max in
      {
        w_count = d_count;
        w_sum = d_sum;
        w_p50 = q 0.5;
        w_p95 = q 0.95;
        w_p99 = q 0.99;
        w_max;
      }
    end
  in
  s.s_count <- t.count;
  s.s_sum <- t.f.sum;
  Array.blit t.buckets 0 s.s_buckets 0 bucket_count;
  stats
