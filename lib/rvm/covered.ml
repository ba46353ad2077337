module Intervals = Rvm_util.Intervals

type t = int array

(* Triple [i] (a multiple of 3) orders before triple [j] by segment, then
   by start. *)
let before a i j = a.(i) < a.(j) || (a.(i) = a.(j) && a.(i + 1) < a.(j + 1))

let swap a i j =
  for k = 0 to 2 do
    let x = a.(i + k) in
    a.(i + k) <- a.(j + k);
    a.(j + k) <- x
  done

(* Write [iv]'s intervals, offset by [base], as triples of segment [seg]
   from triple index [k] on; returns the next free index. *)
let fill a k ~seg ~base iv =
  let n = Intervals.interval_count iv in
  for i = 0 to n - 1 do
    let lo = base + Intervals.lo_at iv i in
    a.(k + (3 * i)) <- seg;
    a.(k + (3 * i) + 1) <- lo;
    a.(k + (3 * i) + 2) <- lo + Intervals.len_at iv i
  done;
  k + (3 * n)

(* Sort the filled triples and coalesce them. *)
let finish a =
  let n = Array.length a / 3 in
  (* Insertion sort: the parts usually arrive in order already, and a
     transaction touches a handful of intervals. *)
  for i = 1 to n - 1 do
    let j = ref (3 * i) in
    while !j > 0 && before a !j (!j - 3) do
      swap a !j (!j - 3);
      j := !j - 3
    done
  done;
  (* Coalesce in place: a triple that overlaps or meets its predecessor in
     the same segment extends it. *)
  let w = ref 0 in
  for i = 0 to n - 1 do
    let seg = a.(3 * i) and lo = a.((3 * i) + 1) and hi = a.((3 * i) + 2) in
    if !w > 0 && a.(!w - 3) = seg && a.(!w - 1) >= lo then
      a.(!w - 1) <- max a.(!w - 1) hi
    else begin
      a.(!w) <- seg;
      a.(!w + 1) <- lo;
      a.(!w + 2) <- hi;
      w := !w + 3
    end
  done;
  if !w = Array.length a then a else Array.sub a 0 !w

let of_parts parts =
  let n =
    List.fold_left (fun n (_, _, iv) -> n + Intervals.interval_count iv) 0 parts
  in
  let a = Array.make (3 * n) 0 in
  ignore
    (List.fold_left (fun k (seg, base, iv) -> fill a k ~seg ~base iv) 0 parts);
  finish a

let rec count n = function
  | [] -> n
  | (pr : Txn.per_region) :: rest ->
    count (n + Intervals.interval_count pr.Txn.covered) rest

let rec fill_regions a k = function
  | [] -> ()
  | (pr : Txn.per_region) :: rest ->
    let r = pr.Txn.region in
    fill_regions a
      (fill a k ~seg:(Segment.id r.Region.seg) ~base:r.Region.seg_off
         pr.Txn.covered)
      rest

let of_regions prs =
  let a = Array.make (3 * count 0 prs) 0 in
  fill_regions a 0 prs;
  finish a

(* Both sides are coalesced, so an older interval is covered only if it
   lies inside a single newer one: the first newer triple of its segment
   that ends past its start. Older triples are sorted, so the newer
   cursor never moves back. *)
let subsumes ~newer ~older =
  let nn = Array.length newer and no = Array.length older in
  let i = ref 0 and j = ref 0 and ok = ref true in
  while !ok && !i < no do
    let seg = older.(!i) and lo = older.(!i + 1) and hi = older.(!i + 2) in
    while
      !j < nn
      && (newer.(!j) < seg || (newer.(!j) = seg && newer.(!j + 2) <= lo))
    do
      j := !j + 3
    done;
    ok :=
      !j < nn && newer.(!j) = seg && newer.(!j + 1) <= lo
      && hi <= newer.(!j + 2);
    i := !i + 3
  done;
  !ok

let to_list t =
  List.init (Array.length t / 3) (fun i -> (t.(3 * i), t.((3 * i) + 1), t.((3 * i) + 2)))
