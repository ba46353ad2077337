(* Unit tests for Rvm_util: checksums, byte buffers, intervals, RNG, stats. *)

open Rvm_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* CRC-32 test vectors (IEEE): crc32("123456789") = 0xCBF43926. *)
let test_crc_vector () =
  Alcotest.(check int32) "crc32(123456789)" 0xCBF43926l
    (Checksum.string "123456789");
  Alcotest.(check int32) "crc32(empty)" 0l (Checksum.string "")

let test_crc_incremental () =
  let whole = Checksum.string "hello world" in
  let part = Checksum.update_string (Checksum.string "hello ") "world" in
  Alcotest.(check int32) "incremental = one-shot" whole part

let test_crc_detects_flip () =
  let b = Bytes.of_string "some log record payload" in
  let c1 = Checksum.bytes b ~pos:0 ~len:(Bytes.length b) in
  Bytes.set b 5 'X';
  let c2 = Checksum.bytes b ~pos:0 ~len:(Bytes.length b) in
  check_bool "flip changes crc" true (c1 <> c2)

let test_bytebuf_roundtrip () =
  let b = Bytebuf.create () in
  Bytebuf.u8 b 0xAB;
  Bytebuf.u16 b 0xCDEF;
  Bytebuf.u32 b 0xDEADBEEF;
  Bytebuf.i32 b (-42l);
  Bytebuf.u64 b 0x0123456789ABCDEFL;
  Bytebuf.uint b max_int;
  Bytebuf.int b (-1);
  Bytebuf.int b min_int;
  Bytebuf.lstring b "payload";
  let c = Bytebuf.Cursor.of_buf b in
  check_int "u8" 0xAB (Bytebuf.Cursor.u8 c);
  check_int "u16" 0xCDEF (Bytebuf.Cursor.u16 c);
  check_int "u32" 0xDEADBEEF (Bytebuf.Cursor.u32 c);
  Alcotest.(check int32) "i32" (-42l) (Bytebuf.Cursor.i32 c);
  Alcotest.(check int64) "u64" 0x0123456789ABCDEFL (Bytebuf.Cursor.u64 c);
  check_int "uint" max_int (Bytebuf.Cursor.uint c);
  (* [int] writes what [u64] writes for [Int64.of_int]: negative values
     (a control range's segment is -1) sign-extend. *)
  Alcotest.(check int64) "int -1" (-1L) (Bytebuf.Cursor.u64 c);
  Alcotest.(check int64) "int min_int" (Int64.of_int min_int) (Bytebuf.Cursor.u64 c);
  Alcotest.(check string) "lstring" "payload" (Bytebuf.Cursor.lstring c);
  check_int "exhausted" 0 (Bytebuf.Cursor.remaining c)

let test_bytebuf_underflow () =
  let b = Bytebuf.create () in
  Bytebuf.u16 b 7;
  let c = Bytebuf.Cursor.of_buf b in
  Alcotest.check_raises "underflow" Bytebuf.Underflow (fun () ->
      ignore (Bytebuf.Cursor.u32 c))

let test_bytebuf_growth () =
  let b = Bytebuf.create ~capacity:4 () in
  for i = 0 to 9999 do
    Bytebuf.u32 b i
  done;
  check_int "length" 40000 (Bytebuf.length b);
  let c = Bytebuf.Cursor.of_buf b in
  for i = 0 to 9999 do
    check_int "value" i (Bytebuf.Cursor.u32 c)
  done

(* Growth across the initial capacity boundary must preserve already
   written bytes, and the raw-bytes/blit/cursor paths must agree at the
   boundaries. *)
let test_bytebuf_boundaries () =
  let b = Bytebuf.create ~capacity:1 () in
  (* Append a chunk that forces repeated doubling mid-append. *)
  let chunk = Bytes.init 100 (fun i -> Char.chr (i mod 256)) in
  Bytebuf.bytes b chunk ~pos:0 ~len:100;
  Bytebuf.bytes b chunk ~pos:90 ~len:10;
  Bytebuf.string b "tail";
  check_int "length" 114 (Bytebuf.length b);
  let out = Bytebuf.contents b in
  Alcotest.(check string) "prefix preserved across growth"
    (Bytes.to_string chunk)
    (Bytes.sub_string out 0 100);
  Alcotest.(check string) "sub-range append"
    (Bytes.sub_string chunk 90 10)
    (Bytes.sub_string out 100 10);
  Alcotest.(check string) "tail" "tail" (Bytes.sub_string out 110 4);
  (* blit_into at a non-zero position, surrounded by sentinels. *)
  let dst = Bytes.make 120 '\xff' in
  Bytebuf.blit_into b dst ~pos:3;
  Alcotest.(check char) "sentinel before" '\xff' (Bytes.get dst 0);
  Alcotest.(check string) "blit contents"
    (Bytes.to_string out)
    (Bytes.sub_string dst 3 114);
  Alcotest.(check char) "sentinel after" '\xff' (Bytes.get dst 117);
  (* checksum over a range of the buffer equals checksum of the copy. *)
  Alcotest.(check int32) "checksum range"
    (Checksum.bytes out ~pos:50 ~len:60)
    (Bytebuf.checksum b ~pos:50 ~len:60);
  (* clear resets length but the buffer stays usable. *)
  Bytebuf.clear b;
  check_int "cleared" 0 (Bytebuf.length b);
  Bytebuf.u32 b 7;
  check_int "reusable" 4 (Bytebuf.length b);
  (* Cursor seek/skip boundary behavior: consuming exactly to the end is
     fine, one past raises. *)
  let c = Bytebuf.Cursor.of_buf b in
  Bytebuf.Cursor.skip c 4;
  check_int "at end" 0 (Bytebuf.Cursor.remaining c);
  Alcotest.check_raises "skip past end" Bytebuf.Underflow (fun () ->
      Bytebuf.Cursor.skip c 1);
  Bytebuf.Cursor.seek c 0;
  check_int "seek rewinds" 4 (Bytebuf.Cursor.remaining c);
  Alcotest.check_raises "empty window" Bytebuf.Underflow (fun () ->
      ignore (Bytebuf.Cursor.u8 (Bytebuf.Cursor.of_bytes ~pos:2 ~len:0 out)))

let intervals_list t = Intervals.to_list t

(* A fresh set holding [(lo, len)] pairs, added in order. *)
let intervals_of l =
  let t = Intervals.create () in
  List.iter (fun (lo, len) -> Intervals.add t ~lo ~len) l;
  t

(* [Intervals.add_uncovered], its gaps collected in the order reported. *)
let add_uncovered t ~lo ~len =
  let gaps = ref [] in
  Intervals.add_uncovered t ~lo ~len ~f:(fun ~lo ~len ->
      gaps := (lo, len) :: !gaps);
  List.rev !gaps

let test_intervals_coalesce () =
  let t = Intervals.create () in
  Intervals.add t ~lo:10 ~len:5;
  Intervals.add t ~lo:20 ~len:5;
  Alcotest.(check (list (pair int int)))
    "disjoint" [ (10, 5); (20, 5) ] (intervals_list t);
  (* Adjacent on the left coalesces. *)
  Intervals.add t ~lo:15 ~len:5;
  Alcotest.(check (list (pair int int))) "merged" [ (10, 15) ] (intervals_list t)

let test_intervals_overlap_merge () =
  let t = intervals_of [ (0, 10) ] in
  Intervals.add t ~lo:5 ~len:20;
  Alcotest.(check (list (pair int int))) "overlap" [ (0, 25) ] (intervals_list t);
  Intervals.add t ~lo:100 ~len:1;
  Intervals.add t ~lo:0 ~len:200;
  Alcotest.(check (list (pair int int))) "swallow" [ (0, 200) ] (intervals_list t)

let test_intervals_uncovered () =
  let t = intervals_of [ (10, 10); (30, 10) ] in
  let gaps = add_uncovered t ~lo:5 ~len:40 in
  Alcotest.(check (list (pair int int)))
    "gaps" [ (5, 5); (20, 10); (40, 5) ] gaps;
  Alcotest.(check (list (pair int int))) "merged" [ (5, 40) ] (intervals_list t);
  (* Fully covered: no gaps. *)
  let gaps = add_uncovered t ~lo:10 ~len:20 in
  Alcotest.(check (list (pair int int))) "no gaps" [] gaps

(* Adversarial add_uncovered sequences: duplicate, nested, adjacent and
   overlapping ranges — the exact shapes the intra-transaction optimization
   feeds it when set_range calls repeat and overlap. *)
let test_intervals_uncovered_adversarial () =
  let t = Intervals.create () in
  let gaps = add_uncovered t ~lo:10 ~len:10 in
  Alcotest.(check (list (pair int int))) "fresh is all gap" [ (10, 10) ] gaps;
  (* Exact duplicate: nothing new. *)
  let gaps = add_uncovered t ~lo:10 ~len:10 in
  Alcotest.(check (list (pair int int))) "duplicate" [] gaps;
  (* Nested strictly inside: nothing new. *)
  let gaps = add_uncovered t ~lo:13 ~len:4 in
  Alcotest.(check (list (pair int int))) "nested" [] gaps;
  (* Adjacent on the right: entirely new, and coalesces. *)
  let gaps = add_uncovered t ~lo:20 ~len:5 in
  Alcotest.(check (list (pair int int))) "adjacent right" [ (20, 5) ] gaps;
  Alcotest.(check (list (pair int int)))
    "coalesced" [ (10, 15) ] (intervals_list t);
  (* Adjacent on the left. *)
  let gaps = add_uncovered t ~lo:5 ~len:5 in
  Alcotest.(check (list (pair int int))) "adjacent left" [ (5, 5) ] gaps;
  (* Overlapping both ends of the covered block. *)
  let gaps = add_uncovered t ~lo:0 ~len:40 in
  Alcotest.(check (list (pair int int)))
    "overhangs both sides" [ (0, 5); (25, 15) ] gaps;
  Alcotest.(check (list (pair int int))) "one block" [ (0, 40) ] (intervals_list t);
  (* Spanning several disjoint blocks at once. *)
  Intervals.add t ~lo:50 ~len:10;
  Intervals.add t ~lo:70 ~len:10;
  let gaps = add_uncovered t ~lo:35 ~len:55 in
  Alcotest.(check (list (pair int int)))
    "multi-gap" [ (40, 10); (60, 10); (80, 10) ] gaps;
  Alcotest.(check (list (pair int int))) "all merged" [ (0, 90) ] (intervals_list t);
  (* Zero-length is a no-op with no gaps. *)
  let before = intervals_list t in
  let gaps = add_uncovered t ~lo:1000 ~len:0 in
  Alcotest.(check (list (pair int int))) "empty range" [] gaps;
  Alcotest.(check (list (pair int int)))
    "set unchanged" before (intervals_list t)

(* Randomized cross-check of add/add_uncovered/covers/byte_count against a
   naive bitmap model. *)
let test_intervals_vs_bitmap () =
  let universe = 256 in
  let bitmap = Array.make universe false in
  let rng = Rng.create ~seed:2026L in
  let t = Intervals.create () in
  for _ = 1 to 500 do
    let lo = Rng.int rng universe in
    let len = Rng.int rng (universe - lo + 1) in
    let gaps = add_uncovered t ~lo ~len in
    (* Gaps are disjoint, in-range, sorted, and exactly the uncovered bytes. *)
    let gap_bytes = List.fold_left (fun a (_, l) -> a + l) 0 gaps in
    let expect_gap_bytes = ref 0 in
    for i = lo to lo + len - 1 do
      if not bitmap.(i) then incr expect_gap_bytes
    done;
    check_int "gap bytes match bitmap" !expect_gap_bytes gap_bytes;
    List.iter
      (fun (glo, glen) ->
        check_bool "gap inside request" true (glo >= lo && glo + glen <= lo + len);
        for i = glo to glo + glen - 1 do
          check_bool "gap byte was uncovered" false bitmap.(i)
        done)
      gaps;
    for i = lo to lo + len - 1 do
      bitmap.(i) <- true
    done;
    check_int "byte_count" (Array.fold_left (fun a b -> if b then a + 1 else a) 0 bitmap)
      (Intervals.byte_count t)
  done;
  (* Final structural check: to_list intervals are disjoint, sorted, non-adjacent. *)
  let rec well_formed = function
    | (lo1, len1) :: ((lo2, _) :: _ as rest) ->
      check_bool "positive" true (len1 > 0);
      check_bool "gap between intervals" true (lo1 + len1 < lo2);
      well_formed rest
    | [ (_, len) ] -> check_bool "positive" true (len > 0)
    | [] -> ()
  in
  well_formed (intervals_list t)

(* The gap walk's two searches, [first_uncovered] and [first_covered],
   against a bitmap of the same set, as random short runs fill it. *)
let test_intervals_gap_walk () =
  let universe = 256 in
  let bitmap = Array.make universe false in
  let rng = Rng.create ~seed:2027L in
  let t = Intervals.create () in
  let first ~covered ~lo ~hi =
    let i = ref lo in
    while !i < hi && bitmap.(!i) <> covered do
      incr i
    done;
    !i
  in
  for _ = 1 to 200 do
    let lo = Rng.int rng universe in
    let len = Rng.int rng (min 24 (universe - lo) + 1) in
    Intervals.add t ~lo ~len;
    Array.fill bitmap lo len true;
    for _ = 1 to 8 do
      let lo = Rng.int rng universe in
      let hi = lo + Rng.int rng (universe - lo + 1) in
      check_int "first_uncovered"
        (first ~covered:false ~lo ~hi)
        (Intervals.first_uncovered t ~lo ~hi);
      check_int "first_covered"
        (first ~covered:true ~lo ~hi)
        (Intervals.first_covered t ~lo ~hi)
    done
  done;
  check_int "empty range" 5 (Intervals.first_uncovered t ~lo:5 ~hi:5);
  check_int "empty range, covered" 5 (Intervals.first_covered t ~lo:5 ~hi:5)

let test_intervals_covers () =
  let t = intervals_of [ (10, 10) ] in
  check_bool "inside" true (Intervals.covers t ~lo:12 ~len:5);
  check_bool "exact" true (Intervals.covers t ~lo:10 ~len:10);
  check_bool "past end" false (Intervals.covers t ~lo:12 ~len:10);
  check_bool "before" false (Intervals.covers t ~lo:5 ~len:3);
  check_bool "empty always covered" true (Intervals.covers t ~lo:999 ~len:0);
  check_bool "mem" true (Intervals.mem t 19);
  check_bool "not mem" false (Intervals.mem t 20)

let test_intervals_subsumes () =
  let a = intervals_of [ (0, 50); (100, 50) ] in
  let b = intervals_of [ (10, 10); (120, 5) ] in
  check_bool "a subsumes b" true (Intervals.subsumes a b);
  check_bool "b does not subsume a" false (Intervals.subsumes b a);
  let c = intervals_of [ (40, 20) ] in
  check_bool "straddles gap" false (Intervals.subsumes a c)

let test_intervals_intersect () =
  let t = intervals_of [ (10, 10) ] in
  check_bool "overlap" true (Intervals.inter_nonempty t ~lo:15 ~len:10);
  check_bool "adjacent is empty" false (Intervals.inter_nonempty t ~lo:20 ~len:5);
  check_bool "before" false (Intervals.inter_nonempty t ~lo:0 ~len:10);
  check_bool "spanning" true (Intervals.inter_nonempty t ~lo:0 ~len:100)

let test_intervals_counts () =
  let t = intervals_of [ (0, 3); (10, 4) ] in
  check_int "bytes" 7 (Intervals.byte_count t);
  check_int "intervals" 2 (Intervals.interval_count t)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42L and b = Rng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_bounds () =
  let r = Rng.create ~seed:7L in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    check_bool "in range" true (v >= 0 && v < 17);
    let f = Rng.float r 2.5 in
    check_bool "float range" true (f >= 0. && f < 2.5)
  done

let test_rng_distribution () =
  (* Rough uniformity: each of 8 buckets within 3x of expectation. *)
  let r = Rng.create ~seed:99L in
  let counts = Array.make 8 0 in
  let n = 80_000 in
  for _ = 1 to n do
    let v = Rng.int r 8 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c -> check_bool "bucket sane" true (c > n / 8 / 2 && c < n / 8 * 2))
    counts

let test_rng_split_independent () =
  let r = Rng.create ~seed:5L in
  let s = Rng.split r in
  let a = Rng.next r and b = Rng.next s in
  check_bool "streams differ" true (a <> b)

(* The stream itself, pinned: [rng.deterministic] only compares two
   generators with each other, which a change of representation that
   moved the stream would still pass. Every seeded run in the repository
   (arrivals, workload specs, backoff jitter, crash schedules) draws
   from this stream, so these literals are what keeps them where they
   are. Floats are compared as [%h] strings, bit for bit. *)
let test_rng_golden () =
  let r = Rng.create ~seed:42L in
  let draws n f = List.init n (fun _ -> f ()) in
  let hex = List.map (Printf.sprintf "%h") in
  Alcotest.(check (list int64)) "next"
    [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L ]
    (draws 3 (fun () -> Rng.next r));
  Alcotest.(check (list int)) "int 1000"
    [ 941; 812; 265; 231; 977; 501; 243; 551 ]
    (draws 8 (fun () -> Rng.int r 1000));
  Alcotest.(check (list string)) "float 1.0"
    [ "0x1.f8d2283914594p-2"; "0x1.06dbdb12fe7c8p-1"; "0x1.0a3f2ee68fdadp-1" ]
    (hex (draws 3 (fun () -> Rng.float r 1.0)));
  let z = Rng.zipf_make ~n:1000 ~s:0.8 in
  Alcotest.(check (list int)) "zipf n=1000 s=0.8"
    [ 221; 7; 2; 82; 1; 250; 844; 1; 154; 173 ]
    (draws 10 (fun () -> Rng.zipf r z));
  (* A copy replays the original's stream; a split starts its own and
     advances the original by one draw, the one it seeds from. *)
  let c = Rng.copy r in
  let s = Rng.split r in
  Alcotest.(check int64) "split" 8945435261701645156L (Rng.next s);
  Alcotest.(check int64) "original after split" 5120214421805786385L
    (Rng.next r);
  Alcotest.(check int64) "copy" 1368025501988796752L (Rng.next c);
  Alcotest.(check int64) "copy, second draw" 5120214421805786385L
    (Rng.next c)

let test_stats () =
  let s = Stats.of_list [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
  check_int "count" 8 (Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.mean s);
  Alcotest.(check (float 1e-6)) "stddev" 2.13809 (Stats.stddev s);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Stats.min s);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Stats.max s)

let test_stats_degenerate () =
  let s = Stats.create () in
  Alcotest.(check (float 0.)) "stddev of empty" 0. (Stats.stddev s);
  Stats.add s 3.;
  Alcotest.(check (float 0.)) "stddev of one" 0. (Stats.stddev s);
  Alcotest.(check (float 0.)) "mean of one" 3. (Stats.mean s)

let test_clock_null () =
  let c = Clock.null in
  Clock.charge_cpu c 100.;
  Clock.charge_io c 100.;
  Alcotest.(check (float 0.)) "null stays at 0" 0. (Clock.now_us c)

let test_clock_accounting () =
  let c = Clock.simulated () in
  Clock.charge_cpu c 10.;
  Clock.charge_background c 50.;
  Alcotest.(check (float 1e-9)) "bg does not advance wall" 10. (Clock.now_us c);
  Alcotest.(check (float 1e-9)) "cpu counts bg" 60. (Clock.cpu_us c);
  Clock.charge_io c 30.;
  Alcotest.(check (float 1e-9)) "io advances wall" 40. (Clock.now_us c);
  Alcotest.(check (float 1e-9)) "io drains backlog" 20. (Clock.backlog_us c);
  Clock.drain_backlog c;
  Alcotest.(check (float 1e-9)) "drain pays backlog" 60. (Clock.now_us c)

(* Chi-square goodness-of-fit of the Zipf sampler against its own CDF.
   n=50 ranks → 49 degrees of freedom; the 99.9% critical value is
   ~85.4, so a correct sampler fails this (seeded, deterministic) test
   with probability ~0.001 — and a rank-off-by-one or unnormalized CDF
   fails it spectacularly. *)
let test_zipf_chi_square () =
  let n = 50 and s = 1.0 and draws = 100_000 in
  let z = Rng.zipf_make ~n ~s in
  let rng = Rng.create ~seed:7L in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let k = Rng.zipf rng z in
    check_bool "in range" true (k >= 0 && k < n);
    counts.(k) <- counts.(k) + 1
  done;
  let h = ref 0. in
  for i = 1 to n do
    h := !h +. (1. /. (float_of_int i ** s))
  done;
  let chi2 = ref 0. in
  for i = 0 to n - 1 do
    let expected = float_of_int draws /. (float_of_int (i + 1) ** s) /. !h in
    let d = float_of_int counts.(i) -. expected in
    chi2 := !chi2 +. (d *. d /. expected)
  done;
  check_bool
    (Printf.sprintf "chi2 %.1f < 85.4 (49 dof, p=0.999)" !chi2)
    true (!chi2 < 85.4);
  (* skew sanity: rank 0 must dominate rank n-1 roughly by n^s *)
  check_bool "head dominates tail" true (counts.(0) > 20 * counts.(n - 1))

let test_zipf_degenerate () =
  (* s = 0 is uniform; a single-rank sampler always returns 0. *)
  let z0 = Rng.zipf_make ~n:4 ~s:0. in
  let rng = Rng.create ~seed:3L in
  let counts = Array.make 4 0 in
  for _ = 1 to 8000 do
    counts.(Rng.zipf rng z0) <- counts.(Rng.zipf rng z0) + 1
  done;
  Array.iter
    (fun c -> check_bool "roughly uniform" true (c > 1600 && c < 2400))
    counts;
  let z1 = Rng.zipf_make ~n:1 ~s:2.5 in
  for _ = 1 to 100 do
    check_int "single rank" 0 (Rng.zipf rng z1)
  done;
  Alcotest.check_raises "n must be positive"
    (Invalid_argument "Rng.zipf_make: n must be positive") (fun () ->
      ignore (Rng.zipf_make ~n:0 ~s:1.))

(* The YCSB key-chooser builds a Zipf sampler over ~10^6 ranks. At small
   n the chi-square test above covers distribution shape; at large n what
   matters is that every draw stays in bounds (the CDF's final entry must
   actually reach 1.0 despite a million float additions) and that the
   draw sequence is seed-stable, so scan-start keys reproduce across
   runs and machines. *)
let test_zipf_large_n_bounds_and_determinism () =
  let n = 1_000_000 in
  let z = Rng.zipf_make ~n ~s:0.99 in
  check_int "zipf_n" n (Rng.zipf_n z);
  let draw_all seed =
    let rng = Rng.create ~seed in
    Array.init 5_000 (fun _ ->
        let k = Rng.zipf rng z in
        check_bool "in [0, n)" true (k >= 0 && k < n);
        k)
  in
  let a = draw_all 42L and b = draw_all 42L in
  check_bool "seed-stable sequence" true (a = b);
  let c = draw_all 43L in
  check_bool "different seed diverges" true (a <> c);
  (* Skew sanity at scale: the head of the distribution dominates. *)
  let hot = Array.fold_left (fun acc k -> if k < 1000 then acc + 1 else acc) 0 a in
  check_bool "hot head at n=10^6" true (hot > 1_500);
  (* The tail is reachable: at least one draw lands beyond rank n/2. *)
  let deep = Array.exists (fun k -> k > n / 2) a in
  check_bool "deep tail reachable" true deep

let test_clock_advance_to () =
  let c = Clock.simulated () in
  Clock.charge_cpu c 10.;
  Clock.advance_to c 100.;
  Alcotest.(check (float 1e-9)) "idle wait advances wall" 100. (Clock.now_us c);
  Clock.advance_to c 50.;
  Alcotest.(check (float 1e-9)) "past target is a no-op" 100. (Clock.now_us c);
  Alcotest.(check (float 1e-9)) "idling charges no cpu" 10. (Clock.cpu_us c);
  (* background backlog drains for free while idling *)
  Clock.charge_background c 30.;
  Clock.advance_to c 200.;
  Alcotest.(check (float 1e-9)) "backlog drained" 0. (Clock.backlog_us c);
  Clock.drain_backlog c;
  Alcotest.(check (float 1e-9)) "nothing left to pay" 200. (Clock.now_us c)

(* The clock's arithmetic, pinned bit for bit: a fixed script of every
   kind of charge, with [now], [cpu], [io] and [backlog] as [%h] strings
   after each step. Every simulated number the repository reports is a
   sum of these charges, so a change to how the clock stores its fields
   must leave each sum, and the order of its additions, as it was. *)
let test_clock_charge_arithmetic () =
  let c = Clock.simulated () in
  let l1 = Clock.lane () and l2 = Clock.lane () in
  let script =
    [
      ("charge_cpu", fun () -> Clock.charge_cpu c 25.);
      ( "background",
        fun () ->
          Clock.background c (fun () ->
              Clock.charge_cpu c 12.5;
              Clock.charge_cpu c 0.1) );
      ("charge_background", fun () -> Clock.charge_background c 0.7);
      ("charge_io", fun () -> Clock.charge_io c 7.3);
      ("advance_to", fun () -> Clock.advance_to c 1000.3);
      ( "suspend",
        fun () ->
          Clock.suspend c (fun () ->
              Clock.charge_cpu c 50.;
              Clock.charge_io c 3.;
              Clock.advance_to c 5000.) );
      ( "on_lane 1",
        fun () ->
          Clock.on_lane c l1 (fun () ->
              Clock.charge_io c 17.4;
              Clock.charge_cpu c 0.3) );
      ("on_lane 2", fun () -> Clock.on_lane c l2 (fun () -> Clock.charge_cpu c 3.3));
      ("on_lane 1 again", fun () -> Clock.on_lane c l1 (fun () -> Clock.charge_io c 1.1));
      ("join_lanes", fun () -> Clock.join_lanes c [ l1; l2 ]);
      ("charge_background 2", fun () -> Clock.charge_background c 40.2);
      ("charge_io 2", fun () -> Clock.charge_io c 11.9);
      ("drain_backlog", fun () -> Clock.drain_backlog c);
      ("reset_counters", fun () -> Clock.reset_counters c);
      ("charge_cpu after reset", fun () -> Clock.charge_cpu c 0.1);
    ]
  in
  (* (step, now, cpu, io, backlog) *)
  let expected =
    [
      ("charge_cpu", "0x1.9p+4", "0x1.9p+4", "0x0p+0", "0x0p+0");
      ("background", "0x1.9p+4", "0x1.2cccccccccccdp+5", "0x0p+0", "0x1.9333333333333p+3");
      ("charge_background", "0x1.9p+4", "0x1.3266666666667p+5", "0x0p+0", "0x1.a999999999999p+3");
      ("charge_io", "0x1.0266666666666p+5", "0x1.3266666666667p+5", "0x1.d333333333333p+2", "0x1.7ffffffffffffp+2");
      ("advance_to", "0x1.f426666666666p+9", "0x1.3266666666667p+5", "0x1.d333333333333p+2", "0x0p+0");
      ("suspend", "0x1.f426666666666p+9", "0x1.3266666666667p+5", "0x1.d333333333333p+2", "0x0p+0");
      ("on_lane 1", "0x1.f426666666666p+9", "0x1.34ccccccccccdp+5", "0x1.8b33333333333p+4", "0x0p+0");
      ("on_lane 2", "0x1.f426666666666p+9", "0x1.4f33333333333p+5", "0x1.8b33333333333p+4", "0x0p+0");
      ("on_lane 1 again", "0x1.f426666666666p+9", "0x1.4f33333333333p+5", "0x1.9cccccccccccdp+4", "0x0p+0");
      ("join_lanes", "0x1.fd8ccccccccccp+9", "0x1.4f33333333333p+5", "0x1.9cccccccccccdp+4", "0x0p+0");
      ("charge_background 2", "0x1.fd8ccccccccccp+9", "0x1.4866666666666p+6", "0x1.9cccccccccccdp+4", "0x1.419999999999ap+5");
      ("charge_io 2", "0x1.01cp+10", "0x1.4866666666666p+6", "0x1.2d9999999999ap+5", "0x1.c4ccccccccccep+4");
      ("drain_backlog", "0x1.08d3333333333p+10", "0x1.4866666666666p+6", "0x1.2d9999999999ap+5", "0x0p+0");
      ("reset_counters", "0x1.08d3333333333p+10", "0x0p+0", "0x0p+0", "0x0p+0");
      ("charge_cpu after reset", "0x1.08d9999999999p+10", "0x1.999999999999ap-4", "0x0p+0", "0x0p+0");
    ]
  in
  List.iter2
    (fun (step, run) (step', now, cpu, io, backlog) ->
      assert (step = step');
      run ();
      let pin what want got =
        Alcotest.(check string) (step ^ ": " ^ what) want (Printf.sprintf "%h" got)
      in
      pin "now" now (Clock.now_us c);
      pin "cpu" cpu (Clock.cpu_us c);
      pin "io" io (Clock.io_us c);
      pin "backlog" backlog (Clock.backlog_us c))
    script expected

let test_cost_model_force () =
  (* The paper's measured mean log force is 17.4 ms; our calibrated model
     must land within 5% for typical benchmark record sizes. *)
  let us = Cost_model.log_force_us Cost_model.dec5000 ~bytes:500 in
  check_bool
    (Printf.sprintf "force ~17.4ms (got %.1f us)" us)
    true
    (us > 16_500. && us < 18_300.)

let suite =
  [
    ("crc.vector", `Quick, test_crc_vector);
    ("crc.incremental", `Quick, test_crc_incremental);
    ("crc.detects-flip", `Quick, test_crc_detects_flip);
    ("bytebuf.roundtrip", `Quick, test_bytebuf_roundtrip);
    ("bytebuf.underflow", `Quick, test_bytebuf_underflow);
    ("bytebuf.growth", `Quick, test_bytebuf_growth);
    ("bytebuf.boundaries", `Quick, test_bytebuf_boundaries);
    ("intervals.coalesce", `Quick, test_intervals_coalesce);
    ("intervals.overlap", `Quick, test_intervals_overlap_merge);
    ("intervals.uncovered", `Quick, test_intervals_uncovered);
    ("intervals.uncovered-adversarial", `Quick, test_intervals_uncovered_adversarial);
    ("intervals.vs-bitmap", `Quick, test_intervals_vs_bitmap);
    ("intervals.gap-walk", `Quick, test_intervals_gap_walk);
    ("intervals.covers", `Quick, test_intervals_covers);
    ("intervals.subsumes", `Quick, test_intervals_subsumes);
    ("intervals.intersect", `Quick, test_intervals_intersect);
    ("intervals.counts", `Quick, test_intervals_counts);
    ("rng.deterministic", `Quick, test_rng_deterministic);
    ("rng.bounds", `Quick, test_rng_bounds);
    ("rng.distribution", `Quick, test_rng_distribution);
    ("rng.split", `Quick, test_rng_split_independent);
    ("rng.golden", `Quick, test_rng_golden);
    ("rng.zipf-chi-square", `Quick, test_zipf_chi_square);
    ("rng.zipf-degenerate", `Quick, test_zipf_degenerate);
    ("rng.zipf-large-n", `Quick, test_zipf_large_n_bounds_and_determinism);
    ("stats.summary", `Quick, test_stats);
    ("stats.degenerate", `Quick, test_stats_degenerate);
    ("clock.null", `Quick, test_clock_null);
    ("clock.accounting", `Quick, test_clock_accounting);
    ("clock.advance-to", `Quick, test_clock_advance_to);
    ("clock.charge-arithmetic", `Quick, test_clock_charge_arithmetic);
    ("cost-model.log-force", `Quick, test_cost_model_force);
  ]
