(* Tests for the windowed telemetry layer: counters become per-window
   deltas, histograms per-window quantiles, gauges sample at window
   close, the retained ring is bounded, clock jumps skip cleanly, and
   flush emits the partial tail. *)

module Registry = Rvm_obs.Registry
module Counter = Rvm_obs.Counter
module Histogram = Rvm_obs.Histogram
module Timeseries = Rvm_obs.Timeseries
module Json = Rvm_obs.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let check_float msg a b =
  Alcotest.(check (float 1e-6)) msg a b

let test_counter_deltas () =
  let reg = Registry.create () in
  let c = Registry.counter reg "ops" in
  let ts = Timeseries.create ~window_us:1000. reg in
  Counter.add c 5;
  (* first tick pins the epoch; the 5 pre-tick increments land in the
     first window *)
  check_int "no close yet" 0 (List.length (Timeseries.tick ts ~now_us:0.));
  Counter.add c 3;
  let closed = Timeseries.tick ts ~now_us:1000. in
  check_int "one window closed" 1 (List.length closed);
  let w0 = List.hd closed in
  check_int "w0 index" 0 w0.Timeseries.index;
  check_float "w0 t0" 0. w0.Timeseries.t0_us;
  check_float "w0 t1" 1000. w0.Timeseries.t1_us;
  check_int "w0 delta includes pre-epoch adds" 8
    (Timeseries.counter_delta w0 "ops");
  check_float "w0 rate per second" 8000. (Timeseries.rate w0 "ops");
  (* a quiet window omits the zero delta *)
  let closed = Timeseries.tick ts ~now_us:2000. in
  let w1 = List.hd closed in
  check_int "quiet window delta 0" 0 (Timeseries.counter_delta w1 "ops");
  check_bool "zero deltas omitted from the window" true
    (not (List.mem_assoc "ops" w1.Timeseries.counters));
  Counter.add c 2;
  let w2 = List.hd (Timeseries.tick ts ~now_us:3000.) in
  check_int "delta resumes after quiet window" 2
    (Timeseries.counter_delta w2 "ops")

let test_histogram_windows () =
  let reg = Registry.create () in
  let h = Registry.histogram reg "lat" in
  let ts = Timeseries.create ~window_us:1000. reg in
  ignore (Timeseries.tick ts ~now_us:0.);
  Histogram.observe h 10.;
  Histogram.observe h 10.;
  Histogram.observe h 1000.;
  let w0 = List.hd (Timeseries.tick ts ~now_us:1000.) in
  (match Timeseries.hist_stats w0 "lat" with
  | None -> Alcotest.fail "expected lat stats in window 0"
  | Some s ->
    check_int "w0 count" 3 s.Histogram.w_count;
    check_float "w0 sum" 1020. s.Histogram.w_sum;
    check_bool "w0 p50 near 10" true
      (s.Histogram.w_p50 >= 10. && s.Histogram.w_p50 < 11.);
    check_bool "w0 max covers 1000" true (s.Histogram.w_max >= 1000.));
  (* the next window only sees its own observations *)
  Histogram.observe h 50.;
  let w1 = List.hd (Timeseries.tick ts ~now_us:2000.) in
  (match Timeseries.hist_stats w1 "lat" with
  | None -> Alcotest.fail "expected lat stats in window 1"
  | Some s ->
    check_int "w1 count is the delta" 1 s.Histogram.w_count;
    check_bool "w1 p99 near 50" true
      (s.Histogram.w_p99 >= 50. && s.Histogram.w_p99 < 52.));
  (* empty histogram windows are omitted *)
  let w2 = List.hd (Timeseries.tick ts ~now_us:3000.) in
  check_bool "empty hist omitted" true
    (Timeseries.hist_stats w2 "lat" = None)

let test_gauges () =
  let reg = Registry.create () in
  let ts = Timeseries.create ~window_us:1000. reg in
  let level = ref 0.25 in
  Timeseries.gauge ts "level" (fun () -> !level);
  Timeseries.gauge ts "level" (fun () -> 99.);
  (* idempotent: first registration wins *)
  ignore (Timeseries.tick ts ~now_us:0.);
  level := 0.5;
  let w0 = List.hd (Timeseries.tick ts ~now_us:1000.) in
  (match Timeseries.gauge_value w0 "level" with
  | Some v -> check_float "gauge sampled at close" 0.5 v
  | None -> Alcotest.fail "expected gauge in window");
  level := 0.75;
  let w1 = List.hd (Timeseries.tick ts ~now_us:2000.) in
  match Timeseries.gauge_value w1 "level" with
  | Some v -> check_float "gauge resampled per window" 0.75 v
  | None -> Alcotest.fail "expected gauge in window"

(* The ring retains the last 512 closed windows. *)
let test_ring_bound () =
  let reg = Registry.create () in
  let ts = Timeseries.create ~window_us:100. reg in
  ignore (Timeseries.tick ts ~now_us:0.);
  for i = 1 to 520 do
    ignore (Timeseries.tick ts ~now_us:(float_of_int i *. 100.))
  done;
  check_int "all windows counted" 520 (Timeseries.completed ts);
  let retained = Timeseries.windows ts in
  check_int "ring bounded" 512 (List.length retained);
  check_int "oldest retained is window 8" 8
    (List.hd retained).Timeseries.index;
  match Timeseries.last ts with
  | Some w -> check_int "last is window 519" 519 w.Timeseries.index
  | None -> Alcotest.fail "expected a last window"

let test_clock_jump_skips () =
  let reg = Registry.create () in
  let ts = Timeseries.create ~window_us:100. reg in
  ignore (Timeseries.tick ts ~now_us:0.);
  (* jump 1000 windows ahead, past the 512-window ring: the leading
     empties are skipped, not materialized one by one *)
  let closed = Timeseries.tick ts ~now_us:100_000. in
  check_bool "at most a ring of windows materialized" true
    (List.length closed <= 512);
  check_bool "ring still bounded" true
    (List.length (Timeseries.windows ts) <= 512);
  match Timeseries.last ts with
  | Some w -> check_int "window indices caught up" 999 w.Timeseries.index
  | None -> Alcotest.fail "expected a last window"

let test_flush_partial_tail () =
  let reg = Registry.create () in
  let c = Registry.counter reg "ops" in
  let ts = Timeseries.create ~window_us:1000. reg in
  ignore (Timeseries.tick ts ~now_us:0.);
  ignore (Timeseries.tick ts ~now_us:1000.);
  Counter.add c 7;
  let closed = Timeseries.flush ts ~now_us:1250. in
  check_int "flush closes the partial tail" 1 (List.length closed);
  let w = List.hd closed in
  check_float "tail starts at the window boundary" 1000. w.Timeseries.t0_us;
  check_float "tail ends at now" 1250. w.Timeseries.t1_us;
  check_int "tail carries the delta" 7 (Timeseries.counter_delta w "ops")

let test_window_json () =
  let reg = Registry.create () in
  let c = Registry.counter reg "ops" in
  let h = Registry.histogram reg "lat" in
  let ts = Timeseries.create ~window_us:1000. reg in
  Timeseries.gauge ts "level" (fun () -> 0.5);
  ignore (Timeseries.tick ts ~now_us:0.);
  Counter.incr c;
  Histogram.observe h 42.;
  ignore (Timeseries.tick ts ~now_us:1000.);
  (* the serialized series parses back; integral floats print without a
     decimal point and legitimately reparse as Int, so compare with
     numeric coercion *)
  let rec same a b =
    match (a, b) with
    | Json.Int i, Json.Float f | Json.Float f, Json.Int i ->
      float_of_int i = f
    | Json.List xs, Json.List ys ->
      List.length xs = List.length ys && List.for_all2 same xs ys
    | Json.Obj xs, Json.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (k, v) (k', v') -> k = k' && same v v')
           xs ys
    | a, b -> a = b
  in
  let doc = Timeseries.to_json ts in
  let reparsed = Json.of_string (Json.to_string doc) in
  check_bool "timeseries JSON round-trips" true (same doc reparsed)

let suite =
  [
    Alcotest.test_case "counter deltas per window" `Quick test_counter_deltas;
    Alcotest.test_case "histogram window quantiles" `Quick
      test_histogram_windows;
    Alcotest.test_case "gauges sample at close" `Quick test_gauges;
    Alcotest.test_case "retained ring is bounded" `Quick test_ring_bound;
    Alcotest.test_case "clock jump skips empty windows" `Quick
      test_clock_jump_skips;
    Alcotest.test_case "flush emits the partial tail" `Quick
      test_flush_partial_tail;
    Alcotest.test_case "window JSON round-trips" `Quick test_window_json;
  ]
