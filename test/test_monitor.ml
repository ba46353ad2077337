(* Tests for the SLO monitor: hysteresis around incident open/close,
   the standard rules on synthetic windows, and the end-to-end promises
   — a healthy serve run reports zero incidents, a seeded overload run
   opens a typed incident whose postmortem pinpoints the offending
   windows, monitoring never perturbs the run it observes, and the
   windowed p99 series brackets truncation bursts the cumulative p99
   cannot show. *)

module Registry = Rvm_obs.Registry
module Counter = Rvm_obs.Counter
module Histogram = Rvm_obs.Histogram
module Timeseries = Rvm_obs.Timeseries
module Monitor = Rvm_obs.Monitor
module Json = Rvm_obs.Json
module S = Rvm_server.Server
module Y = Rvm_server.Ycsb_run

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- hysteresis state machine --- *)

let test_hysteresis () =
  let reg = Registry.create () in
  let bad = Registry.counter reg "bad" in
  let ts = Timeseries.create ~window_us:100. reg in
  let r =
    Monitor.rule ~open_after:2 ~close_after:2 "bad-windows" (fun w ->
        if Timeseries.counter_delta w "bad" > 0 then
          Monitor.Breach "bad things happened"
        else Monitor.Healthy)
  in
  let mon = Monitor.create ~rules:[ r ] ts reg in
  let step ~bad:b now =
    if b then Counter.incr bad;
    ignore (Monitor.tick mon ~now_us:now)
  in
  ignore (Monitor.tick mon ~now_us:0.);
  step ~bad:true 100.;
  (* one bad window: streak 1 < open_after, no incident *)
  step ~bad:false 200.;
  check_int "single breach never opens" 0 (Monitor.incident_count mon);
  step ~bad:true 300.;
  step ~bad:true 400.;
  (* second consecutive breach opens *)
  check_int "two consecutive breaches open" 1 (Monitor.incident_count mon);
  check_int "incident is open" 1 (List.length (Monitor.open_incidents mon));
  step ~bad:true 500.;
  check_int "still the same incident" 1 (Monitor.incident_count mon);
  step ~bad:false 600.;
  check_int "one healthy window does not close" 1
    (List.length (Monitor.open_incidents mon));
  step ~bad:false 700.;
  check_int "close_after healthy windows close" 0
    (List.length (Monitor.open_incidents mon));
  let inc = List.hd (Monitor.incidents mon) in
  check_bool "incident names its rule" true
    (inc.Monitor.i_rule = "bad-windows");
  check_bool "closed_at recorded" true (inc.Monitor.closed_at_us <> None);
  check_int "triggering windows retained" 3
    (List.length inc.Monitor.i_windows);
  check_int "one reason per retained window" 3
    (List.length inc.Monitor.i_reasons);
  check_bool "monitor no longer healthy" true (not (Monitor.healthy mon))

(* --- standard rules on synthetic windows --- *)

let test_shed_rule () =
  let reg = Registry.create () in
  let shed = Registry.counter reg "server.shed" in
  let committed = Registry.counter reg "server.committed" in
  let ts = Timeseries.create ~window_us:100. reg in
  let mon =
    Monitor.create ~rules:[ Monitor.shed_rate_rule () ] ts reg
  in
  ignore (Monitor.tick mon ~now_us:0.);
  for i = 1 to 3 do
    Counter.add shed 50;
    Counter.add committed 50;
    ignore (Monitor.tick mon ~now_us:(float_of_int i *. 100.))
  done;
  check_int "sustained shedding opens admission-shed" 1
    (Monitor.incident_count mon);
  check_bool "typed as admission-shed" true
    ((List.hd (Monitor.incidents mon)).Monitor.i_rule = "admission-shed")

let test_shed_rule_respects_min_volume () =
  let reg = Registry.create () in
  let shed = Registry.counter reg "server.shed" in
  let ts = Timeseries.create ~window_us:100. reg in
  let mon = Monitor.create ~rules:[ Monitor.shed_rate_rule () ] ts reg in
  ignore (Monitor.tick mon ~now_us:0.);
  for i = 1 to 5 do
    Counter.add shed 2;
    (* 2 arrivals/window: under min volume, 100% shed is still quiet *)
    ignore (Monitor.tick mon ~now_us:(float_of_int i *. 100.))
  done;
  check_int "tiny windows never page" 0 (Monitor.incident_count mon)

let test_truncation_starvation_rule () =
  let reg = Registry.create () in
  let ts = Timeseries.create ~window_us:100. reg in
  let due = ref 1. in
  Timeseries.gauge ts "truncation.due" (fun () -> !due);
  let mon =
    Monitor.create ~rules:[ Monitor.truncation_starvation_rule () ] ts reg
  in
  ignore (Monitor.tick mon ~now_us:0.);
  for i = 1 to 2 do
    ignore (Monitor.tick mon ~now_us:(float_of_int i *. 100.))
  done;
  check_int "two starved windows below open_after" 0
    (Monitor.incident_count mon);
  ignore (Monitor.tick mon ~now_us:300.);
  check_int "three starved windows open starvation" 1
    (Monitor.incident_count mon);
  check_bool "typed as truncation-starvation" true
    ((List.hd (Monitor.incidents mon)).Monitor.i_rule
    = "truncation-starvation");
  (* truncation work running keeps further windows healthy even while
     still due *)
  let steps = Registry.counter reg "truncation.incremental.step.count" in
  Counter.add steps 1;
  ignore (Monitor.tick mon ~now_us:400.);
  check_int "steps running while due stays the same incident" 1
    (Monitor.incident_count mon)

let test_durable_stall_rule () =
  let reg = Registry.create () in
  let ts = Timeseries.create ~window_us:100. reg in
  let commit = ref 10. and durable = ref 10. in
  Timeseries.gauge ts "lsn.commit" (fun () -> !commit);
  Timeseries.gauge ts "lsn.durable" (fun () -> !durable);
  let mon =
    Monitor.create ~rules:[ Monitor.durable_stall_rule () ] ts reg
  in
  ignore (Monitor.tick mon ~now_us:0.);
  ignore (Monitor.tick mon ~now_us:100.);
  (* horizon advancing with commits: healthy *)
  commit := 20.;
  durable := 20.;
  ignore (Monitor.tick mon ~now_us:200.);
  check_int "moving horizon is healthy" 0 (Monitor.incident_count mon);
  (* commit races ahead, durable freezes *)
  commit := 40.;
  ignore (Monitor.tick mon ~now_us:300.);
  commit := 60.;
  ignore (Monitor.tick mon ~now_us:400.);
  check_int "frozen durable horizon opens stall" 1
    (Monitor.incident_count mon)

(* --- end to end: healthy baseline vs seeded overload --- *)

(* The flight recorder's spans come from the engine's default span ring
   (512). *)
let healthy_cfg = S.default_config

(* Past the saturation knee: at 800 tps the default admission caps shed
   about half the arrivals. *)
let overload_cfg =
  { S.default_config with S.requests = 800; load = S.Open_loop 800. }

let test_healthy_run_zero_incidents () =
  let _result, mon = S.run_monitored healthy_cfg in
  check_bool "healthy baseline: zero incidents" true (Monitor.healthy mon);
  check_int "no incidents at all" 0 (Monitor.incident_count mon);
  check_bool "windows were actually closed" true
    (Timeseries.completed (Monitor.timeseries mon) > 0)

let test_overload_run_opens_incident () =
  let result, mon = S.run_monitored overload_cfg in
  check_bool "overload sheds" true (result.S.shed > 0);
  check_bool "overload opens at least one incident" true
    (Monitor.incident_count mon >= 1);
  let inc = List.hd (Monitor.incidents mon) in
  check_bool "the incident is the admission-shed page" true
    (inc.Monitor.i_rule = "admission-shed");
  check_bool "severity is page" true (inc.Monitor.i_severity = Monitor.Page);
  check_bool "triggering windows pinpointed" true
    (List.length inc.Monitor.i_windows >= 2);
  check_bool "flight recorder captured spans" true
    (inc.Monitor.flight_recorder <> [])

let test_postmortem_pinpoints_windows () =
  let _result, mon = S.run_monitored overload_cfg in
  let doc = Monitor.postmortem ~run:[ ("tool", Json.String "test") ] mon in
  (match Json.member "healthy" doc with
  | Some (Json.Bool false) -> ()
  | _ -> Alcotest.fail "postmortem must report healthy=false");
  (match Json.member "incidents" doc with
  | Some (Json.List (first :: _)) -> (
    (match Json.member "rule" first with
    | Some (Json.String _) -> ()
    | _ -> Alcotest.fail "incident must be typed");
    match Json.member "windows" first with
    | Some (Json.List (_ :: _)) -> ()
    | _ -> Alcotest.fail "incident must pinpoint its windows")
  | _ -> Alcotest.fail "postmortem must list incidents");
  (* the report itself is valid JSON *)
  let reparsed = Json.of_string (Json.to_string doc) in
  check_bool "postmortem round-trips" true (Json.member "schema" reparsed
                                            = Json.member "schema" doc)

(* YCSB runs through the same harness, so the same promise holds for it:
   mix A over a paged heap, offered past its knee. *)
let ycsb_cfg =
  {
    Y.default_config with
    Y.records = 2_000;
    requests = 400;
    load = S.Open_loop 80.;
  }

let test_monitoring_never_perturbs () =
  let bare = S.run overload_cfg in
  let monitored, _mon = S.run_monitored overload_cfg in
  check_bool "monitored result is byte-identical to the bare run" true
    (bare = monitored);
  let bare = Y.run ycsb_cfg in
  let monitored, mon = Y.run_monitored ycsb_cfg in
  check_bool "monitored YCSB result is byte-identical to the bare run" true
    (bare = monitored);
  check_bool "monitored YCSB run closed windows" true
    (Timeseries.completed (Monitor.timeseries mon) > 0)

(* The tiny-log run: background truncation bursts inflate some windows'
   p99 far past others. The cumulative histogram averages the bursts
   away; the windowed series must bracket the cumulative p99 from both
   sides. *)
let test_windowed_p99_brackets_truncation_bursts () =
  let cfg =
    {
      S.default_config with
      S.requests = 1200;
      load = S.Open_loop 90.;
      log_size = 256 * 1024;
    }
  in
  let result, mon = S.run_monitored cfg in
  let cumulative = result.S.p99_latency_us in
  let windows = Timeseries.windows (Monitor.timeseries mon) in
  let p99s =
    List.filter_map
      (fun w ->
        match Timeseries.hist_stats w "server.latency.us" with
        | Some s when s.Histogram.w_count >= 8 -> Some s.Histogram.w_p99
        | _ -> None)
      windows
  in
  check_bool "enough windows with traffic" true (List.length p99s > 4);
  check_bool "some window p99 above the cumulative p99 (the burst)" true
    (List.exists (fun p -> p > cumulative) p99s);
  check_bool "some window p99 well below the cumulative p99 (the quiet)"
    true
    (List.exists (fun p -> p < 0.75 *. cumulative) p99s)

let suite =
  [
    Alcotest.test_case "hysteresis opens and closes incidents" `Quick
      test_hysteresis;
    Alcotest.test_case "shed-rate rule pages on sustained shedding" `Quick
      test_shed_rule;
    Alcotest.test_case "shed-rate rule ignores tiny windows" `Quick
      test_shed_rule_respects_min_volume;
    Alcotest.test_case "truncation starvation rule" `Quick
      test_truncation_starvation_rule;
    Alcotest.test_case "durable-LSN stall rule" `Quick
      test_durable_stall_rule;
    Alcotest.test_case "healthy serve run reports zero incidents" `Quick
      test_healthy_run_zero_incidents;
    Alcotest.test_case "seeded overload run opens a typed incident" `Quick
      test_overload_run_opens_incident;
    Alcotest.test_case "postmortem pinpoints offending windows" `Quick
      test_postmortem_pinpoints_windows;
    Alcotest.test_case "monitoring never perturbs the run" `Quick
      test_monitoring_never_perturbs;
    Alcotest.test_case "windowed p99 brackets truncation bursts" `Quick
      test_windowed_p99_brackets_truncation_bursts;
  ]
