(* Declarative SLO monitoring over a Timeseries: rules probe each closed
   window, hysteresis (open_after / close_after consecutive windows)
   turns sustained breaches into typed incidents, and each incident
   captures its triggering windows plus a flight-recorder tail. A run
   ends with a postmortem JSON document; healthy runs produce zero
   incidents. *)

type severity = Warn | Page

let severity_to_string = function Warn -> "warn" | Page -> "page"

type verdict = Healthy | Breach of string

type rule = {
  name : string;
  severity : severity;
  open_after : int;
  close_after : int;
  probe : Timeseries.window -> verdict;
}

type incident = {
  i_rule : string;
  i_severity : severity;
  opened_at_us : float;
  mutable closed_at_us : float option;
  mutable i_windows : Timeseries.window list;  (* breaching, oldest first *)
  mutable i_reasons : string list;  (* one per retained window *)
  flight_recorder : Trace.span list;  (* tail at open, oldest first *)
}

type state = {
  s_rule : rule;
  mutable breach_streak : int;
  mutable ok_streak : int;
  mutable pending : (Timeseries.window * string) list;
      (* breaching windows seen before the streak reaches [open_after];
         seeded into the incident when it opens so the report shows the
         whole streak, not just its tail *)
  mutable open_inc : incident option;
}

type t = {
  ts : Timeseries.t;
  reg : Registry.t;
  states : state list;
  mutable incidents : incident list;  (* newest first *)
}

(* An incident keeps at most this many triggering windows, and this many
   flight-recorder spans from the moment it opened. *)
let max_incident_windows = 16
let tail_len = 16

(* {2 Rule constructors}

   Metric names and thresholds are fixed to the transaction server's
   registry schema: the [server.*] counters and histograms, and the
   gauges the monitored server registers. *)

let rule ?(severity = Page) ?(open_after = 2) ?(close_after = 3) name probe =
  if open_after <= 0 || close_after <= 0 then
    invalid_arg "Monitor.rule: streaks must be positive";
  { name; severity; open_after; close_after; probe }

(* Commit p99 against a rolling (EMA) baseline of healthy windows: the
   baseline learns during [warmup] windows with traffic, then freezes
   whenever the window breaches so an incident cannot drag its own
   threshold up. *)
let commit_latency_rule () =
  let warmup = 3 and ratio = 3. in
  let baseline = ref 0. and warm = ref 0 in
  let learn p99 =
    if !warm = 0 then baseline := p99
    else baseline := (0.7 *. !baseline) +. (0.3 *. p99);
    if !warm < warmup then incr warm
  in
  rule "commit-p99-burst" ~severity:Page (fun w ->
      match Timeseries.hist_stats w "server.latency.us" with
      | None -> Healthy
      | Some s when s.Histogram.w_count < 8 -> Healthy
      | Some s ->
        let p99 = s.Histogram.w_p99 in
        if !warm < warmup then begin
          learn p99;
          Healthy
        end
        else if p99 > ratio *. !baseline then
          Breach
            (Printf.sprintf
               "window p99 %.0fus exceeds %.1fx rolling baseline %.0fus" p99
               ratio !baseline)
        else begin
          learn p99;
          Healthy
        end)

let abort_rate_rule () =
  rule "abort-rate" ~severity:Page (fun w ->
      let c = Timeseries.counter_delta w "server.committed" in
      let r = Timeseries.counter_delta w "server.retry" in
      let ops = c + r in
      if ops < 16 then Healthy
      else
        let rate = float_of_int r /. float_of_int ops in
        if rate > 0.5 then
          Breach
            (Printf.sprintf "abort rate %.2f (%d retries / %d ops)" rate r ops)
        else Healthy)

(* Admission control shedding a sustained fraction of arrivals is the
   server's overload signature: past the saturation knee the scheduler
   stays internally healthy precisely because admission turns the excess
   away, so the SLO breach lives in the shed counter, not the latency
   histogram. *)
let shed_rate_rule () =
  rule "admission-shed" ~severity:Page (fun w ->
      let s = Timeseries.counter_delta w "server.shed" in
      let c = Timeseries.counter_delta w "server.committed" in
      let arrivals = s + c in
      if arrivals < 16 then Healthy
      else
        let rate = float_of_int s /. float_of_int arrivals in
        if rate > 0.25 then
          Breach
            (Printf.sprintf "shed rate %.2f (%d shed / %d arrivals)" rate s
               arrivals)
        else Healthy)

(* Truncation is due but no truncation work ran for the whole window —
   the background state machine is starved. *)
let truncation_starvation_rule () =
  let steps =
    [
      "truncation.epoch.count";
      "truncation.incremental.step.count";
      "truncation.emergency.count";
    ]
  in
  rule "truncation-starvation" ~severity:Page ~open_after:3 (fun w ->
      match Timeseries.gauge_value w "truncation.due" with
      | Some d when d >= 0.5 ->
        let work =
          List.fold_left (fun a n -> a + Timeseries.counter_delta w n) 0 steps
        in
        if work = 0 then
          Breach "truncation due but zero truncation steps ran this window"
        else Healthy
      | _ -> Healthy)

(* The durable-LSN horizon must keep moving while commits are ahead of
   it; a frozen horizon with a positive gap means nothing is reaching
   the disk. *)
let durable_stall_rule () =
  let prev = ref neg_infinity in
  rule "durable-lsn-stall" ~severity:Page (fun w ->
      match
        ( Timeseries.gauge_value w "lsn.commit",
          Timeseries.gauge_value w "lsn.durable" )
      with
      | Some c, Some d ->
        let stalled = d = !prev && c > d in
        prev := d;
        if stalled then
          Breach
            (Printf.sprintf
               "durable LSN stuck at %.0f while commit LSN is %.0f" d c)
        else Healthy
      | _ -> Healthy)

(* Per-shard committed deltas: one shard racing ahead of (or starving
   behind) the others means routing skew is defeating the sharding. *)
let shard_imbalance_rule ~shards =
  let max_skew = 4. and min_per_window = 8 in
  rule "shard-imbalance" ~severity:Warn (fun w ->
      let deltas =
        List.init shards (fun i ->
            Timeseries.counter_delta w
              ("shard." ^ string_of_int i ^ ".committed"))
      in
      let total = List.fold_left ( + ) 0 deltas in
      if total < min_per_window * shards then Healthy
      else
        let mx = List.fold_left max min_int deltas in
        let mn = List.fold_left min max_int deltas in
        let skewed =
          if mn = 0 then mx >= min_per_window
          else float_of_int mx /. float_of_int mn > max_skew
        in
        if skewed then
          Breach
            (Printf.sprintf "per-shard committed deltas %s skew beyond %.1fx"
               (String.concat "/" (List.map string_of_int deltas))
               max_skew)
        else Healthy)

let default_rules ?(shards = 1) () =
  [
    commit_latency_rule ();
    abort_rate_rule ();
    shed_rate_rule ();
    truncation_starvation_rule ();
    durable_stall_rule ();
  ]
  @ if shards > 1 then [ shard_imbalance_rule ~shards ] else []

(* {2 Monitor} *)

let create ~rules ts reg =
  {
    ts;
    reg;
    states =
      List.map
        (fun r ->
          {
            s_rule = r;
            breach_streak = 0;
            ok_streak = 0;
            pending = [];
            open_inc = None;
          })
        rules;
    incidents = [];
  }

let timeseries t = t.ts

let flight_tail t =
  let evs = Registry.events t.reg in
  let n = List.length evs in
  let rec drop k l =
    if k <= 0 then l else match l with [] -> [] | _ :: r -> drop (k - 1) r
  in
  drop (n - tail_len) evs

let eval_window t (w : Timeseries.window) =
  List.iter
    (fun s ->
      match s.s_rule.probe w with
      | Breach reason ->
        s.breach_streak <- s.breach_streak + 1;
        s.ok_streak <- 0;
        let inc =
          match s.open_inc with
          | Some inc -> Some inc
          | None when s.breach_streak >= s.s_rule.open_after ->
            let streak = List.rev s.pending in
            let opened_at_us =
              match streak with
              | (first, _) :: _ -> first.Timeseries.t0_us
              | [] -> w.Timeseries.t0_us
            in
            let inc =
              {
                i_rule = s.s_rule.name;
                i_severity = s.s_rule.severity;
                opened_at_us;
                closed_at_us = None;
                i_windows = List.map fst streak;
                i_reasons = List.map snd streak;
                flight_recorder = flight_tail t;
              }
            in
            s.pending <- [];
            t.incidents <- inc :: t.incidents;
            Some inc
          | None ->
            s.pending <- (w, reason) :: s.pending;
            None
        in
        (match inc with
        | Some inc ->
          s.open_inc <- Some inc;
          if List.length inc.i_windows < max_incident_windows then begin
            inc.i_windows <- inc.i_windows @ [ w ];
            inc.i_reasons <- inc.i_reasons @ [ reason ]
          end
        | None -> ())
      | Healthy ->
        s.ok_streak <- s.ok_streak + 1;
        s.breach_streak <- 0;
        s.pending <- [];
        (match s.open_inc with
        | Some inc when s.ok_streak >= s.s_rule.close_after ->
          inc.closed_at_us <- Some w.Timeseries.t0_us;
          s.open_inc <- None
        | _ -> ()))
    t.states

let tick t ~now_us =
  let closed = Timeseries.tick t.ts ~now_us in
  List.iter (eval_window t) closed;
  closed

(* End of run: evaluate the final (partial) window, then mark incidents
   still open as closed-by-end-of-run (their [closed_at_us] stays [None]
   in the report, distinguishing "resolved" from "open at exit"). *)
let finish t ~now_us =
  let closed = Timeseries.flush t.ts ~now_us in
  List.iter (eval_window t) closed;
  closed

let incidents t = List.rev t.incidents
let incident_count t = List.length t.incidents
let healthy t = t.incidents = []

let open_incidents t =
  List.rev
    (List.filter (fun i -> i.closed_at_us = None) t.incidents)

(* {2 Rendering} *)

let health_line t =
  match Timeseries.last t.ts with
  | None -> None
  | Some w ->
    let open Timeseries in
    let p99 =
      match hist_stats w "server.latency.us" with
      | Some s -> s.Histogram.w_p99
      | None -> 0.
    in
    let g name = match gauge_value w name with Some v -> v | None -> 0. in
    let n_open = List.length (open_incidents t) in
    Some
      (Printf.sprintf
         "w%03d t=%6.2fs tps=%6.1f p99=%8.0fus aborts=%3d shed=%3d \
          occ=%4.2f lag=%d inc=%d%s"
         w.index (w.t1_us /. 1e6) (rate w "server.committed") p99
         (counter_delta w "server.retry")
         (counter_delta w "server.shed")
         (g "log.occupancy")
         (int_of_float (g "lsn.commit" -. g "lsn.durable"))
         n_open
         (if n_open > 0 then " !" else ""))

let incident_json inc =
  let open Json in
  Obj
    [
      ("rule", String inc.i_rule);
      ("severity", String (severity_to_string inc.i_severity));
      ("opened_at_us", Float inc.opened_at_us);
      ( "closed_at_us",
        match inc.closed_at_us with Some v -> Float v | None -> Null );
      ("reasons", List (List.map (fun r -> String r) inc.i_reasons));
      ("windows", List (List.map Timeseries.window_json inc.i_windows));
      ( "flight_recorder",
        List
          (List.map
             (fun sp -> String (Format.asprintf "%a" Trace.pp_span sp))
             inc.flight_recorder) );
    ]

let postmortem ?(run = []) t =
  let open Json in
  let members =
    (if run = [] then [] else [ ("run", Obj run) ])
    @ [
        ("schema", String "rvm-postmortem/1");
        ("window_us", Float (Timeseries.window_us t.ts));
        ("windows_closed", Int (Timeseries.completed t.ts));
        ("healthy", Bool (healthy t));
        ("incident_count", Int (incident_count t));
        ("open_incident_count", Int (List.length (open_incidents t)));
        ("incidents", List (List.map incident_json (incidents t)));
        ( "series",
          List (List.map Timeseries.window_json (Timeseries.windows t.ts)) );
      ]
  in
  Obj members
