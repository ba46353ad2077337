(* Windowed aggregation over a Registry: cumulative counters become
   per-window deltas/rates, cumulative histograms become per-window
   sub-bucketed quantiles, and registered gauges are sampled at each
   window close. Windows are keyed by the (simulated) clock handed to
   [tick] and kept in a bounded ring. *)

type window = {
  index : int;
  t0_us : float;
  t1_us : float;
  counters : (string * int) list;
  hists : (string * Histogram.window_stats) list;
  gauges : (string * float) list;
}

type t = {
  reg : Registry.t;
  window_us : float;
  mutable epoch_us : float;
  mutable started : bool;
  mutable completed : int;
  ring : window Queue.t;
  mutable last_closed : window option;
  counter_cursors : (string, int ref) Hashtbl.t;
  hist_cursors : (string, Histogram.snapshot) Hashtbl.t;
  mutable gauge_fns : (string * (unit -> float)) list;
}

(* Closed windows retained in the ring. *)
let capacity = 512

let create ~window_us reg =
  if window_us <= 0. then invalid_arg "Timeseries.create: window_us <= 0";
  {
    reg;
    window_us;
    epoch_us = 0.;
    started = false;
    completed = 0;
    ring = Queue.create ();
    last_closed = None;
    counter_cursors = Hashtbl.create 32;
    hist_cursors = Hashtbl.create 16;
    gauge_fns = [];
  }

let window_us t = t.window_us

let gauge t name f =
  if not (List.mem_assoc name t.gauge_fns) then
    t.gauge_fns <- t.gauge_fns @ [ (name, f) ]

(* Close the window ending now: counter deltas and histogram window
   stats since the previous close (cursors start at zero, so activity
   preceding a metric's first sighting lands in its first window). *)
let close_window t ~t0_us ~t1_us =
  let counters =
    List.filter_map
      (fun (name, v) ->
        let prev =
          match Hashtbl.find_opt t.counter_cursors name with
          | Some r -> r
          | None ->
            let r = ref 0 in
            Hashtbl.add t.counter_cursors name r;
            r
        in
        let d = v - !prev in
        prev := v;
        if d = 0 then None else Some (name, d))
      (Registry.counters t.reg)
  in
  let hists =
    List.filter_map
      (fun (name, h) ->
        let cur =
          match Hashtbl.find_opt t.hist_cursors name with
          | Some c -> c
          | None ->
            let c = Histogram.zero_snapshot () in
            Hashtbl.add t.hist_cursors name c;
            c
        in
        let w = Histogram.advance h cur in
        if w.Histogram.w_count = 0 then None else Some (name, w))
      (Registry.histograms t.reg)
  in
  let gauges = List.map (fun (name, f) -> (name, f ())) t.gauge_fns in
  let w = { index = t.completed; t0_us; t1_us; counters; hists; gauges } in
  t.completed <- t.completed + 1;
  Queue.push w t.ring;
  t.last_closed <- Some w;
  if Queue.length t.ring > capacity then ignore (Queue.pop t.ring);
  w

let tick t ~now_us =
  if not t.started then begin
    t.started <- true;
    t.epoch_us <- now_us
  end;
  let target =
    int_of_float (Float.floor ((now_us -. t.epoch_us) /. t.window_us))
  in
  if target <= t.completed then []
  else begin
    (* A huge clock jump (idle gap, end-of-run drain) would materialize
       millions of empty windows; skip ahead so at most a ring's worth
       is closed — the skipped empties would have been evicted anyway. *)
    if target - t.completed > capacity then
      t.completed <- target - capacity;
    let closed = ref [] in
    while t.completed < target do
      let t0 = t.epoch_us +. (float_of_int t.completed *. t.window_us) in
      let t1 = t0 +. t.window_us in
      closed := close_window t ~t0_us:t0 ~t1_us:t1 :: !closed
    done;
    List.rev !closed
  end

(* End-of-run: close every elapsed full window plus a final partial one
   so trailing activity is never dropped from the series. *)
let flush t ~now_us =
  if not t.started then []
  else begin
    let closed = tick t ~now_us in
    let t0 = t.epoch_us +. (float_of_int t.completed *. t.window_us) in
    if now_us > t0 then closed @ [ close_window t ~t0_us:t0 ~t1_us:now_us ]
    else closed
  end

let windows t = List.of_seq (Queue.to_seq t.ring)
let last t = t.last_closed
let completed t = t.completed

(* {2 Window accessors} *)

let counter_delta w name =
  match List.assoc_opt name w.counters with Some d -> d | None -> 0

let rate w name =
  let dt_s = (w.t1_us -. w.t0_us) /. 1e6 in
  if dt_s <= 0. then 0. else float_of_int (counter_delta w name) /. dt_s

let hist_stats w name = List.assoc_opt name w.hists
let gauge_value w name = List.assoc_opt name w.gauges

(* {2 JSON} *)

let window_json w =
  let open Json in
  let hist_json (name, (s : Histogram.window_stats)) =
    ( name,
      Obj
        [
          ("count", Int s.Histogram.w_count);
          ("sum", Float s.Histogram.w_sum);
          ("p50", Float s.Histogram.w_p50);
          ("p95", Float s.Histogram.w_p95);
          ("p99", Float s.Histogram.w_p99);
          ("max", Float s.Histogram.w_max);
        ] )
  in
  Obj
    [
      ("index", Int w.index);
      ("t0_us", Float w.t0_us);
      ("t1_us", Float w.t1_us);
      ("counters", Obj (List.map (fun (k, v) -> (k, Int v)) w.counters));
      ("histograms", Obj (List.map hist_json w.hists));
      ("gauges", Obj (List.map (fun (k, v) -> (k, Float v)) w.gauges));
    ]

let to_json t =
  let open Json in
  Obj
    [
      ("window_us", Float t.window_us);
      ("windows_closed", Int t.completed);
      ("windows", List (List.map window_json (windows t)));
    ]
