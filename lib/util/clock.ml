type t = {
  enabled : bool;
  mutable suspended : bool;
  mutable in_background : bool;
  mutable now : float;
  mutable backlog : float;
  mutable cpu : float;
  mutable io : float;
}

let null =
  { enabled = false; suspended = false; in_background = false; now = 0.;
    backlog = 0.; cpu = 0.; io = 0. }

let simulated () =
  { enabled = true; suspended = false; in_background = false; now = 0.;
    backlog = 0.; cpu = 0.; io = 0. }

let is_null t = not t.enabled
let now_us t = t.now

let suspend t f =
  if not t.enabled then f ()
  else begin
    let prev = t.suspended in
    t.suspended <- true;
    Fun.protect ~finally:(fun () -> t.suspended <- prev) f
  end

let charge_cpu t us =
  if t.enabled && (not t.suspended) && us > 0. then
    if t.in_background then begin
      t.backlog <- t.backlog +. us;
      t.cpu <- t.cpu +. us
    end
    else begin
      t.now <- t.now +. us;
      t.cpu <- t.cpu +. us
    end

let charge_background t us =
  if t.enabled && (not t.suspended) && us > 0. then begin
    t.backlog <- t.backlog +. us;
    t.cpu <- t.cpu +. us
  end

let background t f =
  if not t.enabled then f ()
  else begin
    let prev = t.in_background in
    t.in_background <- true;
    Fun.protect ~finally:(fun () -> t.in_background <- prev) f
  end

let charge_io t us =
  if t.enabled && (not t.suspended) && us > 0. then begin
    t.now <- t.now +. us;
    t.io <- t.io +. us;
    t.backlog <- Float.max 0. (t.backlog -. us)
  end

let advance_to t target =
  if t.enabled && (not t.suspended) && target > t.now then begin
    let d = target -. t.now in
    t.now <- target;
    t.backlog <- Float.max 0. (t.backlog -. d)
  end

let drain_backlog t =
  if t.enabled then begin
    t.now <- t.now +. t.backlog;
    t.backlog <- 0.
  end

type lane = float ref

let lane () = ref 0.

let on_lane t lane f =
  if not t.enabled then f ()
  else begin
    (* The dispatching thread hands the work to the lane's worker and
       continues: its own time is unchanged. The work starts when the
       worker is free and the dispatch has happened, whichever is later. *)
    let dispatch = t.now in
    t.now <- Float.max dispatch !lane;
    Fun.protect
      ~finally:(fun () ->
        lane := t.now;
        t.now <- dispatch)
      f
  end

let join_lanes t lanes =
  if t.enabled then begin
    (* The dispatching thread blocks until every worker has drained. *)
    let finish = List.fold_left (fun acc l -> Float.max acc !l) t.now lanes in
    t.now <- finish;
    List.iter (fun l -> l := finish) lanes
  end

let cpu_us t = t.cpu
let io_us t = t.io
let backlog_us t = t.backlog

let reset_counters t =
  t.cpu <- 0.;
  t.io <- 0.
