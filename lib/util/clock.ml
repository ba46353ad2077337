(* The CPU, I/O and backlog totals sit in an all-float record, which
   OCaml stores flat, so a charge updates them in place. [now] stays a
   boxed field of the mixed record: a charge that moves it allocates its
   new value, but reading it ({!now_us}, the registry's time source)
   returns the box as it is. A flat [now] would box on every read
   instead, since no call across modules is inlined, and time is read
   far more often than it is charged. *)
type totals = {
  mutable cpu : float;
  mutable io : float;
  mutable backlog : float;
}

type t = {
  enabled : bool;
  mutable suspended : bool;
  mutable in_background : bool;
  mutable now : float;
  totals : totals;
}

let null =
  { enabled = false; suspended = false; in_background = false; now = 0.;
    totals = { cpu = 0.; io = 0.; backlog = 0. } }

let simulated () =
  { enabled = true; suspended = false; in_background = false; now = 0.;
    totals = { cpu = 0.; io = 0.; backlog = 0. } }

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
  if t.enabled && (not t.suspended) && us > 0. then begin
    let c = t.totals in
    if t.in_background then c.backlog <- c.backlog +. us
    else t.now <- t.now +. us;
    c.cpu <- c.cpu +. us
  end

let charge_background t us =
  if t.enabled && (not t.suspended) && us > 0. then begin
    let c = t.totals in
    c.backlog <- c.backlog +. us;
    c.cpu <- c.cpu +. us
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
    let c = t.totals in
    t.now <- t.now +. us;
    c.io <- c.io +. us;
    c.backlog <- Float.max 0. (c.backlog -. us)
  end

let advance_to t target =
  if t.enabled && (not t.suspended) && target > t.now then begin
    let c = t.totals in
    let d = target -. t.now in
    t.now <- target;
    c.backlog <- Float.max 0. (c.backlog -. d)
  end

let drain_backlog t =
  if t.enabled then begin
    let c = t.totals in
    t.now <- t.now +. c.backlog;
    c.backlog <- 0.
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

let cpu_us t = t.totals.cpu
let io_us t = t.totals.io
let backlog_us t = t.totals.backlog

let reset_counters t =
  t.totals.cpu <- 0.;
  t.totals.io <- 0.
