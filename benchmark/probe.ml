(* Host-side measurement: CPU time, GC allocation, and the traced run's
   span wrapper around the benchmark's own calls into the library. *)

module Registry = Rvm_obs.Registry
module Counter = Rvm_obs.Counter
module Engine = Rvm_server.Engine

(* Host time is this process's CPU time (user + system): on a shared
   machine it leaves out the time other processes hold the CPU, which wall
   time would count. Wall time only bounds how long a run goes on. *)
let now () = Sys.time ()
let wall () = Unix.gettimeofday ()

(* Words allocated so far by this domain: minor allocations plus blocks
   allocated directly in the major heap, without double-counting
   promotions. Deterministic for a deterministic computation. *)
let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

type 'a measured = { value : 'a; host_s : float; alloc_w : float }

(* Each measurement starts from a fully collected heap, so garbage left by
   the previous one is not paid for inside this one. *)
let measure f =
  Gc.full_major ();
  let w0 = words () in
  let t0 = now () in
  let value = f () in
  let host_s = now () -. t0 in
  { value; host_s; alloc_w = words () -. w0 }

(* Quartiles by linear interpolation between order statistics (the
   "inclusive" method); the median is the middle quartile. *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* {1 Traced runs}

   A tracer owns a benchmark-side registry timed on the host clock. Every
   wrapped call becomes a [Registry.span] (so the Chrome trace shows the
   calls nested under the phase that made them) and also lands in a
   per-name table of calls, host time, self time and allocated words. *)

type stat = {
  mutable calls : int;
  mutable host_us : float;
  mutable self_us : float;
  mutable alloc_w : float;
}

type tracer = {
  reg : Registry.t;
  stats : (string, stat) Hashtbl.t;
  mutable children_us : float list;
      (* one accumulator per open span: host time of its direct children *)
}

(* Spans retained for the Chrome trace; counts and timings in [stats]
   cover every call regardless. *)
let trace_capacity = 20_000

let tracer () =
  let reg = Registry.create ~trace_capacity () in
  Registry.set_time_source reg (fun () -> now () *. 1e6);
  { reg; stats = Hashtbl.create 32; children_us = [] }

let zero () = { calls = 0; host_us = 0.; self_us = 0.; alloc_w = 0. }

(* The totals of one span name; zero for a name never traced. *)
let stat tr name =
  Option.value (Hashtbl.find_opt tr.stats name) ~default:(zero ())

let span tr name f =
  tr.children_us <- 0. :: tr.children_us;
  let close t0 w0 =
    let dt = (now () -. t0) *. 1e6 in
    let dw = words () -. w0 in
    let children, rest =
      match tr.children_us with c :: rest -> (c, rest) | [] -> (0., [])
    in
    tr.children_us <-
      (match rest with p :: up -> (p +. dt) :: up | [] -> []);
    let s =
      match Hashtbl.find_opt tr.stats name with
      | Some s -> s
      | None ->
        let s = zero () in
        Hashtbl.replace tr.stats name s;
        s
    in
    s.calls <- s.calls + 1;
    s.host_us <- s.host_us +. dt;
    s.self_us <- s.self_us +. (dt -. children);
    s.alloc_w <- s.alloc_w +. dw
  in
  let w0 = words () in
  let t0 = now () in
  match Registry.span tr.reg name f with
  | v ->
    close t0 w0;
    v
  | exception e ->
    close t0 w0;
    raise e

let maybe_span tr name f =
  match tr with Some tr -> span tr name f | None -> f ()

let set_range_bytes = "rvm.set_range.bytes"

(* The engine closures the scheduler calls, each behind a span named after
   the [rvm.<call>] metric it feeds. The cheap gauges (LSNs, pressure,
   occupancy, due/urgent) stay unwrapped and count as scheduler time. *)
let wrap_engine tr (e : Engine.t) =
  let sp name f = span tr ("rvm." ^ name) f in
  {
    e with
    Engine.begin_txn = (fun ~mode -> sp "begin_txn" (fun () -> e.Engine.begin_txn ~mode));
    set_range =
      (fun tid ~addr ~len ->
        Counter.add (Registry.counter tr.reg set_range_bytes) len;
        sp "set_range" (fun () -> e.Engine.set_range tid ~addr ~len));
    load = (fun ~addr ~len -> sp "load" (fun () -> e.Engine.load ~addr ~len));
    store = (fun ~addr b -> sp "store" (fun () -> e.Engine.store ~addr b));
    end_txn = (fun tid ~mode -> sp "end_txn" (fun () -> e.Engine.end_txn tid ~mode));
    abort = (fun tid -> sp "abort" (fun () -> e.Engine.abort tid));
    flush = (fun () -> sp "flush" e.Engine.flush);
    truncation_step = (fun () -> sp "truncation_step" e.Engine.truncation_step);
    truncate = (fun () -> sp "truncate" e.Engine.truncate);
  }

let counter tr name = Counter.get (Registry.counter tr.reg name)

let write_trace tr ~path =
  Rvm_obs.Export.write_chrome_trace ~process_name:"rvm-benchmark" ~path
    (Registry.events tr.reg)
