module Clock = Rvm_util.Clock
module Cost_model = Rvm_util.Cost_model
module Intervals = Rvm_util.Intervals

type t = {
  clock : Clock.t;
  disk : Cost_model.disk;
  seek_fraction : float;
  sector : int;
  (* Dirty sector numbers accumulated since the last sync, as coalesced
     runs. A write is one interval insertion, so a streak of sequential
     appends stays a single run (one force) while scattered page writes
     cost one positioning delay per run of pages. *)
  dirty : Intervals.t;
  mutable ios : int;
  mutable busy : float;
  mutable free_at : float;
      (* when the disk finishes the access it is serving: it serves one
         request at a time, whichever lane issues it *)
  mutable dev : Device.t;
}

(* An access issued while the disk is still serving another waits for
   it, and the wait is I/O time of the issuer. Only the service itself
   counts as busy. *)
let charge t us =
  let now = Clock.now_us t.clock in
  if now < t.free_at then Clock.charge_io t.clock (t.free_at -. now);
  t.busy <- t.busy +. us;
  Clock.charge_io t.clock us;
  t.free_at <- Clock.now_us t.clock

(* One disk access per dirty run, highest start first. The charge order
   fixes the float sums of [busy] and the clock, so it must not change or
   every simulated artifact moves in its last bits. *)
let sweep t =
  for i = Intervals.interval_count t.dirty - 1 downto 0 do
    t.ios <- t.ios + 1;
    charge t
      (Cost_model.disk_service_us t.disk ~seek_fraction:t.seek_fraction
         ~bytes:(Intervals.len_at t.dirty i * t.sector) ())
  done;
  Intervals.clear t.dirty

(* A latency-charging combinator instance over [base]: forwards every
   operation, then charges the simulated clock what a 1993 disk would
   take. Stats and close-forwarding come from [Device.layer]. *)
let create ?(seek_fraction = 1.0) ?(sector = 1) ~base ~clock ~disk () =
  let t =
    {
      clock;
      disk;
      seek_fraction;
      sector;
      dirty = Intervals.create ();
      ios = 0;
      busy = 0.;
      free_at = 0.;
      dev = base;
    }
  in
  t.dev <-
    Device.layer
      ~name:(base.Device.name ^ "+sim")
      ~read:(fun b ~off ~buf ~pos ~len ->
        b.Device.read ~off ~buf ~pos ~len;
        t.ios <- t.ios + 1;
        charge t
          (Cost_model.disk_service_us t.disk ~seek_fraction:t.seek_fraction
             ~bytes:len ()))
      ~write:(fun b ~off ~buf ~pos ~len ->
        b.Device.write ~off ~buf ~pos ~len;
        if len > 0 then begin
          let first = off / t.sector in
          let last = (off + len - 1) / t.sector in
          Intervals.add t.dirty ~lo:first ~len:(last - first + 1)
        end)
      ~sync:(fun b ->
        b.Device.sync ();
        sweep t)
      base;
  t

let device t = t.dev
let io_count t = t.ios
let busy_us t = t.busy
