(** Composable device middleware.

    A [layer] wraps a {!Device.t} and returns a new one; every layer built
    here (and every instance module — {!Crash_device}, {!Sim_device},
    {!Trace_device}) rests on {!Device.layer}, so range checking, stat
    accounting and [close]-forwarding are uniform by construction. Stacks
    read outside-in:

    {[
      let dev =
        Stack.compose
          [ Stack.with_trace recorder;        (* outermost *)
            Stack.with_faults f;
            Stack.with_latency ~clock ~disk () ]
          (Mem_device.create ~size ())        (* innermost *)
    ]} *)

type layer = Device.t -> Device.t

val compose : layer list -> Device.t -> Device.t
(** [compose [a; b; c] base = a (b (c base))] — first element outermost. *)

(** {1 Fault injection} *)

type faults
(** Shared arming handle: one [faults] can drive several layers, and the
    owning test can re-arm or disarm it mid-run. *)

val faults : unit -> faults
val fail_after : faults -> ops:int -> unit
(** Raise [Device.Io_error] once [ops] further operations (reads, writes
    or syncs through the layer) have completed. *)

val disarm : faults -> unit

val with_faults : faults -> layer

(** {1 Accounting} *)

val with_stats : ?obs:Rvm_obs.Registry.t -> ?prefix:string -> unit -> layer
(** A pass-through layer whose own [Device.stats] record counts traffic at
    this point of the stack. With [obs], traffic is also published to the
    registry as [<prefix>.reads], [<prefix>.writes], [<prefix>.syncs],
    [<prefix>.bytes_read], [<prefix>.bytes_written] and the
    [<prefix>.write.bytes] size histogram ([prefix] defaults to
    ["disk"]). *)

(** {1 Instance combinators}

    The stack forms of {!Trace_device} and {!Sim_device}, for use inside
    {!compose} when the handle is not needed. *)

val with_trace : Trace_device.recorder -> layer
(** [Trace_device.wrap] as a layer (the trace handle — and with it crash
    image reconstruction — is not retained; use [Trace_device.wrap]
    directly when you need it). *)

val with_latency :
  ?seek_fraction:float ->
  ?sector:int ->
  clock:Rvm_util.Clock.t ->
  disk:Rvm_util.Cost_model.disk ->
  unit ->
  layer
(** [Sim_device.create] as a layer: a simulated 1993 disk that serves one
    access at a time, so an access issued while another (on any clock
    lane) is still in service waits for it. *)
