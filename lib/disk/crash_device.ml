type pending = { off : int; data : Bytes.t }

(* Re-expressed as a combinator stack: [with_faults ∘ crash-core ∘ base].
   The base device holds the volatile (post-write, pre-sync) image; the
   [durable] shadow holds what the platter had at the last sync. The crash
   core intercepts only write (to record the pending list) and sync (to
   promote pending writes to the durable shadow); reads, stats and — the
   old bug — [close]-forwarding all come from [Device.layer]. *)
type t = {
  durable : Bytes.t;
  base : Device.t;
  mutable pending : pending list;  (* newest first *)
  faults : Stack.faults;
  mutable dev : Device.t;
}

let apply_write target { off; data } =
  Bytes.blit data 0 target off (Bytes.length data)

let create ?(name = "crash") ?base ~size () =
  let base =
    match base with
    | Some b ->
      if b.Device.size <> size then
        invalid_arg
          (Printf.sprintf
             "Crash_device.create: size %d does not match base device size %d"
             size b.Device.size);
      b
    | None -> Mem_device.create ~name:(name ^ "-store") ~size ()
  in
  let durable = Device.read_bytes base ~off:0 ~len:size in
  let t =
    { durable; base; pending = []; faults = Stack.faults (); dev = base }
  in
  let core =
    Device.layer ~name
      ~write:(fun b ~off ~buf ~pos ~len ->
        b.Device.write ~off ~buf ~pos ~len;
        t.pending <- { off; data = Bytes.sub buf pos len } :: t.pending)
      ~sync:(fun b ->
        List.iter (apply_write t.durable) (List.rev t.pending);
        t.pending <- [];
        b.Device.sync ())
      base
  in
  t.dev <- Stack.with_faults t.faults core;
  t

let device t = t.dev

(* Restore the volatile image (the base device) from the durable shadow,
   bypassing the crash layer so nothing lands in [pending]. *)
let restore_volatile t =
  t.base.Device.write ~off:0 ~buf:t.durable ~pos:0 ~len:(Bytes.length t.durable)

let crash t =
  t.pending <- [];
  restore_volatile t

let crash_torn t ~rng =
  let writes = List.rev t.pending in
  let n = List.length writes in
  if n = 0 then crash t
  else begin
    let survive = Rvm_util.Rng.int rng (n + 1) in
    let img = Bytes.copy t.durable in
    List.iteri
      (fun i w ->
        if i < survive then apply_write img w
        else if i = survive then begin
          (* Torn write: an arbitrary prefix of the sectors reaches disk. *)
          let keep = Rvm_util.Rng.int rng (Bytes.length w.data + 1) in
          Bytes.blit w.data 0 img w.off keep
        end)
      writes;
    (* What survived the tear is now the durable image. *)
    Bytes.blit img 0 t.durable 0 (Bytes.length img);
    t.pending <- [];
    restore_volatile t
  end

let pending_writes t = List.length t.pending
let fail_after t ~ops = Stack.fail_after t.faults ~ops
let disarm t = Stack.disarm t.faults

let reopen t =
  crash t;
  t.dev
