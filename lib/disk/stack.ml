type layer = Device.t -> Device.t

let compose layers base = List.fold_right (fun l dev -> l dev) layers base

(* --- fault injection --- *)

type faults = { mutable fail_in : int option }

let faults () = { fail_in = None }
let fail_after f ~ops = f.fail_in <- Some ops
let disarm f = f.fail_in <- None

let tick f =
  match f.fail_in with
  | None -> ()
  | Some 0 -> raise (Device.Io_error "injected failure")
  | Some n -> f.fail_in <- Some (n - 1)

let with_faults f base =
  Device.layer
    ~read:(fun b ~off ~buf ~pos ~len ->
      tick f;
      b.Device.read ~off ~buf ~pos ~len)
    ~write:(fun b ~off ~buf ~pos ~len ->
      tick f;
      b.Device.write ~off ~buf ~pos ~len)
    ~sync:(fun b ->
      tick f;
      b.Device.sync ())
    base

(* --- stat accounting / observability --- *)

let with_stats ?obs ?(prefix = "disk") () base =
  match obs with
  | None ->
    (* The layer's own Device.stats record is the whole point here. *)
    Device.layer base
  | Some reg ->
    let module R = Rvm_obs.Registry in
    let module C = Rvm_obs.Counter in
    let reads = R.counter reg (prefix ^ ".reads") in
    let writes = R.counter reg (prefix ^ ".writes") in
    let syncs = R.counter reg (prefix ^ ".syncs") in
    let bytes_read = R.counter reg (prefix ^ ".bytes_read") in
    let bytes_written = R.counter reg (prefix ^ ".bytes_written") in
    let write_sizes = R.histogram reg (prefix ^ ".write.bytes") in
    (* Device ops are also spans, so a trace shows each write/sync under
       the transaction (or truncation, or recovery) that issued it. *)
    let write_scope = R.scope reg (prefix ^ ".write") in
    let sync_scope = R.scope reg (prefix ^ ".sync") in
    Device.layer
      ~read:(fun b ~off ~buf ~pos ~len ->
        b.Device.read ~off ~buf ~pos ~len;
        C.incr reads;
        C.add bytes_read len)
      ~write:(fun b ~off ~buf ~pos ~len ->
        R.open_span reg write_scope;
        R.add_int reg "off" off;
        R.add_int reg "bytes" len;
        (match b.Device.write ~off ~buf ~pos ~len with
        | () -> R.close_span reg write_scope
        | exception e ->
          R.close_span reg write_scope;
          raise e);
        C.incr writes;
        C.add bytes_written len;
        Rvm_obs.Histogram.observe write_sizes (float_of_int len))
      ~sync:(fun b ->
        R.open_span reg sync_scope;
        (match b.Device.sync () with
        | () -> R.close_span reg sync_scope
        | exception e ->
          R.close_span reg sync_scope;
          raise e);
        C.incr syncs)
      base

(* --- delegating combinators over the instance modules --- *)

let with_trace recorder base = Trace_device.device (Trace_device.wrap recorder base)

let with_latency ?seek_fraction ?sector ~clock ~disk () base =
  Sim_device.device
    (Sim_device.create ?seek_fraction ?sector ~base ~clock ~disk ())
