type kind =
  | Write of { off : int; data : Bytes.t }
  | Sync

type event = { dev_id : int; kind : kind }

type recorder = {
  mutable rev_events : event list;  (* newest first *)
  mutable count : int;
  mutable writes : int;
  mutable syncs : int;
  mutable next_id : int;
}

type t = {
  recorder : recorder;
  id : int;
  initial : Bytes.t;
  dev : Device.t;
}

let create_recorder () =
  { rev_events = []; count = 0; writes = 0; syncs = 0; next_id = 0 }

let record r ev =
  r.rev_events <- ev :: r.rev_events;
  r.count <- r.count + 1;
  match ev.kind with
  | Write _ -> r.writes <- r.writes + 1
  | Sync -> r.syncs <- r.syncs + 1

(* A thin combinator instance: only write and sync are intercepted (to
   record the event before it reaches the base); reads, close and stat
   accounting come from [Device.layer]. *)
let wrap recorder (inner : Device.t) =
  let id = recorder.next_id in
  recorder.next_id <- id + 1;
  let initial = Device.read_bytes inner ~off:0 ~len:inner.Device.size in
  let dev =
    Device.layer
      ~name:(inner.Device.name ^ ":trace")
      ~write:(fun base ~off ~buf ~pos ~len ->
        record recorder
          { dev_id = id; kind = Write { off; data = Bytes.sub buf pos len } };
        base.Device.write ~off ~buf ~pos ~len)
      ~sync:(fun base ->
        record recorder { dev_id = id; kind = Sync };
        base.Device.sync ())
      inner
  in
  { recorder; id; initial; dev }

let device t = t.dev
let dev_id t = t.id

let events r = Array.of_list (List.rev r.rev_events)
let event_count r = r.count
let write_count r = r.writes
let sync_count r = r.syncs

let image t ~events ~upto ?torn () =
  if upto < 0 || upto > Array.length events then
    invalid_arg "Trace_device.image: upto outside the trace";
  let img = Bytes.copy t.initial in
  for i = 0 to upto - 1 do
    let ev = events.(i) in
    if ev.dev_id = t.id then
      match ev.kind with
      | Write { off; data } -> Bytes.blit data 0 img off (Bytes.length data)
      | Sync -> ()
  done;
  (match torn with
  | Some keep when upto < Array.length events -> (
    let ev = events.(upto) in
    if ev.dev_id = t.id then
      match ev.kind with
      | Write { off; data } ->
        let keep = max 0 (min keep (Bytes.length data)) in
        Bytes.blit data 0 img off keep
      | Sync -> ())
  | _ -> ());
  img
