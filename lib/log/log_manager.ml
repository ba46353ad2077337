module Device = Rvm_disk.Device

exception Log_full

let src = Logs.Src.create "rvm.log" ~doc:"RVM write-ahead log"

module L = (val Logs.src_log src : Logs.LOG)

type t = {
  dev : Device.t;
  mutable status : Status.t;
  mutable tail : int;
  mutable next_seqno : int;
  mutable used : int;  (* live bytes (records + wrap filler), spool included *)
  mutable records : int;  (* live record count *)
  (* The buffered tail (group commit): appends spool here and reach the
     device as at most two sequential writes per drain. *)
  spool : Tail_buffer.t;
  max_spool_bytes : int;  (* watermark: drain early past this *)
  mutable scratch : Bytes.t;  (* cached live-window image, sized on demand *)
  mutable image : bool;
      (* [scratch] is the open scan's image, live window included, until
         a head move; drains overlay it *)
  mutable dirty : bool;  (* device writes issued since the last sync *)
  mutable unforced_records : int;  (* appends since the last sync *)
  mutable forced_seqno : int;
      (* highest record sequence number known durable on the device: every
         record with seqno <= this survives any crash. Everything found at
         open time was read from the device, so it starts at
         [next_seqno - 1] and advances at each sync ([force], and
         [move_head]'s status write). *)
  mutable last_off : int;  (* device offset of the newest appended record *)
  obs : Rvm_obs.Registry.t;
  (* Pre-resolved handles: appends, drains and forces are the hot path. *)
  s_drain : Rvm_obs.Registry.scope;
  s_force : Rvm_obs.Registry.scope;
  c_appends : Rvm_obs.Counter.t;
  c_truncations : Rvm_obs.Counter.t;
  h_append_bytes : Rvm_obs.Histogram.t;
  c_spool_bytes : Rvm_obs.Counter.t;
  c_drain_writes : Rvm_obs.Counter.t;
  c_absorbed : Rvm_obs.Counter.t;
  h_drain_bytes : Rvm_obs.Histogram.t;
}

let status t = t.status
let capacity t = t.status.Status.log_size - t.status.Status.data_start
let used_bytes t = t.used
let free_bytes t = capacity t - t.used
let is_empty t = t.used = 0
let head t = t.status.Status.head
let tail t = t.tail
let next_seqno t = t.next_seqno
let record_count t = t.records
let forced_seqno t = t.forced_seqno

let spooled_bytes t = Tail_buffer.bytes t.spool

let unflushed t = t.dirty || spooled_bytes t > 0

let format dev =
  let size = dev.Device.size in
  if size < Status.size + (4 * Record.wrap_size) then
    invalid_arg "Log_manager.format: device too small for a log";
  Status.write dev (Status.initial ~log_size:size)

(* A head move makes the image stale; a log must not hold a device-sized
   buffer for its lifetime anyway. *)
let drop_image t =
  if t.image then begin
    t.image <- false;
    t.scratch <- Bytes.empty
  end

(* The live window [head, tail) in a device-sized buffer indexed by device
   offset, spooled records overlaid so scans see appends not yet on the
   device. The open-time image needs no I/O; otherwise the window (two
   spans when wrapped) is read into the cached scratch buffer. Bytes past
   the tail are stale; the forward scan stops at [next_seqno]. *)
let read_live t =
  if not t.image then begin
    if Bytes.length t.scratch <> t.dev.Device.size then
      t.scratch <- Bytes.make t.dev.Device.size '\000';
    let buf = t.scratch in
    let head = t.status.Status.head in
    let data_start = t.status.Status.data_start in
    let log_size = t.status.Status.log_size in
    if t.used > 0 then begin
      if t.tail > head then
        t.dev.Device.read ~off:head ~buf ~pos:head ~len:(t.tail - head)
      else begin
        t.dev.Device.read ~off:head ~buf ~pos:head ~len:(log_size - head);
        if t.tail > data_start then
          t.dev.Device.read ~off:data_start ~buf ~pos:data_start
            ~len:(t.tail - data_start)
      end
    end
  end;
  Tail_buffer.overlay t.spool t.scratch;
  t.scratch

(* Walk live records from [head] expecting consecutive sequence numbers
   below [stop]. [fill ~off] runs before each decode at [off] and must
   leave every byte the decode looks at in [area]. Returns (tail,
   next_seqno, used, records) and calls [f] per record. *)
let scan ?(fill = fun ~off:_ -> ()) ?(stop = max_int) area (st : Status.t) ~f
    =
  let log_size = st.Status.log_size in
  let data_start = st.Status.data_start in
  let rec go off seqno used records =
    if log_size - off < Record.wrap_size then
      (* Too little room even for a wrap marker: implicit wrap; account the
         skipped filler as used space, mirroring the writer. *)
      go_at data_start seqno (used + (log_size - off)) records
    else go_at off seqno used records
  and go_at off seqno used records =
    let decoded =
      if seqno >= stop then None
      else begin
        fill ~off;
        Record.decode area ~pos:off
      end
    in
    match decoded with
    | Some (r, total) when r.Record.seqno = seqno -> begin
      f ~off r;
      match r.Record.kind with
      | Record.Wrap ->
        (* The marker stretches to the end of the area. *)
        go data_start (seqno + 1) (used + total) (records + 1)
      | Record.Commit -> go (off + total) (seqno + 1) (used + total) (records + 1)
    end
    | _ -> (off, seqno, used, records)
  in
  go st.Status.head st.Status.head_seqno 0 0

let open_chunk = 256 * 1024

(* The open scan's reader: [open_chunk] reads from the start of the lap
   the scan is on — the head, then [data_start] once it wraps — have
   filled [area] up to [hi], which starts where the bytes already read
   from the head end. A decode at [off] waits until the record's
   {!Record.extent} is in, so the scan stops exactly where a scan of the
   whole device would. *)
let chunked_fill (dev : Device.t) (st : Status.t) area ~hi =
  let log_size = st.Status.log_size in
  let lap = ref st.Status.head and hi = ref hi in
  fun ~off ->
    if off < !lap then begin
      lap := off;
      hi := off
    end;
    let rec loop () =
      let avail = !hi - off in
      if !hi < log_size && off + Record.extent area ~pos:off ~avail > !hi
      then begin
        let len = min open_chunk (log_size - !hi) in
        dev.Device.read ~off:!hi ~buf:area ~pos:!hi ~len;
        hi := !hi + len;
        loop ()
      end
    in
    loop ()

let open_log ?obs ?(max_spool_bytes = 256 * 1024) dev =
  let obs =
    match obs with Some o -> o | None -> Rvm_obs.Registry.create ()
  in
  Rvm_obs.Registry.span obs "log.open" @@ fun () ->
  match Status.read dev with
  | Error _ as e -> e
  | Ok st ->
    if st.Status.log_size <> dev.Device.size then
      Error
        (Printf.sprintf "log size mismatch: formatted for %d, device is %d"
           st.Status.log_size dev.Device.size)
    else begin
      (* The scan's first read, the chunk at the head, goes into a buffer
         of its own: when the scan's first decode, there, already fails,
         the log is empty and needs no device-sized image. A head too
         near the end for a record wraps to [data_start] at once, and its
         scan reads nothing here. *)
      let head = st.Status.head and size = st.Status.log_size in
      let first =
        if size - head < Record.wrap_size then Bytes.empty
        else begin
          let len = min open_chunk (size - head) in
          let b = Bytes.create len in
          dev.Device.read ~off:head ~buf:b ~pos:0 ~len;
          b
        end
      in
      let read = Bytes.length first in
      let area, (tail, next_seqno, used, records) =
        if read > 0 && Record.extent first ~pos:0 ~avail:read = 0 then
          (Bytes.empty, (head, st.Status.head_seqno, 0, 0))
        else begin
          let area = Bytes.make size '\000' in
          Bytes.blit first 0 area head read;
          ( area,
            scan
              ~fill:(chunked_fill dev st area ~hi:(head + read))
              area st
              ~f:(fun ~off:_ _ -> ()) )
        end
      in
      Ok
        {
          dev;
          status = st;
          tail;
          next_seqno;
          used;
          records;
          spool =
            Tail_buffer.create ~data_start:st.Status.data_start
              ~log_size:st.Status.log_size;
          max_spool_bytes;
          scratch = (if used > 0 then area else Bytes.empty);
          image = used > 0;
          dirty = false;
          unforced_records = 0;
          forced_seqno = next_seqno - 1;
          last_off = tail;
          obs;
          s_drain = Rvm_obs.Registry.scope obs "log.drain";
          s_force = Rvm_obs.Registry.scope obs "log.force";
          c_appends = Rvm_obs.Registry.counter obs "log.append.records";
          c_truncations = Rvm_obs.Registry.counter obs "log.truncations";
          h_append_bytes = Rvm_obs.Registry.histogram obs "log.append.bytes.hist";
          c_spool_bytes = Rvm_obs.Registry.counter obs "log.spool.bytes";
          c_drain_writes =
            Rvm_obs.Registry.counter obs "log.spool.drain.writes";
          c_absorbed = Rvm_obs.Registry.counter obs "log.force.absorbed";
          h_drain_bytes =
            Rvm_obs.Registry.histogram obs "log.drain.bytes.hist";
        }
    end

let drain t =
  let sp = t.spool in
  if not (Tail_buffer.is_empty sp) then begin
    (* The open-time image stays valid: the drained bytes land in it at
       the offsets they land on the device. *)
    if t.image then Tail_buffer.overlay sp t.scratch;
    let bytes = Tail_buffer.bytes sp in
    let obs = t.obs in
    Rvm_obs.Registry.open_span obs t.s_drain;
    Rvm_obs.Registry.add_int obs "bytes" bytes;
    (match Tail_buffer.drain sp t.dev with
    | writes ->
      Rvm_obs.Registry.add_int obs "writes" writes;
      Rvm_obs.Counter.add t.c_drain_writes writes;
      Rvm_obs.Registry.close_span obs t.s_drain
    | exception e ->
      Rvm_obs.Registry.close_span obs t.s_drain;
      raise e);
    Rvm_obs.Histogram.observe t.h_drain_bytes (float_of_int bytes);
    t.dirty <- true
  end

let append_record t record =
  let size = Record.encoded_size record in
  let log_size = t.status.Status.log_size in
  let data_start = t.status.Status.data_start in
  let room_to_end = log_size - t.tail in
  let fits_in_place = size <= room_to_end in
  (* A record must never end inside the last [wrap_size - 1] bytes of the
     area: the sliver could hold no wrap marker, and a backward scan coming
     from [data_start] expects a trailer at the wrap point. Pad such a
     record so it ends exactly at the end of the area. *)
  let pad =
    if fits_in_place && room_to_end - size < Record.wrap_size then
      room_to_end - size
    else 0
  in
  let record =
    if pad = 0 then record
    else { record with Record.pad = record.Record.pad + pad }
  in
  let size = size + pad in
  let needed = if fits_in_place then size else room_to_end + size in
  if t.used + needed > capacity t then raise Log_full;
  let sp = t.spool in
  Tail_buffer.begin_at sp ~off:t.tail;
  if not fits_in_place then begin
    (* Mark the jump explicitly when a marker fits; otherwise the reader
       wraps implicitly because the space cannot hold any record. *)
    if room_to_end >= Record.wrap_size then begin
      let marker =
        Record.wrap ~seqno:t.next_seqno ~pad:(room_to_end - Record.wrap_size)
      in
      Record.encode_into ~seqno:t.next_seqno (Tail_buffer.buf sp) marker;
      t.next_seqno <- t.next_seqno + 1;
      t.records <- t.records + 1;
      t.unforced_records <- t.unforced_records + 1
    end;
    Tail_buffer.note_wrap sp;
    t.used <- t.used + room_to_end;
    t.tail <- data_start
  end;
  (* The sequence number is assigned exactly once, after any wrap marker
     has consumed its own. *)
  let seqno = t.next_seqno in
  t.last_off <- t.tail;
  Record.encode_into ~seqno (Tail_buffer.buf sp) record;
  Rvm_obs.Counter.add t.c_spool_bytes size;
  t.tail <- t.tail + size;
  t.used <- t.used + size;
  t.next_seqno <- t.next_seqno + 1;
  t.records <- t.records + 1;
  t.unforced_records <- t.unforced_records + 1;
  Rvm_obs.Counter.incr t.c_appends;
  Rvm_obs.Histogram.observe t.h_append_bytes (float_of_int size);
  if spooled_bytes t > t.max_spool_bytes then drain t;
  seqno

let last_offset t = t.last_off

let append t ~tid ?timestamp_us ?flags ranges =
  let seqno =
    append_record t (Record.commit ~seqno:0 ~tid ?timestamp_us ?flags ranges)
  in
  (t.last_off, seqno)

let force t =
  drain t;
  let obs = t.obs in
  Rvm_obs.Registry.open_span obs t.s_force;
  Rvm_obs.Registry.add_int obs "records" t.unforced_records;
  (match t.dev.Device.sync () with
  | () -> Rvm_obs.Registry.close_span obs t.s_force
  | exception e ->
    Rvm_obs.Registry.close_span obs t.s_force;
    raise e);
  (* Every record beyond the first made durable by this sync absorbed a
     force it would have paid on its own (the group-commit win). *)
  if t.unforced_records > 1 then
    Rvm_obs.Counter.add t.c_absorbed (t.unforced_records - 1);
  t.unforced_records <- 0;
  t.forced_seqno <- t.next_seqno - 1;
  t.dirty <- false

(* Valid until the next append, drain or head move. *)
type view = { log : t; area : Bytes.t }

let view t = { log = t; area = read_live t }

let iter { log = t; area } ~f =
  ignore (scan ~stop:t.next_seqno area t.status ~f)

let iter_backward { log = t; area } ~f =
  (* Walk trailers back from the tail. The wrap marker pads to the end of
     the data area, so stepping back from [data_start] continues at
     [log_size]. Stop once the head is reached. *)
  let log_size = t.status.Status.log_size in
  let data_start = t.status.Status.data_start in
  let head = t.status.Status.head in
  let rec go end_pos =
    let end_pos = if end_pos = data_start then log_size else end_pos in
    match Record.decode_backward area ~end_pos with
    | Some (r, start) ->
      f ~off:start r;
      if start <> head then go start
    | None ->
      (* The live area was validated by the forward scan at open time. *)
      invalid_arg "Log_manager.iter_backward: corrupt live area"
  in
  if t.records > 0 then go t.tail

let iter_live t ~f = iter (view t) ~f

let live_records t =
  let acc = ref [] in
  iter_live t ~f:(fun ~off r -> acc := (off, r) :: !acc);
  List.rev !acc

let move_head t ~new_head ~new_head_seqno =
  (* Materialize the spool first: the status block must never point into a
     region of the device the spooled records have not reached, and the
     status sync below then makes both durable together. *)
  drain t;
  let log_size = t.status.Status.log_size in
  let data_start = t.status.Status.data_start in
  let old_head = t.status.Status.head in
  let reclaimed =
    if new_head >= old_head then new_head - old_head
    else log_size - old_head + (new_head - data_start)
  in
  let reclaimed_records = new_head_seqno - t.status.Status.head_seqno in
  L.debug (fun m ->
      m "move_head: %d -> %d (reclaimed %d bytes, %d records)" old_head
        new_head reclaimed reclaimed_records);
  t.used <- t.used - reclaimed;
  t.records <- t.records - reclaimed_records;
  assert (t.used >= 0 && t.records >= 0);
  let status =
    {
      t.status with
      Status.head = new_head;
      head_seqno = new_head_seqno;
      truncations = t.status.Status.truncations + 1;
    }
  in
  Status.write t.dev status;
  (* Status.write syncs the device, so everything drained is durable. *)
  drop_image t;
  t.dirty <- false;
  t.unforced_records <- 0;
  t.forced_seqno <- t.next_seqno - 1;
  t.status <- status;
  Rvm_obs.Counter.incr t.c_truncations

let reset_empty t = move_head t ~new_head:t.tail ~new_head_seqno:t.next_seqno
