exception Io_error of string

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable syncs : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
}

type t = {
  name : string;
  size : int;
  read : off:int -> buf:Bytes.t -> pos:int -> len:int -> unit;
  write : off:int -> buf:Bytes.t -> pos:int -> len:int -> unit;
  sync : unit -> unit;
  close : unit -> unit;
  stats : stats;
}

let fresh_stats () =
  { reads = 0; writes = 0; syncs = 0; bytes_read = 0; bytes_written = 0 }

let check_range t ~off ~len =
  if off < 0 || len < 0 || off + len > t.size then
    raise
      (Io_error
         (Printf.sprintf "%s: access [%d, %d) outside device of size %d"
            t.name off (off + len) t.size))

let read_bytes t ~off ~len =
  let buf = Bytes.create len in
  t.read ~off ~buf ~pos:0 ~len;
  buf

let write_bytes t ~off b = t.write ~off ~buf:b ~pos:0 ~len:(Bytes.length b)

let write_string t ~off s =
  t.write ~off ~buf:(Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

(* --- constructors ---

   Every device in the tree is built by [make] (a base device over real
   storage) or [layer] (middleware over another device). Range checking and
   per-device stat accounting live here, once: implementations supply only
   the transport, so no wrapper hand-rolls its own counters — and [layer]
   forwards [close] to the base by construction, which is what keeps a
   stacked [File_device]'s fd from leaking. *)

let make ~name ~size ?(sync = fun () -> ()) ?(close = fun () -> ()) ~read
    ~write () =
  let stats = fresh_stats () in
  let rec t =
    {
      name;
      size;
      read =
        (fun ~off ~buf ~pos ~len ->
          check_range t ~off ~len;
          read ~off ~buf ~pos ~len;
          stats.reads <- stats.reads + 1;
          stats.bytes_read <- stats.bytes_read + len);
      write =
        (fun ~off ~buf ~pos ~len ->
          check_range t ~off ~len;
          write ~off ~buf ~pos ~len;
          stats.writes <- stats.writes + 1;
          stats.bytes_written <- stats.bytes_written + len);
      sync =
        (fun () ->
          sync ();
          stats.syncs <- stats.syncs + 1);
      close;
      stats;
    }
  in
  t

let layer ?name ?read ?write ?sync ?close base =
  let name = Option.value name ~default:base.name in
  let read =
    match read with Some f -> f base | None -> base.read
  in
  let write =
    match write with Some f -> f base | None -> base.write
  in
  let sync =
    match sync with Some f -> fun () -> f base | None -> base.sync
  in
  let close =
    match close with Some f -> fun () -> f base | None -> base.close
  in
  make ~name ~size:base.size ~sync ~close ~read ~write ()
