module B = Rvm_util.Bytebuf
module Device = Rvm_disk.Device

type t = {
  spool : B.t;
  data_start : int;
  log_size : int;
  (* Device offset of the first spooled byte; meaningless when empty. *)
  mutable base : int;
  (* Spool bytes belonging before the wrap point ([base, base + split));
     the remainder belongs at [data_start]. Equal to the spool length
     until a wrap is noted. *)
  mutable split : int;
  mutable wrapped : bool;
}

let create ~data_start ~log_size =
  {
    spool = B.create ~capacity:4096 ();
    data_start;
    log_size;
    base = 0;
    split = 0;
    wrapped = false;
  }

let is_empty t = B.length t.spool = 0 && not t.wrapped
let bytes t = B.length t.spool
let buf t = t.spool

let begin_at t ~off = if is_empty t then t.base <- off

let note_wrap t =
  if t.wrapped then invalid_arg "Tail_buffer.note_wrap: wrap already pending";
  (* An empty spool wrapping means the whole stream starts at data_start. *)
  if B.length t.spool = 0 then begin
    t.base <- t.data_start;
    t.split <- 0
  end
  else begin
    t.split <- B.length t.spool;
    t.wrapped <- true;
    assert (t.base + t.split <= t.log_size)
  end

(* The spool covers at most two contiguous device spans: [first t]
   bytes at [base], then, after a wrap, the rest at [data_start]. *)
let first t = if t.wrapped then t.split else B.length t.spool

let overlay t dst =
  let len = B.length t.spool and first = first t in
  if first > 0 then
    B.blit_range t.spool ~src_pos:0 dst ~dst_pos:t.base ~len:first;
  if len > first then
    B.blit_range t.spool ~src_pos:first dst ~dst_pos:t.data_start
      ~len:(len - first)

let clear t =
  B.clear t.spool;
  t.split <- 0;
  t.wrapped <- false

let drain t (dev : Device.t) =
  let data = B.unsafe_buffer t.spool in
  let len = B.length t.spool and first = first t in
  if first > 0 then dev.Device.write ~off:t.base ~buf:data ~pos:0 ~len:first;
  if len > first then
    dev.Device.write ~off:t.data_start ~buf:data ~pos:first ~len:(len - first);
  (* The next append re-establishes [base] via [begin_at]. *)
  clear t;
  Bool.to_int (first > 0) + Bool.to_int (len > first)
