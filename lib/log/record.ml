module B = Rvm_util.Bytebuf
module Checksum = Rvm_util.Checksum

type range = { seg : int; off : int; data : Bytes.t }
type kind = Commit | Wrap

type t = {
  kind : kind;
  seqno : int;
  tid : int;
  timestamp_us : int;
  flags : int;
  ranges : range list;
  pad : int;
}

module Flags = struct
  let no_flush = 1
  let no_restore = 2
  let intent = 4
  let stage = 8
  let resolution = 16
  let has flags f = flags land f <> 0
end

let commit ~seqno ~tid ?(timestamp_us = 0) ?(flags = 0) ranges =
  { kind = Commit; seqno; tid; timestamp_us; flags; ranges; pad = 0 }

let wrap ~seqno ~pad =
  if pad < 0 then invalid_arg "Record.wrap";
  { kind = Wrap; seqno; tid = 0; timestamp_us = 0; flags = 0; ranges = []; pad }

let record_magic = 0x52435230
let range_magic = 0x524E4730
let end_magic = 0x52454E44
let header_size = 39
let range_header_size = 32
let trailer_size = 20

let unsafe_skip_verification = ref false

(* Restores the flag even when the thunk raises, so one failing
   fault-injection test cannot leak disabled verification into the suites
   that run after it. *)
let with_unverified f =
  let saved = !unsafe_skip_verification in
  unsafe_skip_verification := true;
  Fun.protect ~finally:(fun () -> unsafe_skip_verification := saved) f

let kind_code = function Commit -> 1 | Wrap -> 2
let kind_of_code = function 1 -> Some Commit | 2 -> Some Wrap | _ -> None

let encoded_size t =
  header_size
  + List.fold_left
      (fun acc r -> acc + range_header_size + Bytes.length r.data)
      0 t.ranges
  + t.pad + trailer_size

let wrap_size = header_size + trailer_size
let data_bytes t = List.fold_left (fun a r -> a + Bytes.length r.data) 0 t.ranges

(* The range headers and data, each header's rev field pointing back to
   [prev_start], the previous header (0: the record header). *)
let rec encode_ranges b ~rec_start ~prev_start = function
  | [] -> ()
  | r :: rest ->
    let start = B.length b - rec_start in
    let len = Bytes.length r.data in
    B.u32 b range_magic;
    B.u32 b (range_header_size + len);
    (* fwd: to next range header (or trailer) *)
    B.u32 b (start - prev_start);
    (* rev: back to previous range header (record header for the first) *)
    B.int b r.seg;
    B.int b r.off;
    B.u32 b len;
    B.bytes b r.data ~pos:0 ~len;
    encode_ranges b ~rec_start ~prev_start:start rest

(* Vectored encoding: append the wire image directly onto [b] (after
   whatever it already holds), so a spooled append copies each range
   exactly once — region buffer into the spool — with no intermediate
   per-record [Bytes]. Positions in the record format are record-relative,
   hence the [rec_start] rebasing. *)
let encode_into ~seqno b t =
  let rec_start = B.length b in
  let total = encoded_size t in
  B.u32 b record_magic;
  B.u8 b (kind_code t.kind);
  B.int b seqno;
  B.int b t.tid;
  B.int b t.timestamp_us;
  B.u16 b t.flags;
  B.u32 b (List.length t.ranges);
  B.u32 b t.pad;
  encode_ranges b ~rec_start ~prev_start:0 t.ranges;
  for _ = 1 to t.pad do
    B.u8 b 0
  done;
  let body_len = B.length b - rec_start in
  let crc = B.checksum b ~pos:rec_start ~len:body_len in
  B.i32 b crc;
  B.u32 b total;
  B.int b seqno;
  B.u32 b end_magic;
  assert (B.length b - rec_start = total)

let encode ?seqno t =
  let b = B.create ~capacity:(encoded_size t) () in
  encode_into ~seqno:(Option.value seqno ~default:t.seqno) b t;
  B.contents b

let decode bytes ~pos =
  let len_avail = Bytes.length bytes - pos in
  if len_avail < wrap_size then None
  else
    let c = B.Cursor.of_bytes ~pos bytes in
    try
      if B.Cursor.u32 c <> record_magic then None
      else
        match kind_of_code (B.Cursor.u8 c) with
        | None -> None
        | Some kind ->
          let seqno = Int64.to_int (B.Cursor.u64 c) in
          let tid = Int64.to_int (B.Cursor.u64 c) in
          let timestamp_us = Int64.to_int (B.Cursor.u64 c) in
          let flags = B.Cursor.u16 c in
          let n_ranges = B.Cursor.u32 c in
          let pad = B.Cursor.u32 c in
          if n_ranges > 0xffffff then None
          else begin
            let ranges = ref [] in
            let ok = ref true in
            (try
               for _ = 1 to n_ranges do
                 if B.Cursor.u32 c <> range_magic then raise Exit;
                 let _fwd = B.Cursor.u32 c in
                 let _rev = B.Cursor.u32 c in
                 let seg = Int64.to_int (B.Cursor.u64 c) in
                 let off = Int64.to_int (B.Cursor.u64 c) in
                 let len = B.Cursor.u32 c in
                 let data = B.Cursor.bytes c len in
                 ranges := { seg; off; data } :: !ranges
               done;
               B.Cursor.skip c pad
             with Exit | B.Underflow -> ok := false);
            if not !ok then None
            else begin
              let body_end = B.Cursor.pos c in
              let crc = B.Cursor.i32 c in
              let total = B.Cursor.u32 c in
              let seqno' = Int64.to_int (B.Cursor.u64 c) in
              let magic_end = B.Cursor.u32 c in
              (* The fault-injection flag disables the trailer and checksum
                 checks, trusting the structural parse alone and recomputing
                 the total from it — exactly the recovery bug the crash-point
                 explorer's mutation test must catch. *)
              let total =
                if !unsafe_skip_verification then
                  body_end - pos + trailer_size
                else total
              in
              if
                (not !unsafe_skip_verification)
                && (magic_end <> end_magic || seqno' <> seqno
                   || total <> body_end - pos + trailer_size
                   || crc <> Checksum.bytes bytes ~pos ~len:(body_end - pos))
              then None
              else
                Some
                  ( {
                      kind;
                      seqno;
                      tid;
                      timestamp_us;
                      flags;
                      ranges = List.rev !ranges;
                      pad;
                    },
                    total )
            end
          end
    with B.Underflow -> None

(* The header and each range header name how long the rest of the record
   is, so the bytes [decode] will touch are known range by range. A range
   header missing from the [avail] bytes read is where the answer stops. *)
let extent bytes ~pos ~avail =
  let u32 p =
    Int32.to_int (Bytes.get_int32_le bytes (pos + p)) land 0xffffffff
  in
  if avail < header_size then header_size
  else if u32 0 <> record_magic || u32 31 > 0xffffff then 0
  else
    let n_ranges = u32 31 and pad = u32 35 in
    let rec walk i p =
      if i = n_ranges then p + pad + trailer_size
      else if avail < p + range_header_size then p + range_header_size
      else if u32 p <> range_magic then 0
      else walk (i + 1) (p + range_header_size + u32 (p + 28))
    in
    walk 0 header_size

let decode_backward bytes ~end_pos =
  if end_pos < trailer_size || end_pos > Bytes.length bytes then None
  else
    let c = B.Cursor.of_bytes ~pos:(end_pos - trailer_size) bytes in
    try
      let _crc = B.Cursor.i32 c in
      let total = B.Cursor.u32 c in
      let _seqno = B.Cursor.u64 c in
      let magic_end = B.Cursor.u32 c in
      if magic_end <> end_magic || total > end_pos || total < wrap_size then
        None
      else
        let start = end_pos - total in
        match decode bytes ~pos:start with
        | Some (t, total') when total' = total -> Some (t, start)
        | _ -> None
    with B.Underflow -> None
