type t = { mutable data : Bytes.t; mutable len : int }

exception Underflow

let create ?(capacity = 256) () =
  { data = Bytes.create (max 16 capacity); len = 0 }

let length t = t.len
let clear t = t.len <- 0

let ensure t extra =
  let needed = t.len + extra in
  if needed > Bytes.length t.data then begin
    let cap = ref (Bytes.length t.data * 2) in
    while !cap < needed do
      cap := !cap * 2
    done;
    let data = Bytes.create !cap in
    Bytes.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let u8 t v =
  if v < 0 || v > 0xff then invalid_arg "Bytebuf.u8";
  ensure t 1;
  Bytes.unsafe_set t.data t.len (Char.unsafe_chr v);
  t.len <- t.len + 1

let u16 t v =
  if v < 0 || v > 0xffff then invalid_arg "Bytebuf.u16";
  ensure t 2;
  Bytes.set_uint16_le t.data t.len v;
  t.len <- t.len + 2

let u32 t v =
  if v < 0 || v > 0xffffffff then invalid_arg "Bytebuf.u32";
  ensure t 4;
  Bytes.set_int32_le t.data t.len (Int32.of_int v);
  t.len <- t.len + 4

let i32 t v =
  ensure t 4;
  Bytes.set_int32_le t.data t.len v;
  t.len <- t.len + 4

let u64 t v =
  ensure t 8;
  Bytes.set_int64_le t.data t.len v;
  t.len <- t.len + 8

let int t v =
  ensure t 8;
  Bytes.set_int64_le t.data t.len (Int64.of_int v);
  t.len <- t.len + 8

let uint t v =
  if v < 0 then invalid_arg "Bytebuf.uint";
  int t v

let bytes t b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Bytebuf.bytes";
  ensure t len;
  Bytes.blit b pos t.data t.len len;
  t.len <- t.len + len

let string t s =
  bytes t (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let lstring t s =
  u32 t (String.length s);
  string t s

let contents t = Bytes.sub t.data 0 t.len
let blit_into t dst ~pos = Bytes.blit t.data 0 dst pos t.len

let unsafe_buffer t = t.data

let blit_range t ~src_pos dst ~dst_pos ~len =
  if src_pos < 0 || len < 0 || src_pos + len > t.len then
    invalid_arg "Bytebuf.blit_range";
  Bytes.blit t.data src_pos dst dst_pos len

let checksum t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.len then
    invalid_arg "Bytebuf.checksum";
  Checksum.bytes t.data ~pos ~len

type buf = t

module Cursor = struct
  type t = { src : Bytes.t; limit : int; mutable p : int }

  let of_bytes ?(pos = 0) ?len b =
    let len = match len with Some l -> l | None -> Bytes.length b - pos in
    if pos < 0 || len < 0 || pos + len > Bytes.length b then
      invalid_arg "Cursor.of_bytes";
    { src = b; limit = pos + len; p = pos }

  let of_buf (b : buf) = { src = b.data; limit = b.len; p = 0 }

  let pos t = t.p
  let remaining t = t.limit - t.p

  let seek t p =
    if p < 0 || p > t.limit then invalid_arg "Cursor.seek";
    t.p <- p

  let need t n = if t.limit - t.p < n then raise Underflow

  let u8 t =
    need t 1;
    let v = Char.code (Bytes.unsafe_get t.src t.p) in
    t.p <- t.p + 1;
    v

  let u16 t =
    need t 2;
    let v = Bytes.get_uint16_le t.src t.p in
    t.p <- t.p + 2;
    v

  let i32 t =
    need t 4;
    let v = Bytes.get_int32_le t.src t.p in
    t.p <- t.p + 4;
    v

  let u32 t =
    let v = Int32.to_int (i32 t) land 0xffffffff in
    v

  let u64 t =
    need t 8;
    let v = Bytes.get_int64_le t.src t.p in
    t.p <- t.p + 8;
    v

  let uint t =
    let v = u64 t in
    if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0
    then raise Underflow;
    Int64.to_int v

  let bytes t n =
    if n < 0 then raise Underflow;
    need t n;
    let b = Bytes.sub t.src t.p n in
    t.p <- t.p + n;
    b

  let lstring t =
    let n = u32 t in
    Bytes.unsafe_to_string (bytes t n)

  let skip t n =
    if n < 0 then raise Underflow;
    need t n;
    t.p <- t.p + n
end
