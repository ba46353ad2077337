module Rvm = Rvm_core.Rvm
module Types = Rvm_core.Types

(* [word] is scratch for word reads: each read copies into it and decodes
   there, so no [int64] is boxed. *)
type t = { rvm : Rvm.t; base : int; len : int; word : Bytes.t }

let magic = 0x52564D52445348L (* "RVMRDSH" *)
let hdr_magic = 0
let hdr_len = 8
let hdr_free = 16
let hdr_allocated = 24
let heap_header = 32
let overhead = 16 (* block header + footer *)
let min_block = 32

let getw t addr =
  Rvm.read_into t.rvm ~addr ~len:8 t.word ~pos:0;
  Int64.to_int (Bytes.get_int64_le t.word 0)

(* Every edit declares its words before writing them: [declare] covers [n]
   adjacent words with one set_range, and [putw] writes one of them. *)
let declare t tid addr n = Rvm.set_range t.rvm tid ~addr ~len:(8 * n)
let putw t addr v = Rvm.set_i64 t.rvm ~addr (Int64.of_int v)

let setw t tid addr v =
  declare t tid addr 1;
  putw t addr v

(* Block accessors. A block [b] spans [b, b + size); header and footer both
   hold size lor allocated-bit. *)
let block_size_tag t b = getw t b
let size_of_tag tag = tag land lnot 7
let allocated_tag tag = tag land 1 <> 0
let footer_addr b size = b + size - 8

let write_tags t tid b ~size ~allocated =
  let tag = size lor if allocated then 1 else 0 in
  setw t tid b tag;
  setw t tid (footer_addr b size) tag

let next_free t b = getw t (b + 8)
let prev_free t b = getw t (b + 16)
let set_next_free t tid b v = setw t tid (b + 8) v
let set_prev_free t tid b v = setw t tid (b + 16) v

let free_head t = getw t (t.base + hdr_free)
let set_free_head t tid v = setw t tid (t.base + hdr_free) v
let allocated_bytes t = getw t (t.base + hdr_allocated)

let add_allocated t tid delta =
  setw t tid (t.base + hdr_allocated) (allocated_bytes t + delta)

let first_block t = t.base + heap_header
let heap_end t = t.base + t.len

let round8 n = (n + 7) land lnot 7

(* The two links that point into a list position: [prev]'s next link (the
   list head when [prev] is 0) and [next]'s prev link (none when [next] is
   0). *)
let set_next_of t tid prev v =
  if prev = 0 then set_free_head t tid v else set_next_free t tid prev v

let set_prev_of t tid next v = if next <> 0 then set_prev_free t tid next v

(* Format [b, b + size) as a free block in the position [prev] < b < [next]
   of the address-ordered list: its header and links are adjacent, one
   range. *)
let put_free t tid b ~size ~prev ~next =
  declare t tid b 3;
  putw t b size;
  putw t (b + 8) next;
  putw t (b + 16) prev;
  setw t tid (footer_addr b size) size;
  set_next_of t tid prev b;
  set_prev_of t tid next b

(* Address-ordered free-list insertion keeps first-fit deterministic and
   helps coalescing locality. *)
let insert_free t tid b ~size =
  let rec find prev cur =
    if cur = 0 || cur > b then (prev, cur) else find cur (next_free t cur)
  in
  let prev, next = find 0 (free_head t) in
  put_free t tid b ~size ~prev ~next

let init rvm tid ~base ~len =
  if len < heap_header + min_block then
    Types.error "rds: heap of %d bytes is too small" len;
  let len = len land lnot 7 in
  let t = { rvm; base; len; word = Bytes.create 8 } in
  setw t tid (base + hdr_magic) (Int64.to_int magic);
  setw t tid (base + hdr_len) len;
  setw t tid (base + hdr_free) 0;
  setw t tid (base + hdr_allocated) 0;
  insert_free t tid (first_block t) ~size:(len - heap_header);
  t

let attach rvm ~base =
  let t = { rvm; base; len = 0; word = Bytes.create 8 } in
  if getw t (base + hdr_magic) <> Int64.to_int magic then
    Types.error "rds: no heap at %#x" base;
  { t with len = getw t (base + hdr_len) }

let alloc t tid ~size =
  if size <= 0 then Types.error "rds: allocation of %d bytes" size;
  let need = max min_block (round8 size + overhead) in
  let rec fit b =
    if b = 0 then
      Types.error "rds: out of recoverable heap space (%d bytes requested)"
        size
    else
      let bsize = size_of_tag (block_size_tag t b) in
      if bsize >= need then b else fit (next_free t b)
  in
  let b = fit (free_head t) in
  let bsize = size_of_tag (block_size_tag t b) in
  let prev = prev_free t b and next = next_free t b in
  let used =
    if bsize - need >= min_block then begin
      (* Split: the tail stays free, in the block's place on the list. The
         block's new footer and the tail's header and links are four
         adjacent words, one range. *)
      let rest = b + need and rsize = bsize - need in
      declare t tid (rest - 8) 4;
      putw t (rest - 8) (need lor 1);
      putw t rest rsize;
      putw t (rest + 8) next;
      putw t (rest + 16) prev;
      setw t tid (footer_addr rest rsize) rsize;
      set_next_of t tid prev rest;
      set_prev_of t tid next rest;
      setw t tid b (need lor 1);
      need
    end
    else begin
      (* The whole block goes: its neighbours on the list close up. *)
      set_next_of t tid prev next;
      set_prev_of t tid next prev;
      write_tags t tid b ~size:bsize ~allocated:true;
      bsize
    end
  in
  add_allocated t tid (used - overhead);
  b + 8

let payload_block t p =
  let b = p - 8 in
  if b < first_block t || b >= heap_end t then
    Types.error "rds: %#x is not a heap address" p;
  let tag = block_size_tag t b in
  let size = size_of_tag tag in
  if
    size < min_block
    || b + size > heap_end t
    || block_size_tag t (footer_addr b size) <> tag
  then Types.error "rds: %#x does not point at a block" p;
  (b, size, allocated_tag tag)

let usable_size t p =
  let _, size, _ = payload_block t p in
  size - overhead

(* Coalescing with free neighbours edits the list in place: a free block
   before [b] grows where it sits, and a free block after [b] alone is
   replaced on the list by [b]. *)
let free t tid p =
  let b, size, allocated = payload_block t p in
  if not allocated then Types.error "rds: double free of %#x" p;
  add_allocated t tid (overhead - size);
  let nb = b + size in
  let nsize =
    if nb < heap_end t && not (allocated_tag (block_size_tag t nb)) then
      size_of_tag (block_size_tag t nb)
    else 0
  in
  if b > first_block t && not (allocated_tag (block_size_tag t (b - 8))) then begin
    let psize = size_of_tag (block_size_tag t (b - 8)) in
    let pb = b - psize and total = psize + size + nsize in
    if nsize > 0 then begin
      (* [nb] follows [pb] on the list, nothing being free between them:
         it leaves, and [pb] links to its successor. *)
      let after = next_free t nb in
      declare t tid pb 2;
      putw t pb total;
      putw t (pb + 8) after;
      set_prev_of t tid after pb
    end
    else setw t tid pb total;
    setw t tid (footer_addr pb total) total
  end
  else if nsize > 0 then
    put_free t tid b ~size:(size + nsize) ~prev:(prev_free t nb)
      ~next:(next_free t nb)
  else insert_free t tid b ~size

let base t = t.base
let heap_len t = t.len

let fold_blocks t ~init ~f =
  let rec go b acc =
    if b >= heap_end t then acc
    else
      let tag = block_size_tag t b in
      let size = size_of_tag tag in
      go (b + size) (f acc ~block:b ~size ~allocated:(allocated_tag tag))
  in
  go (first_block t) init

let free_bytes t =
  fold_blocks t ~init:0 ~f:(fun acc ~block:_ ~size ~allocated ->
      if allocated then acc else acc + size - overhead)

let block_count t =
  fold_blocks t ~init:0 ~f:(fun acc ~block:_ ~size:_ ~allocated:_ -> acc + 1)

let free_list_length t =
  let rec go n b = if b = 0 then n else go (n + 1) (next_free t b) in
  go 0 (free_head t)

let check t =
  let fail fmt = Types.error fmt in
  (* Walk the block chain. *)
  let walked_free = ref [] in
  let total = ref 0 in
  let allocated_payload = ref 0 in
  let prev_free_flag = ref false in
  fold_blocks t ~init:() ~f:(fun () ~block ~size ~allocated ->
      if size < min_block || size land 7 <> 0 then
        fail "rds-check: bad size %d at %#x" size block;
      let tag = block_size_tag t block in
      if block_size_tag t (footer_addr block size) <> tag then
        fail "rds-check: footer mismatch at %#x" block;
      if (not allocated) && !prev_free_flag then
        fail "rds-check: uncoalesced free blocks at %#x" block;
      prev_free_flag := not allocated;
      if allocated then allocated_payload := !allocated_payload + size - overhead
      else walked_free := block :: !walked_free;
      total := !total + size);
  if !total <> t.len - heap_header then
    fail "rds-check: blocks cover %d of %d bytes" !total (t.len - heap_header);
  if !allocated_payload <> allocated_bytes t then
    fail "rds-check: allocated accounting %d <> %d" !allocated_payload
      (allocated_bytes t);
  (* Walk the free list and compare. *)
  let listed = ref [] in
  let rec go prev b =
    if b <> 0 then begin
      if prev_free t b <> prev then fail "rds-check: bad prev link at %#x" b;
      if List.length !listed > block_count t then
        fail "rds-check: free list cycle";
      listed := b :: !listed;
      if allocated_tag (block_size_tag t b) then
        fail "rds-check: allocated block %#x on free list" b;
      let n = next_free t b in
      if n <> 0 && n <= b then fail "rds-check: free list not address-ordered";
      go b n
    end
  in
  go 0 (free_head t);
  let sort = List.sort compare in
  if sort !listed <> sort !walked_free then
    fail "rds-check: free list disagrees with heap walk (%d vs %d)"
      (List.length !listed)
      (List.length !walked_free)
