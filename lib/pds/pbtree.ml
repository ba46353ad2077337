module Rvm = Rvm_core.Rvm
module Types = Rvm_core.Types
module Rds = Rvm_alloc.Rds

(* Layout.
   Header (32 bytes, rds-allocated):
     +0  magic          "RVMBTRE2"
     +8  root node address
     +16 key count
     +24 minimum degree d (fixed at create time)
   Node (32 + 16M + 8(M+1) bytes, rds-allocated; M = 2d-1 max keys):
     +0  kind: 1 = leaf, 2 = internal
     +8  key count
     +16 next-leaf address (leaves only; 0 = rightmost)
     +24 reserved
     +32            .. +32+16M      key slots, 16 bytes each
     +32+16M        .. +40+24M      leaf: value cell pointers (M slots)
                                    internal: child pointers (M+1 slots)
   Key slot: a key of at most 15 bytes sits inline, its length in byte 0
   and its bytes from byte 1, zero-padded. A longer key lives in an
   overflow cell: byte 0 is 0xFF and bytes 8..15 hold the cell's address.
   Each overflow cell belongs to exactly one live slot: a slot move takes
   the cell with it, and a separator copied from a leaf key gets a cell of
   its own.
   Cell (rds-allocated): +0 byte length, +8 the bytes. A value that fits
   its cell is rewritten there; one that outgrows it gets a new cell, and
   the old one is freed. An abort puts the old bytes back because the
   caller's Restore-mode transaction saved them at set_range.

   Every mutation declares each change once, as exactly the bytes it
   writes: a rewritten cell, a fresh cell or a fresh node's header is one
   range, a run of key or pointer slots that shifts or moves to another
   node is one range, and so is a single slot. The declared bytes are the
   ones a slot-at-a-time move would declare, so the logged bytes are the
   same and only the set_range calls are fewer; no declaration widens to a
   whole node. *)

type stats = { mutable splits : int; mutable merges : int; mutable borrows : int }

(* The first [len] bytes of [bytes]: where the ordered walk reads an
   entry's key or value, grown to fit and reused for every entry. *)
type view = { mutable bytes : Bytes.t; mutable len : int }

(* [buf] is scratch for word and key-slot reads: each read copies into it
   and decodes or compares there, so a read boxes no [int64] and a probe
   builds no key string. [key] and [value] are the walk's entry. *)
type t = {
  rvm : Rvm.t;
  heap : Rds.t;
  addr : int;
  deg : int;
  stats : stats;
  buf : Bytes.t;
  key : view;
  value : view;
}

let magic = 0x52564D4254524532L (* "RVMBTRE2" *)
let header_size = 32
let leaf_kind = 1
let internal_kind = 2
let slot_size = 16
let inline_max = slot_size - 1
let overflow_tag = 0xFF

let getw t addr =
  Rvm.read_into t.rvm ~addr ~len:8 t.buf ~pos:0;
  Int64.to_int (Bytes.get_int64_le t.buf 0)

let putw t addr v = Rvm.set_i64 t.rvm ~addr (Int64.of_int v)

let setw t tid addr v =
  Rvm.set_range t.rvm tid ~addr ~len:8;
  putw t addr v

let max_keys t = (2 * t.deg) - 1
let min_keys t = t.deg - 1
let node_size t = 32 + (slot_size * max_keys t) + (8 * (max_keys t + 1))
let root t = getw t (t.addr + 8)
let set_root t tid n = setw t tid (t.addr + 8) n
let length t = getw t (t.addr + 16)
let set_length t tid k = setw t tid (t.addr + 16) k
let bump_count t tid d = set_length t tid (length t + d)
let degree t = t.deg
let address t = t.addr
let stats t = t.stats

let is_leaf t n = getw t n = leaf_kind
let nkeys t n = getw t (n + 8)
let set_nkeys t tid n k = setw t tid (n + 8) k
let next_leaf t n = getw t (n + 16)
let set_next_leaf t tid n v = setw t tid (n + 16) v
let key_slot _t n i = n + 32 + (slot_size * i)
let ptr_slot t n i = n + 32 + (slot_size * max_keys t) + (8 * i)
let ptr t n i = getw t (ptr_slot t n i)
let set_ptr t tid n i c = setw t tid (ptr_slot t n i) c

let cell_string t c =
  let len = getw t c in
  if len = 0 then ""
  else begin
    let b = Bytes.create len in
    Rvm.read_into t.rvm ~addr:(c + 8) ~len b ~pos:0;
    Bytes.unsafe_to_string b
  end

(* Write [s] into cell [c]: its length word and bytes, one range. *)
let write_cell t tid c s =
  let len = String.length s in
  Rvm.set_range t.rvm tid ~addr:c ~len:(8 + len);
  putw t c len;
  if len > 0 then Rvm.store_string t.rvm ~addr:(c + 8) s

let alloc_cell t tid s =
  let c = Rds.alloc t.heap tid ~size:(8 + String.length s) in
  write_cell t tid c s;
  c

let free_cell t tid c = Rds.free t.heap tid c

(* --- key slots --- *)

(* Read key slot [i] of [n] into [t.buf]; its byte 0, the key length or
   [overflow_tag], is returned. *)
let read_slot t n i =
  Rvm.read_into t.rvm ~addr:(key_slot t n i) ~len:slot_size t.buf ~pos:0;
  Bytes.get_uint8 t.buf 0

(* The overflow cell of the slot just read. *)
let read_cell t = Int64.to_int (Bytes.get_int64_le t.buf 8)

let node_key t n i =
  let len = read_slot t n i in
  if len = overflow_tag then cell_string t (read_cell t)
  else Bytes.sub_string t.buf 1 len

(* [String.compare (node_key t n i) key], comparing an inline key in place:
   bytes in order, then length. It makes the same reads as [node_key]. *)
let compare_key t n i key =
  let len = read_slot t n i in
  if len = overflow_tag then String.compare (cell_string t (read_cell t)) key
  else begin
    let klen = String.length key in
    let m = if len < klen then len else klen in
    let j = ref 0 in
    while !j < m && Bytes.get t.buf (1 + !j) = String.unsafe_get key !j do
      incr j
    done;
    if !j < m then
      Char.code (Bytes.get t.buf (1 + !j)) - Char.code (String.unsafe_get key !j)
    else len - klen
  end

let overflow_cell t n i =
  let a = key_slot t n i in
  if Rvm.get_u8 t.rvm ~addr:a = overflow_tag then Some (getw t (a + 8))
  else None

(* Encode [key] as a key slot at [pos] of the zeroed [b]; a long key gets
   a fresh overflow cell. *)
let encode_key t tid b pos key =
  let len = String.length key in
  if len <= inline_max then begin
    Bytes.set_uint8 b pos len;
    Bytes.blit_string key 0 b (pos + 1) len
  end
  else begin
    Bytes.set_uint8 b pos overflow_tag;
    Bytes.set_int64_le b (pos + 8) (Int64.of_int (alloc_cell t tid key))
  end

(* Write [key] into key slot [i] of [n]. *)
let write_key t tid n i key =
  let b = Bytes.make slot_size '\000' in
  encode_key t tid b 0 key;
  Rvm.modify t.rvm tid ~addr:(key_slot t n i) b

(* Move key [i] of [src] to key [j] of [dst] as the slot's two words, the
   way pointers move. An overflow cell goes with it, so the source slot
   must stop being live. *)
let move_key t tid src i dst j =
  let s = key_slot t src i and d = key_slot t dst j in
  Rvm.read_into t.rvm ~addr:s ~len:8 t.buf ~pos:0;
  Rvm.read_into t.rvm ~addr:(s + 8) ~len:8 t.buf ~pos:8;
  Rvm.set_range t.rvm tid ~addr:d ~len:slot_size;
  Rvm.set_i64 t.rvm ~addr:d (Bytes.get_int64_le t.buf 0);
  Rvm.set_i64 t.rvm ~addr:(d + 8) (Bytes.get_int64_le t.buf 8)

(* Move [len] bytes from [src] to [dst] under one set_range: a run of slots
   shifting within a node or moving to another, read whole before any of
   it is written. Slots move whole, so overflow cells go with them, as
   with [move_key]. *)
let move_block t tid ~src ~dst ~len =
  if len > 0 then Rvm.modify t.rvm tid ~addr:dst (Rvm.load t.rvm ~addr:src ~len)

(* Move [count] key slots, or pointer slots, from slot [i] of [src] to slot
   [j] of [dst]. *)
let move_keys t tid src i dst j count =
  move_block t tid ~src:(key_slot t src i) ~dst:(key_slot t dst j)
    ~len:(slot_size * count)

let move_ptrs t tid src i dst j count =
  move_block t tid ~src:(ptr_slot t src i) ~dst:(ptr_slot t dst j)
    ~len:(8 * count)

(* Copy key [i] of [src] to key [j] of [dst], giving the copy an overflow
   cell of its own: both slots stay live. *)
let copy_key t tid src i dst j =
  match overflow_cell t src i with
  | None -> move_key t tid src i dst j
  | Some _ -> write_key t tid dst j (node_key t src i)

let free_key t tid n i = Option.iter (free_cell t tid) (overflow_cell t n i)

(* A fresh node's header (kind, key count, next-leaf link) is one range. *)
let alloc_node t tid ~leaf ~count ~next =
  let n = Rds.alloc t.heap tid ~size:(node_size t) in
  Rvm.set_range t.rvm tid ~addr:n ~len:24;
  putw t n (if leaf then leaf_kind else internal_kind);
  putw t (n + 8) count;
  putw t (n + 16) next;
  n

let handle rvm heap ~addr ~degree =
  let view () = { bytes = Bytes.create slot_size; len = 0 } in
  {
    rvm;
    heap;
    addr;
    deg = degree;
    stats = { splits = 0; merges = 0; borrows = 0 };
    buf = Bytes.create slot_size;
    key = view ();
    value = view ();
  }

let create rvm heap tid ~degree =
  if degree < 2 then Types.error "pbtree: minimum degree %d < 2" degree;
  let addr = Rds.alloc heap tid ~size:header_size in
  let t = handle rvm heap ~addr ~degree in
  setw t tid addr (Int64.to_int magic);
  setw t tid (addr + 24) degree;
  let r = alloc_node t tid ~leaf:true ~count:0 ~next:0 in
  set_root t tid r;
  set_length t tid 0;
  t

let attach rvm heap ~addr =
  let t = handle rvm heap ~addr ~degree:2 in
  if getw t addr <> Int64.to_int magic then
    Types.error "pbtree: no tree at %#x" addr;
  { t with deg = getw t (addr + 24) }

(* First index in [0, nkeys) whose key is >= [key], flagging an exact hit. *)
(* Both searches are binary. Each comparison reads a key slot through the
   engine (address-space lookup, paging-simulator touch) into the handle's
   scratch buffer and compares an inline key there, so a probe costs an
   engine round trip and allocates nothing; only an overflow key is
   built as a string. *)
let leaf_find t n ~key =
  let lo = ref 0 and hi = ref (nkeys t n) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if compare_key t n mid key < 0 then lo := mid + 1 else hi := mid
  done;
  (!lo, !lo < nkeys t n && compare_key t n !lo key = 0)

(* Child to descend into: separator i is the least key of child i+1's
   subtree, so keys >= separator route right. *)
let child_index t n ~key =
  let lo = ref 0 and hi = ref (nkeys t n) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if compare_key t n mid key > 0 then hi := mid else lo := mid + 1
  done;
  !lo

let rec leaf_of t n ~key =
  if is_leaf t n then n else leaf_of t (ptr t n (child_index t n ~key)) ~key

let leaf_addr t ~key = leaf_of t (root t) ~key

let get t ~key =
  let n = leaf_of t (root t) ~key in
  let i, exact = leaf_find t n ~key in
  if exact then Some (cell_string t (ptr t n i)) else None

let mem t ~key = get t ~key <> None

(* --- insertion (preemptive split on the way down) --- *)

(* Open separator position [ci] in [parent] and wire [right] in as child
   ci+1. The parent must not be full; the caller fills key [ci]. *)
let open_child_slot t tid parent ci ~right =
  let k = nkeys t parent in
  move_keys t tid parent ci parent (ci + 1) (k - ci);
  move_ptrs t tid parent (ci + 1) parent (ci + 2) (k - ci);
  set_ptr t tid parent (ci + 1) right;
  set_nkeys t tid parent (k + 1)

let split_child t tid parent ci =
  let child = ptr t parent ci in
  let d = t.deg in
  (if is_leaf t child then begin
     (* Leaf split: left keeps d entries, right takes d-1. The separator is
        a copy of the right node's first key (leaf entries never move up;
        a separator's overflow cell is owned by its internal node alone). *)
     let right =
       alloc_node t tid ~leaf:true ~count:(d - 1) ~next:(next_leaf t child)
     in
     move_keys t tid child d right 0 (d - 1);
     move_ptrs t tid child d right 0 (d - 1);
     set_nkeys t tid child d;
     set_next_leaf t tid child right;
     open_child_slot t tid parent ci ~right;
     copy_key t tid right 0 parent ci
   end
   else begin
     (* Internal split: the median key's slot moves up. *)
     let right = alloc_node t tid ~leaf:false ~count:(d - 1) ~next:0 in
     move_keys t tid child d right 0 (d - 1);
     move_ptrs t tid child d right 0 d;
     set_nkeys t tid child (d - 1);
     open_child_slot t tid parent ci ~right;
     move_key t tid child (d - 1) parent ci
   end);
  t.stats.splits <- t.stats.splits + 1

(* Insert a key the tree does not hold. *)
let rec insert_nonfull t tid n ~key ~value =
  if is_leaf t n then begin
    let i, _ = leaf_find t n ~key in
    let k = nkeys t n in
    move_keys t tid n i n (i + 1) (k - i);
    move_ptrs t tid n i n (i + 1) (k - i);
    write_key t tid n i key;
    set_ptr t tid n i (alloc_cell t tid value);
    set_nkeys t tid n (k + 1);
    bump_count t tid 1
  end
  else begin
    let ci = child_index t n ~key in
    let ci =
      if nkeys t (ptr t n ci) = max_keys t then begin
        split_child t tid n ci;
        if compare_key t n ci key <= 0 then ci + 1 else ci
      end
      else ci
    in
    insert_nonfull t tid (ptr t n ci) ~key ~value
  end

let put t tid ~key ~value =
  let n = leaf_of t (root t) ~key in
  let i, exact = leaf_find t n ~key in
  if exact then begin
    (* Replace before any split: a present key's leaf never moves. A value
       that fits its cell is rewritten there under one range, whose old
       bytes a Restore-mode transaction saves for an abort; one that
       outgrows its cell gets a new cell, and the old one is freed. *)
    let c = ptr t n i in
    if 8 + String.length value <= Rds.usable_size t.heap c then
      write_cell t tid c value
    else begin
      set_ptr t tid n i (alloc_cell t tid value);
      free_cell t tid c
    end
  end
  else begin
    let r = root t in
    let r =
      if nkeys t r = max_keys t then begin
        let nr = alloc_node t tid ~leaf:false ~count:0 ~next:0 in
        set_ptr t tid nr 0 r;
        set_root t tid nr;
        split_child t tid nr 0;
        nr
      end
      else r
    in
    insert_nonfull t tid r ~key ~value
  end

(* --- deletion (rebalance on the way down, CLRS style: never descend into
   a child at minimum occupancy) --- *)

(* Make separator [si] of [parent] a copy of key [i] of [src]: the fresh
   copy goes in, then the old separator's overflow cell is freed. *)
let reset_separator t tid parent si src i =
  let old = overflow_cell t parent si in
  copy_key t tid src i parent si;
  Option.iter (free_cell t tid) old

let borrow_left t tid parent ci =
  let child = ptr t parent ci and left = ptr t parent (ci - 1) in
  let lk = nkeys t left and ck = nkeys t child in
  (if is_leaf t child then begin
     move_keys t tid child 0 child 1 ck;
     move_ptrs t tid child 0 child 1 ck;
     move_key t tid left (lk - 1) child 0;
     set_ptr t tid child 0 (ptr t left (lk - 1));
     set_nkeys t tid child (ck + 1);
     set_nkeys t tid left (lk - 1);
     (* The separator must become the moved key. *)
     reset_separator t tid parent (ci - 1) child 0
   end
   else begin
     (* Rotate through the parent: the separator drops into the child and
        the left sibling's last key rises, slots moving whole. *)
     move_keys t tid child 0 child 1 ck;
     move_ptrs t tid child 0 child 1 (ck + 1);
     move_key t tid parent (ci - 1) child 0;
     set_ptr t tid child 0 (ptr t left lk);
     move_key t tid left (lk - 1) parent (ci - 1);
     set_nkeys t tid child (ck + 1);
     set_nkeys t tid left (lk - 1)
   end);
  t.stats.borrows <- t.stats.borrows + 1

let borrow_right t tid parent ci =
  let child = ptr t parent ci and right = ptr t parent (ci + 1) in
  let rk = nkeys t right and ck = nkeys t child in
  (if is_leaf t child then begin
     move_key t tid right 0 child ck;
     set_ptr t tid child ck (ptr t right 0);
     set_nkeys t tid child (ck + 1);
     move_keys t tid right 1 right 0 (rk - 1);
     move_ptrs t tid right 1 right 0 (rk - 1);
     set_nkeys t tid right (rk - 1);
     reset_separator t tid parent ci right 0
   end
   else begin
     move_key t tid parent ci child ck;
     set_ptr t tid child (ck + 1) (ptr t right 0);
     move_key t tid right 0 parent ci;
     move_keys t tid right 1 right 0 (rk - 1);
     move_ptrs t tid right 1 right 0 rk;
     set_nkeys t tid child (ck + 1);
     set_nkeys t tid right (rk - 1)
   end);
  t.stats.borrows <- t.stats.borrows + 1

(* Merge child ci with its right sibling; the separator between them
   leaves the parent (into the merged node for internal levels, freed for
   leaves). Returns the merged node, which sits at child index ci. *)
let merge_children t tid parent ci =
  let child = ptr t parent ci and right = ptr t parent (ci + 1) in
  let ck = nkeys t child and rk = nkeys t right in
  (if is_leaf t child then begin
     move_keys t tid right 0 child ck rk;
     move_ptrs t tid right 0 child ck rk;
     set_nkeys t tid child (ck + rk);
     set_next_leaf t tid child (next_leaf t right);
     free_key t tid parent ci
   end
   else begin
     move_key t tid parent ci child ck;
     move_keys t tid right 0 child (ck + 1) rk;
     move_ptrs t tid right 0 child (ck + 1) (rk + 1);
     set_nkeys t tid child (ck + 1 + rk)
   end);
  Rds.free t.heap tid right;
  let pk = nkeys t parent in
  move_keys t tid parent (ci + 1) parent ci (pk - 1 - ci);
  move_ptrs t tid parent (ci + 2) parent (ci + 1) (pk - 1 - ci);
  set_nkeys t tid parent (pk - 1);
  t.stats.merges <- t.stats.merges + 1;
  child

(* Grow child ci above minimum occupancy before descending into it.
   Returns the node to descend into (the merge cases change it). *)
let fix_child t tid parent ci =
  let k = nkeys t parent in
  if ci > 0 && nkeys t (ptr t parent (ci - 1)) > min_keys t then begin
    borrow_left t tid parent ci;
    ptr t parent ci
  end
  else if ci < k && nkeys t (ptr t parent (ci + 1)) > min_keys t then begin
    borrow_right t tid parent ci;
    ptr t parent ci
  end
  else if ci < k then merge_children t tid parent ci
  else merge_children t tid parent (ci - 1)

let rec delete_from t tid n ~key =
  if is_leaf t n then begin
    let i, exact = leaf_find t n ~key in
    if not exact then false
    else begin
      let k = nkeys t n in
      free_key t tid n i;
      free_cell t tid (ptr t n i);
      move_keys t tid n (i + 1) n i (k - 1 - i);
      move_ptrs t tid n (i + 1) n i (k - 1 - i);
      set_nkeys t tid n (k - 1);
      bump_count t tid (-1);
      true
    end
  end
  else begin
    let ci = child_index t n ~key in
    let c = ptr t n ci in
    let c = if nkeys t c <= min_keys t then fix_child t tid n ci else c in
    delete_from t tid c ~key
  end

let remove t tid ~key =
  let found = delete_from t tid (root t) ~key in
  let r = root t in
  if (not (is_leaf t r)) && nkeys t r = 0 then begin
    (* The last merge emptied the root: the tree loses a level. *)
    set_root t tid (ptr t r 0);
    Rds.free t.heap tid r
  end;
  found

(* --- bottom-up bulk load --- *)

(* A load transaction commits once it has written this many entries (leaf
   entries and child pointers), at the next node boundary. *)
let load_batch = 2_000

(* Node sizes for [n] items, [cap] to a node: every node full but the
   last, and when the last would hold fewer than [least] it shares with
   the one before, so that both hold at least [least]. *)
let partition ~n ~cap ~least =
  let nodes = (n + cap - 1) / cap in
  let sizes = Array.make nodes cap in
  let last = n - ((nodes - 1) * cap) in
  sizes.(nodes - 1) <- last;
  if nodes > 1 && last < least then begin
    let both = cap + last in
    sizes.(nodes - 2) <- both - (both / 2);
    sizes.(nodes - 1) <- both / 2
  end;
  sizes

(* A loaded node's key slots and pointer slots from slot 0, each run one
   range, written once the cells they point to exist. *)
let slot_runs t tid n ~keys ~ptrs =
  Rvm.modify t.rvm tid ~addr:(key_slot t n 0) keys;
  Rvm.modify t.rvm tid ~addr:(ptr_slot t n 0) ptrs

(* [Array.map], with [f] applied from the first element to the last. *)
let in_order a f = Array.init (Array.length a) (fun j -> f a.(j))

let load t ~count entry =
  if length t <> 0 then
    Types.error "pbtree: load into a tree of %d keys" (length t);
  if count > 0 then begin
    let tid = ref (Rvm.begin_transaction t.rvm ~mode:Types.No_restore) in
    let written = ref 0 in
    let wrote k =
      written := !written + k;
      if !written >= load_batch then begin
        Rvm.end_transaction t.rvm !tid ~mode:Types.No_flush;
        tid := Rvm.begin_transaction t.rvm ~mode:Types.No_restore;
        written := 0
      end
    in
    Fun.protect ~finally:(fun () ->
        Rvm.end_transaction t.rvm !tid ~mode:Types.No_flush)
    @@ fun () ->
    (* The empty root leaf becomes the first leaf. While it is the root the
       load writes only its unused slots: its key count and next-leaf link
       are written last, with the new root. Every other leaf is allocated
       and then its value cells, so a leaf shares pages with its values.
       For each entry a long key's overflow cell comes first, then its
       value cell; the node's key slots and pointer slots are written after
       them, as two runs. A level pairs each node with its least key. *)
    let first = root t and prev = ref 0 in
    let next = ref 0 and last = ref "" in
    let leaf k =
      let n =
        if !prev = 0 then first
        else begin
          let n = alloc_node t !tid ~leaf:true ~count:k ~next:0 in
          if !prev <> first then set_next_leaf t !tid !prev n;
          n
        end
      in
      prev := n;
      let keys = Bytes.make (slot_size * k) '\000' in
      let ptrs = Bytes.create (8 * k) in
      let least = ref "" in
      for i = 0 to k - 1 do
        let key, value = entry !next in
        if !next > 0 && compare !last key >= 0 then
          Types.error "pbtree: load keys not ascending at entry %d" !next;
        last := key;
        if i = 0 then least := key;
        encode_key t !tid keys (slot_size * i) key;
        let c = alloc_cell t !tid value in
        Bytes.set_int64_le ptrs (8 * i) (Int64.of_int c);
        incr next
      done;
      slot_runs t !tid n ~keys ~ptrs;
      wrote k;
      (n, !least)
    in
    (* Separator i-1 of an internal node is a copy of child i's least key. *)
    let internal level at k =
      let n = alloc_node t !tid ~leaf:false ~count:(k - 1) ~next:0 in
      let keys = Bytes.make (slot_size * (k - 1)) '\000' in
      let ptrs = Bytes.create (8 * k) in
      for i = 0 to k - 1 do
        let child, least = level.(at + i) in
        if i > 0 then encode_key t !tid keys (slot_size * (i - 1)) least;
        Bytes.set_int64_le ptrs (8 * i) (Int64.of_int child)
      done;
      slot_runs t !tid n ~keys ~ptrs;
      wrote k;
      (n, snd level.(at))
    in
    let rec up level =
      if Array.length level = 1 then fst level.(0)
      else begin
        let sizes =
          partition ~n:(Array.length level) ~cap:(max_keys t + 1) ~least:t.deg
        in
        let at = ref 0 in
        up
          (in_order sizes (fun k ->
               let node = internal level !at k in
               at := !at + k;
               node))
      end
    in
    let sizes = partition ~n:count ~cap:(max_keys t) ~least:(min_keys t) in
    let leaves = in_order sizes leaf in
    let r = up leaves in
    set_nkeys t !tid first sizes.(0);
    if Array.length leaves > 1 then set_next_leaf t !tid first (fst leaves.(1));
    set_root t !tid r;
    set_length t !tid count
  end

(* --- ordered iteration over the leaf chain --- *)

let rec leftmost t n = if is_leaf t n then n else leftmost t (ptr t n 0)

(* Read cell [c] into [v]: its length word, then its bytes. *)
let read_cell_into t c v =
  let len = getw t c in
  if Bytes.length v.bytes < len then
    v.bytes <- Bytes.create (Int.max len (2 * Bytes.length v.bytes));
  if len > 0 then Rvm.read_into t.rvm ~addr:(c + 8) ~len v.bytes ~pos:0;
  v.len <- len

(* The one ordered walk: read up to [left] entries in key order from
   entry [i] of leaf [n] into [t.key] and [t.value], and pass [f] views
   of them until it returns false or the chain ends. Each entry is read
   value first, in a fixed order: its pointer slot, the value's length
   word and bytes, its key slot, then an overflow key's length word and
   bytes. Under paging the order of the touches decides which pages are
   evicted, so it must not depend on how arguments are evaluated. *)
let rec walk_from t n i left f =
  if n = 0 || left = 0 then ()
  else if i >= nkeys t n then walk_from t (next_leaf t n) 0 left f
  else begin
    read_cell_into t (ptr t n i) t.value;
    let len = read_slot t n i in
    if len = overflow_tag then read_cell_into t (read_cell t) t.key
    else begin
      Bytes.blit t.buf 1 t.key.bytes 0 len;
      t.key.len <- len
    end;
    if
      f ~key:t.key.bytes ~klen:t.key.len ~value:t.value.bytes
        ~vlen:t.value.len
    then walk_from t n (i + 1) (left - 1) f
  end

let scan_views t ?lo ~n ~f () =
  if n > 0 then
    match lo with
    | None -> walk_from t (leftmost t (root t)) 0 n f
    | Some key ->
      let leaf = leaf_of t (root t) ~key in
      walk_from t leaf (fst (leaf_find t leaf ~key)) n f

let range t ?lo ?hi ~f () =
  scan_views t ?lo ~n:max_int ~f:(fun ~key ~klen ~value ~vlen ->
      let key = Bytes.sub_string key 0 klen in
      match hi with
      | Some h when compare key h >= 0 -> false
      | _ ->
        f ~key ~value:(Bytes.sub_string value 0 vlen);
        true)
    ()

let scan t ?lo ~n () =
  let acc = ref [] in
  scan_views t ?lo ~n
    ~f:(fun ~key ~klen ~value ~vlen ->
      acc :=
        (Bytes.sub_string key 0 klen, Bytes.sub_string value 0 vlen) :: !acc;
      true)
    ();
  List.rev !acc

let iter t ~f = range t ~f ()

let fold t ~init ~f =
  let acc = ref init in
  iter t ~f:(fun ~key ~value -> acc := f !acc ~key ~value);
  !acc

(* --- invariant walker --- *)

let check t =
  if getw t t.addr <> Int64.to_int magic then
    Types.error "pbtree-check: bad magic";
  if getw t (t.addr + 24) <> t.deg || t.deg < 2 then
    Types.error "pbtree-check: bad degree %d" (getw t (t.addr + 24));
  let leaves = ref [] in
  let cells = Hashtbl.create 16 in
  let count = ref 0 in
  let leaf_depth = ref (-1) in
  let in_bounds ~lo ~hi key =
    (match lo with Some l -> compare key l >= 0 | None -> true)
    && match hi with Some h -> compare key h < 0 | None -> true
  in
  let rec walk n ~lo ~hi ~depth ~at_root =
    if Rds.usable_size t.heap n < node_size t then
      Types.error "pbtree-check: node %#x smaller than a node" n;
    let kind = getw t n in
    if kind <> leaf_kind && kind <> internal_kind then
      Types.error "pbtree-check: bad kind %d at %#x" kind n;
    let k = nkeys t n in
    if k > max_keys t then Types.error "pbtree-check: overfull node %#x" n;
    if (not at_root) && k < min_keys t then
      Types.error "pbtree-check: underfull node %#x (%d keys)" n k;
    if at_root && kind = internal_kind && k < 1 then
      Types.error "pbtree-check: keyless internal root %#x" n;
    let prev = ref None in
    for i = 0 to k - 1 do
      let tag = Rvm.get_u8 t.rvm ~addr:(key_slot t n i) in
      if tag > inline_max && tag <> overflow_tag then
        Types.error "pbtree-check: bad key length %d in %#x" tag n;
      Option.iter
        (fun c ->
          if Hashtbl.mem cells c then
            Types.error "pbtree-check: overflow cell %#x in two slots" c;
          Hashtbl.add cells c ();
          let len = getw t c in
          if len <= inline_max || Rds.usable_size t.heap c < 8 + len then
            Types.error "pbtree-check: bad overflow cell %#x" c)
        (overflow_cell t n i);
      let key = node_key t n i in
      if not (in_bounds ~lo ~hi key) then
        Types.error "pbtree-check: key out of bounds in %#x" n;
      (match !prev with
      | Some p when compare p key >= 0 ->
        Types.error "pbtree-check: keys not strictly increasing in %#x" n
      | _ -> ());
      prev := Some key
    done;
    if kind = leaf_kind then begin
      (* Every value cell is a live block of its own whose length word fits
         it: a rewrite in place must never run past its cell. *)
      for i = 0 to k - 1 do
        let c = ptr t n i in
        if Hashtbl.mem cells c then
          Types.error "pbtree-check: value cell %#x in two slots" c;
        Hashtbl.add cells c ();
        let len = getw t c in
        if len < 0 || Rds.usable_size t.heap c < 8 + len then
          Types.error "pbtree-check: value cell %#x holds %d bytes, past its \
                       block" c len
      done;
      if !leaf_depth = -1 then leaf_depth := depth
      else if !leaf_depth <> depth then
        Types.error "pbtree-check: leaf %#x at depth %d, expected %d" n depth
          !leaf_depth;
      count := !count + k;
      leaves := n :: !leaves
    end
    else
      for i = 0 to k do
        let c = ptr t n i in
        if c = 0 then Types.error "pbtree-check: null child %d of %#x" i n;
        let clo = if i = 0 then lo else Some (node_key t n (i - 1)) in
        let chi = if i = k then hi else Some (node_key t n i) in
        walk c ~lo:clo ~hi:chi ~depth:(depth + 1) ~at_root:false
      done
  in
  walk (root t) ~lo:None ~hi:None ~depth:0 ~at_root:true;
  if !count <> length t then
    Types.error "pbtree-check: count %d but %d keys reachable" (length t) !count;
  (* The next-leaf chain must thread the leaves exactly in key order. *)
  let rec chain = function
    | a :: (b :: _ as rest) ->
      if next_leaf t a <> b then
        Types.error "pbtree-check: leaf chain broken at %#x" a;
      chain rest
    | [ last ] ->
      if next_leaf t last <> 0 then
        Types.error "pbtree-check: rightmost leaf %#x has a successor" last
    | [] -> ()
  in
  chain (List.rev !leaves)
