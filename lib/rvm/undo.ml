module Bytebuf = Rvm_util.Bytebuf

type t = {
  old : Bytebuf.t;  (* the entries' old values, end to end *)
  mutable regions : Region.t array;
  mutable fields : int array;
      (* entry [i]'s start in [old], region offset and length at
         [3i], [3i + 1] and [3i + 2] *)
  mutable n : int;
  mutable epoch : int;  (* its pool's epoch when it was taken *)
}

let create () =
  { old = Bytebuf.create (); regions = [||]; fields = [||]; n = 0; epoch = 0 }

let empty = create ()

(* Room for one more entry: the arrays double, so a transaction's saves
   cost amortized constant work and a reused arena none at all. *)
let reserve t (region : Region.t) =
  if t.n = Array.length t.regions then begin
    let cap = max 8 (2 * t.n) in
    let regions = Array.make cap region in
    Array.blit t.regions 0 regions 0 t.n;
    t.regions <- regions;
    let fields = Array.make (3 * cap) 0 in
    Array.blit t.fields 0 fields 0 (3 * t.n);
    t.fields <- fields
  end

let save t (region : Region.t) ~region_off ~len =
  reserve t region;
  let i = t.n in
  t.regions.(i) <- region;
  t.fields.(3 * i) <- Bytebuf.length t.old;
  t.fields.((3 * i) + 1) <- region_off;
  t.fields.((3 * i) + 2) <- len;
  Bytebuf.bytes t.old region.Region.buf ~pos:region_off ~len;
  t.n <- i + 1

let count t = t.n

let check t i = if i < 0 || i >= t.n then invalid_arg "Undo: entry index"

let region t i =
  check t i;
  t.regions.(i)

let region_off t i =
  check t i;
  t.fields.((3 * i) + 1)

let length t i =
  check t i;
  t.fields.((3 * i) + 2)

let restore t i =
  check t i;
  Bytebuf.blit_range t.old ~src_pos:t.fields.(3 * i) t.regions.(i).Region.buf
    ~dst_pos:t.fields.((3 * i) + 1)
    ~len:t.fields.((3 * i) + 2)

(* Slots of [free] past [n_free] hold [empty], so the pool keeps no
   arena it has handed out; [give] may drop one. *)
type pool = { mutable free : t array; mutable n_free : int; mutable epoch : int }

let pool () = { free = [||]; n_free = 0; epoch = 0 }

let take (p : pool) =
  let t =
    if p.n_free = 0 then create ()
    else begin
      p.n_free <- p.n_free - 1;
      let t = p.free.(p.n_free) in
      p.free.(p.n_free) <- empty;
      t
    end
  in
  t.epoch <- p.epoch;
  t

(* The most an arena may hold and still be pooled: a transaction that
   saved more gives its storage back to the heap. *)
let max_pooled_bytes = 65536
let max_pooled_entries = 1024

let give p (t : t) =
  let keep =
    t.epoch = p.epoch
    && Bytebuf.length t.old <= max_pooled_bytes
    && Array.length t.regions <= max_pooled_entries
  in
  Bytebuf.clear t.old;
  t.n <- 0;
  if keep then begin
    if p.n_free = Array.length p.free then begin
      let free = Array.make (max 4 (2 * p.n_free)) empty in
      Array.blit p.free 0 free 0 p.n_free;
      p.free <- free
    end;
    p.free.(p.n_free) <- t;
    p.n_free <- p.n_free + 1
  end

let drain p =
  p.free <- [||];
  p.n_free <- 0;
  p.epoch <- p.epoch + 1
