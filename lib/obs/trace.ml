type value =
  | Bool of bool
  | Int of int
  | Float of float
  | String of string

type span = {
  id : int;
  parent : int option;
  scope : string;
  start_us : float;
  dur_us : float;
  attrs : (string * value) list;
}

(* Attributes stored column-wise, in insertion order: attribute [a] is
   key [keys.(a)] with an int ([kinds] 'i', in [ints]), a string ('s', in
   [strs]) or a value that already exists ('v', in [vals]). Setting one
   writes an int and pointers, never a list cell or a box. *)
type attrs = {
  keys : string array;
  kinds : Bytes.t;
  ints : int array;
  strs : string array;
  vals : value array;
}

let attr_store n =
  {
    keys = Array.make n "";
    kinds = Bytes.make n 'v';
    ints = Array.make n 0;
    strs = Array.make n "";
    vals = Array.make n (Bool false);
  }

let copy_attr src i dst j =
  dst.keys.(j) <- src.keys.(i);
  let kind = Bytes.get src.kinds i in
  Bytes.set dst.kinds j kind;
  match kind with
  | 'i' -> dst.ints.(j) <- src.ints.(i)
  | 's' -> dst.strs.(j) <- src.strs.(i)
  | _ -> dst.vals.(j) <- src.vals.(i)

let attr_at a i =
  ( a.keys.(i),
    match Bytes.get a.kinds i with
    | 'i' -> Int a.ints.(i)
    | 's' -> String a.strs.(i)
    | _ -> a.vals.(i) )

(* Spans stored column-wise: recording one writes ints, unboxed floats and
   pointers to values that already exist, never a fresh record, so the
   minor GC finds nothing young in the ring to promote. A [span] is built
   only when one is read back. A span's attributes are [acount] entries of
   an attribute store from [afirst] on. *)
type cols = {
  ids : int array;
  parents : int array;  (* 0 = root *)
  scopes : string array;
  starts : float array;
  durs : float array;
  afirst : int array;
  acount : int array;
}

let cols n =
  {
    ids = Array.make n 0;
    parents = Array.make n 0;
    scopes = Array.make n "";
    starts = Array.make n 0.;
    durs = Array.make n 0.;
    afirst = Array.make n 0;
    acount = Array.make n 0;
  }

let copy_slot src i dst j =
  dst.ids.(j) <- src.ids.(i);
  dst.parents.(j) <- src.parents.(i);
  dst.scopes.(j) <- src.scopes.(i);
  dst.starts.(j) <- src.starts.(i);
  dst.durs.(j) <- src.durs.(i);
  dst.afirst.(j) <- src.afirst.(i);
  dst.acount.(j) <- src.acount.(i)

(* The ring is a power-agnostic circular buffer indexed by global
   sequence number: span [g] sits at slot [g mod cap], so the retained
   window is always [seq - len, seq) in insertion order and readers never
   re-sort anything. Its attributes live in a second circular store
   indexed by global attribute number ([afirst] holds one), which grows
   when the retained spans' attributes would not fit. The open spans form
   a stack in the same layout, innermost at [depth - 1]; only the
   innermost takes attributes, so theirs form a stack too, the innermost
   span's last. *)
type t = {
  mutable ring : cols;
  mutable ring_attrs : attrs;
  mutable cap : int;
  mutable len : int;  (* retained spans, <= cap *)
  mutable seq : int;  (* spans ever finished (recorded or not) *)
  mutable aseq : int;  (* attributes ever recorded in the ring *)
  mutable next_id : int;
  mutable stack : cols;
  mutable stack_attrs : attrs;
  mutable depth : int;
}

let create ?(capacity = 0) () =
  let capacity = max capacity 0 in
  {
    ring = cols capacity;
    ring_attrs = attr_store capacity;
    cap = capacity;
    len = 0;
    seq = 0;
    aseq = 0;
    next_id = 1;
    stack = cols 8;
    stack_attrs = attr_store 16;
    depth = 0;
  }

let capacity t = t.cap
let seq t = t.seq
let length t = t.len
let depth t = t.depth

(* Global number of the first attribute of the oldest of the newest
   [keep] retained spans: attributes below it are free. *)
let attrs_from t keep =
  if keep = 0 then t.aseq else t.ring.afirst.((t.seq - keep) mod t.cap)

(* A store of [n] attributes holding [t]'s ring attributes [lo, aseq). *)
let ring_attrs_from t lo n =
  let a = attr_store n and old = t.ring_attrs in
  for g = lo to t.aseq - 1 do
    copy_attr old (g mod Array.length old.keys) a (g mod n)
  done;
  a

let set_capacity t n =
  let n = max n 0 in
  let keep = min t.len n in
  let ring = cols n in
  for i = 0 to keep - 1 do
    let g = t.seq - keep + i in
    copy_slot t.ring (g mod t.cap) ring (g mod n)
  done;
  let lo = attrs_from t keep in
  t.ring_attrs <- ring_attrs_from t lo (max n (t.aseq - lo));
  t.ring <- ring;
  t.cap <- n;
  t.len <- keep

let innermost t = if t.depth = 0 then 0 else t.stack.ids.(t.depth - 1)
let current t = match innermost t with 0 -> None | id -> Some id

(* Attributes [first, g] of store [a], consed onto [acc]. *)
let rec attr_list a ~first g acc =
  if g < first then acc
  else
    attr_list a ~first (g - 1) (attr_at a (g mod Array.length a.keys) :: acc)

let span_of c a i =
  {
    id = c.ids.(i);
    parent = (match c.parents.(i) with 0 -> None | p -> Some p);
    scope = c.scopes.(i);
    start_us = c.starts.(i);
    dur_us = c.durs.(i);
    attrs =
      attr_list a ~first:c.afirst.(i) (c.afirst.(i) + c.acount.(i) - 1) [];
  }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

(* Append attribute [key] of [kind] to the innermost open span's and
   return its index, or -1 when no span is open; the caller stores the
   payload. *)
let attr_slot t key kind =
  if t.depth = 0 then -1
  else begin
    let s = t.stack and d = t.depth - 1 in
    let i = s.afirst.(d) + s.acount.(d) in
    let a = t.stack_attrs in
    if i = Array.length a.keys then begin
      let b = attr_store (2 * i) in
      for j = 0 to i - 1 do
        copy_attr a j b j
      done;
      t.stack_attrs <- b
    end;
    s.acount.(d) <- s.acount.(d) + 1;
    t.stack_attrs.keys.(i) <- key;
    Bytes.set t.stack_attrs.kinds i kind;
    i
  end

let add_attr t key v =
  let i = attr_slot t key 'v' in
  if i >= 0 then t.stack_attrs.vals.(i) <- v

let add_int t key n =
  let i = attr_slot t key 'i' in
  if i >= 0 then t.stack_attrs.ints.(i) <- n

let add_string t key s =
  let i = attr_slot t key 's' in
  if i >= 0 then t.stack_attrs.strs.(i) <- s

let rec add_attrs t = function
  | [] -> ()
  | (key, v) :: rest ->
    add_attr t key v;
    add_attrs t rest

let enter t ~now ?(attrs = []) scope =
  if t.depth = Array.length t.stack.ids then begin
    let s = cols (2 * t.depth) in
    for i = 0 to t.depth - 1 do
      copy_slot t.stack i s i
    done;
    t.stack <- s
  end;
  let s = t.stack and d = t.depth in
  s.parents.(d) <- innermost t;
  s.ids.(d) <- fresh_id t;
  s.scopes.(d) <- scope;
  s.starts.(d) <- now;
  s.afirst.(d) <- (if d = 0 then 0 else s.afirst.(d - 1) + s.acount.(d - 1));
  s.acount.(d) <- 0;
  t.depth <- d + 1;
  add_attrs t attrs

(* Copy stack slot [d], duration set, into the ring. The span it
   replaces when the ring is full frees its attributes first; the
   attribute store doubles when the retained ones and the new ones would
   not fit. *)
let record t d =
  let s = t.stack and slot = t.seq mod t.cap in
  let n = s.acount.(d) in
  let lo = attrs_from t (min t.len (t.cap - 1)) in
  let acap = Array.length t.ring_attrs.keys in
  if t.aseq + n - lo > acap then
    t.ring_attrs <- ring_attrs_from t lo (max (2 * acap) (t.aseq + n - lo));
  copy_slot s d t.ring slot;
  t.ring.afirst.(slot) <- t.aseq;
  let ra = t.ring_attrs in
  let acap = Array.length ra.keys in
  for k = 0 to n - 1 do
    copy_attr t.stack_attrs (s.afirst.(d) + k) ra ((t.aseq + k) mod acap)
  done;
  t.aseq <- t.aseq + n;
  if t.len < t.cap then t.len <- t.len + 1

(* Pop the innermost open span, its duration already set, and record it.
   Its stack slot stays readable until the next [enter] or attribute. *)
let finish t d =
  t.depth <- d;
  if t.cap > 0 then record t d;
  t.seq <- t.seq + 1

let innermost_slot t =
  if t.depth = 0 then invalid_arg "Trace.exit: no open span";
  t.depth - 1

let pop t ~now =
  let d = innermost_slot t in
  t.stack.durs.(d) <- now -. t.stack.starts.(d);
  finish t d;
  d

let exit t ~now = span_of t.stack t.stack_attrs (pop t ~now)
let close t ~now = t.stack.durs.(pop t ~now)

let close_instant t =
  let d = innermost_slot t in
  t.stack.durs.(d) <- 0.;
  finish t d

let instant t ~now ?attrs scope =
  enter t ~now ?attrs scope;
  close_instant t

let events_since t since =
  let lo = max since (t.seq - t.len) in
  let acc = ref [] in
  for g = t.seq - 1 downto lo do
    acc := span_of t.ring t.ring_attrs (g mod t.cap) :: !acc
  done;
  (!acc, t.seq)

let events t = fst (events_since t 0)

let clear t = t.len <- 0

let pp_value ppf = function
  | Bool b -> Format.pp_print_bool ppf b
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.fprintf ppf "%g" f
  | String s -> Format.pp_print_string ppf s

let pp_span ppf s =
  Format.fprintf ppf "#%d" s.id;
  (match s.parent with
  | Some p -> Format.fprintf ppf "<#%d" p
  | None -> ());
  Format.fprintf ppf " %s @%.1f +%.1fus" s.scope s.start_us s.dur_us;
  List.iter (fun (k, v) -> Format.fprintf ppf " %s=%a" k pp_value v) s.attrs
