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

(* Spans stored column-wise: recording one writes ints, unboxed floats and
   pointers to values that already exist, never a fresh record, so the
   minor GC finds nothing young in the ring to promote. A [span] is built
   only when one is read back. *)
type cols = {
  ids : int array;
  parents : int array;  (* 0 = root *)
  scopes : string array;
  starts : float array;
  durs : float array;
  attrs : (string * value) list array;  (* newest first *)
}

let cols n =
  {
    ids = Array.make n 0;
    parents = Array.make n 0;
    scopes = Array.make n "";
    starts = Array.make n 0.;
    durs = Array.make n 0.;
    attrs = Array.make n [];
  }

let copy_slot src i dst j =
  dst.ids.(j) <- src.ids.(i);
  dst.parents.(j) <- src.parents.(i);
  dst.scopes.(j) <- src.scopes.(i);
  dst.starts.(j) <- src.starts.(i);
  dst.durs.(j) <- src.durs.(i);
  dst.attrs.(j) <- src.attrs.(i)

(* The ring is a power-agnostic circular buffer indexed by global
   sequence number: span [g] sits at slot [g mod cap], so the retained
   window is always [seq - len, seq) in insertion order and readers never
   re-sort anything. The open spans form a stack in the same layout,
   innermost at [depth - 1]. *)
type t = {
  mutable ring : cols;
  mutable cap : int;
  mutable len : int;  (* retained spans, <= cap *)
  mutable seq : int;  (* spans ever finished (recorded or not) *)
  mutable next_id : int;
  mutable stack : cols;
  mutable depth : int;
}

let create ?(capacity = 0) () =
  let capacity = max capacity 0 in
  {
    ring = cols capacity;
    cap = capacity;
    len = 0;
    seq = 0;
    next_id = 1;
    stack = cols 8;
    depth = 0;
  }

let capacity t = t.cap
let seq t = t.seq
let length t = t.len
let depth t = t.depth

let set_capacity t n =
  let n = max n 0 in
  let keep = min t.len n in
  let ring = cols n in
  for i = 0 to keep - 1 do
    let g = t.seq - keep + i in
    copy_slot t.ring (g mod t.cap) ring (g mod n)
  done;
  t.ring <- ring;
  t.cap <- n;
  t.len <- keep

let innermost t = if t.depth = 0 then 0 else t.stack.ids.(t.depth - 1)
let current t = match innermost t with 0 -> None | id -> Some id

let span_of c i =
  {
    id = c.ids.(i);
    parent = (match c.parents.(i) with 0 -> None | p -> Some p);
    scope = c.scopes.(i);
    start_us = c.starts.(i);
    dur_us = c.durs.(i);
    attrs = List.rev c.attrs.(i);
  }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

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
  s.attrs.(d) <- List.rev attrs;
  t.depth <- d + 1

let add_attr t key v =
  if t.depth > 0 then begin
    let s = t.stack and d = t.depth - 1 in
    s.attrs.(d) <- (key, v) :: s.attrs.(d)
  end

(* Pop the innermost open span, record it, and return its stack slot,
   which stays readable until the next [enter]. *)
let pop t ~now =
  if t.depth = 0 then invalid_arg "Trace.exit: no open span";
  let s = t.stack and d = t.depth - 1 in
  t.depth <- d;
  s.durs.(d) <- now -. s.starts.(d);
  if t.cap > 0 then begin
    copy_slot s d t.ring (t.seq mod t.cap);
    if t.len < t.cap then t.len <- t.len + 1
  end;
  t.seq <- t.seq + 1;
  d

let exit t ~now = span_of t.stack (pop t ~now)
let close t ~now = t.stack.durs.(pop t ~now)

let instant t ~now ?attrs scope =
  enter t ~now ?attrs scope;
  ignore (pop t ~now)

let events_since t since =
  let lo = max since (t.seq - t.len) in
  let acc = ref [] in
  for g = t.seq - 1 downto lo do
    acc := span_of t.ring (g mod t.cap) :: !acc
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
