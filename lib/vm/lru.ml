(* A circular doubly linked list through a sentinel: [sentinel.next] is
   the most recently used node and [sentinel.prev] the least, so moving a
   node to the front rewires four fields and allocates nothing. *)
type node = { key : int; mutable prev : node; mutable next : node }

type t = { table : (int, node) Hashtbl.t; sentinel : node }

let create () =
  let rec sentinel = { key = min_int; prev = sentinel; next = sentinel } in
  { table = Hashtbl.create 1024; sentinel }

let mem t k = Hashtbl.mem t.table k
let size t = Hashtbl.length t.table

let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev

let push_front t n =
  let s = t.sentinel in
  n.prev <- s;
  n.next <- s.next;
  s.next.prev <- n;
  s.next <- n

let touch t k =
  match Hashtbl.find t.table k with
  | n ->
    unlink n;
    push_front t n
  | exception Not_found ->
    let s = t.sentinel in
    let n = { key = k; prev = s; next = s } in
    Hashtbl.add t.table k n;
    push_front t n

let remove t k =
  match Hashtbl.find t.table k with
  | n ->
    unlink n;
    Hashtbl.remove t.table k
  | exception Not_found -> ()

let evict_lru t =
  let n = t.sentinel.prev in
  if n == t.sentinel then None
  else begin
    unlink n;
    Hashtbl.remove t.table n.key;
    Some n.key
  end

let peek_lru t =
  let n = t.sentinel.prev in
  if n == t.sentinel then None else Some n.key

let to_list_mru_first t =
  let rec walk acc n =
    if n == t.sentinel then List.rev acc else walk (n.key :: acc) n.next
  in
  walk [] t.sentinel.next
