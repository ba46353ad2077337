type t = {
  reserved : Bytes.t;  (* one byte per page *)
  uncommitted : int array;
  mutable uncommitted_total : int;
}

let create ~pages =
  {
    reserved = Bytes.make pages '\000';
    uncommitted = Array.make pages 0;
    uncommitted_total = 0;
  }

let pages t = Array.length t.uncommitted
let uncommitted t p = t.uncommitted.(p)

let incr_uncommitted t p =
  t.uncommitted.(p) <- t.uncommitted.(p) + 1;
  t.uncommitted_total <- t.uncommitted_total + 1

let decr_uncommitted t p =
  if t.uncommitted.(p) = 0 then
    invalid_arg "Page_table.decr_uncommitted: underflow";
  t.uncommitted.(p) <- t.uncommitted.(p) - 1;
  t.uncommitted_total <- t.uncommitted_total - 1

let reserved t p = Bytes.get t.reserved p <> '\000'

let reserve t p =
  if reserved t p then false
  else begin
    Bytes.set t.reserved p '\001';
    true
  end

let release t p = Bytes.set t.reserved p '\000'

let any_uncommitted t = t.uncommitted_total > 0
