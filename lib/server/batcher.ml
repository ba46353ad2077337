type 'a t = {
  max : int;
  mutable ready : 'a list;  (* newest first *)
  mutable count : int;  (* commits since the batch opened, slotted or not *)
}

let create ~max =
  if max <= 0 then invalid_arg "Batcher.create: max";
  { max; ready = []; count = 0 }

let max_size t = t.max
let size t = List.length t.ready
let is_empty t = t.count = 0
let full t = t.count >= t.max

let add t x =
  if full t then invalid_arg "Batcher.add: batch full";
  t.ready <- x :: t.ready;
  t.count <- t.count + 1

let note t =
  if full t then invalid_arg "Batcher.note: batch full";
  t.count <- t.count + 1

let take t =
  let xs = List.rev t.ready in
  t.ready <- [];
  t.count <- 0;
  xs
