module Types = Rvm_core.Types
module Rng = Rvm_util.Rng

type range = int * int * char

type op =
  | Commit of { ranges : range list; mode : Types.commit_mode }
  | Abort of range list
  | Flush
  | Truncate
  | Step of int

let max_range_len = 300

let gen_range ~rng ~region_len =
  let len = 1 + Rng.int rng max_range_len in
  let off = Rng.int rng (region_len - len) in
  let c = Char.chr (65 + Rng.int rng 26) in
  (off, len, c)

let gen_ranges ~rng ~region_len ~n =
  List.init (1 + Rng.int rng n) (fun _ -> gen_range ~rng ~region_len)

let generate ?(mid_truncation = false) ~rng ~ops ~region_len () =
  if region_len <= max_range_len then
    invalid_arg "Workload.generate: region too small";
  List.init ops (fun _ ->
      match Rng.int rng 10 with
      | 0 | 1 | 2 | 3 ->
        Commit
          {
            ranges = gen_ranges ~rng ~region_len ~n:4;
            mode = (if Rng.bool rng then Types.Flush else Types.No_flush);
          }
      | 4 | 5 ->
        Commit { ranges = gen_ranges ~rng ~region_len ~n:4; mode = Types.Flush }
      | 6 | 7 -> Abort (gen_ranges ~rng ~region_len ~n:3)
      | 8 -> Flush
      | _ ->
        (* Mid-truncation workloads mostly spend a few bounded background
           steps instead of a full truncation, leaving the state machine
           suspended so the next commits interleave with a live run. *)
        if mid_truncation && Rng.int rng 4 > 0 then Step (1 + Rng.int rng 3)
        else Truncate)

let range_to_string (off, len, c) = Printf.sprintf "%d+%d'%c'" off len c

let op_to_string = function
  | Commit { ranges; mode } ->
    Printf.sprintf "Commit[%s]%s"
      (String.concat ";" (List.map range_to_string ranges))
      (match mode with Types.Flush -> "!" | Types.No_flush -> "~")
  | Abort ranges ->
    Printf.sprintf "Abort[%s]" (String.concat ";" (List.map range_to_string ranges))
  | Flush -> "Flush"
  | Truncate -> "Truncate"
  | Step n -> Printf.sprintf "Step%d" n

let to_string ops = String.concat " " (List.map op_to_string ops)
