module Types = Rvm_core.Types
module Rng = Rvm_util.Rng

type range = int * int * char

type op =
  | Commit of { shard : int; ranges : range list; mode : Types.commit_mode }
  | Cross of { parts : (int * range list) list; mode : Types.commit_mode }
  | Abort of (int * range list) list
  | Flush
  | Truncate
  | Step of int

let region_len = 2 * 4096
let max_cross_per_workload = 6

let gen_ranges ~rng ~max_len ~n =
  List.init
    (1 + Rng.int rng n)
    (fun _ ->
      let len = 1 + Rng.int rng max_len in
      let off = Rng.int rng (region_len - len) in
      (off, len, Char.chr (65 + Rng.int rng 26)))

(* Every seed keeps the op sequence it drew before the two streams shared
   one op type. OCaml evaluates record fields in no promised order, so the
   draws stay inline in each record, in the fields' declared order. *)
let generate ?(mid_truncation = false) ~rng ~ops ~shards () =
  if shards < 1 then invalid_arg "Workload.generate: shards must be >= 1";
  let mode () = if Rng.bool rng then Types.Flush else Types.No_flush in
  (* Mid-truncation workloads mostly spend a few bounded background steps
     instead of a full truncation, leaving the state machine suspended so
     the next commits interleave with a live run. *)
  let truncation () =
    if mid_truncation && Rng.int rng 4 > 0 then Step (1 + Rng.int rng 3)
    else Truncate
  in
  if shards = 1 then
    List.init ops (fun _ ->
        match Rng.int rng 10 with
        | 0 | 1 | 2 | 3 ->
          Commit
            {
              shard = 0;
              ranges = gen_ranges ~rng ~max_len:300 ~n:4;
              mode = mode ();
            }
        | 4 | 5 ->
          Commit
            {
              shard = 0;
              ranges = gen_ranges ~rng ~max_len:300 ~n:4;
              mode = Types.Flush;
            }
        | 6 | 7 -> Abort [ (0, gen_ranges ~rng ~max_len:300 ~n:3) ]
        | 8 -> Flush
        | _ -> truncation ())
  else begin
    let crosses = ref 0 in
    List.init ops (fun _ ->
        let roll = Rng.int rng 10 in
        if roll <= 2 then
          Commit
            {
              shard = Rng.int rng shards;
              ranges = gen_ranges ~rng ~max_len:120 ~n:3;
              mode = mode ();
            }
        else if roll <= 6 && !crosses < max_cross_per_workload then begin
          incr crosses;
          let k = 2 + Rng.int rng (shards - 1) in
          let all = Array.init shards Fun.id in
          Rng.shuffle rng all;
          let parts =
            List.sort compare
              (List.init k (fun i ->
                   (all.(i), gen_ranges ~rng ~max_len:120 ~n:2)))
          in
          Cross { parts; mode = mode () }
        end
        else if roll <= 8 then Flush
        else truncation ())
  end

let range_to_string (off, len, c) = Printf.sprintf "%d+%d'%c'" off len c
let ranges_to_string rs = String.concat ";" (List.map range_to_string rs)

let parts_to_string parts =
  String.concat "|"
    (List.map
       (fun (s, rs) -> Printf.sprintf "%d:[%s]" s (ranges_to_string rs))
       parts)

let mode_to_string = function Types.Flush -> "!" | Types.No_flush -> "~"

let op_to_string = function
  | Commit { shard; ranges; mode } ->
    Printf.sprintf "Commit@%d[%s]%s" shard (ranges_to_string ranges)
      (mode_to_string mode)
  | Cross { parts; mode } ->
    Printf.sprintf "Cross{%s}%s" (parts_to_string parts) (mode_to_string mode)
  | Abort parts -> Printf.sprintf "Abort{%s}" (parts_to_string parts)
  | Flush -> "Flush"
  | Truncate -> "Truncate"
  | Step n -> Printf.sprintf "Step%d" n

let to_string ops = String.concat " " (List.map op_to_string ops)
