module Rvm = Rvm_core.Rvm
module Multi = Rvm_shard.Multi
module Routing = Rvm_shard.Routing
module Types = Rvm_core.Types

type t = {
  begin_txn : mode:Types.restore_mode -> int;
  set_range : int -> addr:int -> len:int -> unit;
  load : addr:int -> len:int -> Bytes.t;
  store : addr:int -> Bytes.t -> unit;
  crosses : int -> bool;
  end_txn : int -> mode:Types.commit_mode -> unit;
  abort : int -> unit;
  flush : unit -> unit;
  commit_lsn : unit -> int;
  durable_lsn : unit -> int;
  log_occupancy : unit -> float;
  truncation_step : unit -> [ `Progress | `Blocked | `Idle ];
  truncation_due : unit -> bool;
  truncation_urgent : unit -> bool;
  truncate : unit -> unit;
  shards : int;  (* 1 for the single-log engine *)
}

let of_rvm rvm =
  {
    begin_txn = (fun ~mode -> Rvm.begin_transaction rvm ~mode);
    set_range = (fun tid ~addr ~len -> Rvm.set_range rvm tid ~addr ~len);
    load = (fun ~addr ~len -> Rvm.load rvm ~addr ~len);
    store = (fun ~addr b -> Rvm.store rvm ~addr b);
    crosses = (fun _ -> false);
    end_txn = (fun tid ~mode -> Rvm.end_transaction rvm tid ~mode);
    abort = (fun tid -> Rvm.abort_transaction rvm tid);
    flush = (fun () -> Rvm.flush rvm);
    commit_lsn = (fun () -> Rvm.commit_lsn rvm);
    durable_lsn = (fun () -> Rvm.durable_lsn rvm);
    log_occupancy = (fun () -> Rvm.log_occupancy rvm);
    truncation_step = (fun () -> Rvm.truncation_step rvm);
    truncation_due = (fun () -> Rvm.truncation_due rvm);
    truncation_urgent = (fun () -> Rvm.truncation_urgent rvm);
    truncate = (fun () -> Rvm.truncate rvm);
    shards = 1;
  }

(* The sharded engine already models one simulated worker core per shard
   (see {!Multi}): per-shard work runs on that shard's {!Clock.lane} and
   callers only block where the protocol demands — so this wrapper is
   plain delegation, like [of_rvm]. *)
let of_multi m =
  {
    begin_txn = (fun ~mode -> Multi.begin_transaction m ~mode);
    set_range = (fun tid ~addr ~len -> Multi.set_range m tid ~addr ~len);
    load = (fun ~addr ~len -> Multi.load m ~addr ~len);
    store = (fun ~addr b -> Multi.store m ~addr b);
    crosses =
      (fun tid ->
        match Multi.touched_shards m tid with _ :: _ :: _ -> true | _ -> false);
    end_txn = (fun tid ~mode -> Multi.end_transaction m tid ~mode);
    abort = (fun tid -> Multi.abort_transaction m tid);
    flush = (fun () -> Multi.flush m);
    commit_lsn = (fun () -> Multi.commit_lsn m);
    durable_lsn = (fun () -> Multi.durable_lsn m);
    log_occupancy = (fun () -> Multi.log_occupancy m);
    truncation_step = (fun () -> Multi.truncation_step m);
    truncation_due = (fun () -> Multi.truncation_due m);
    truncation_urgent = (fun () -> Multi.truncation_urgent m);
    truncate = (fun () -> Multi.truncate m);
    shards = Multi.shard_count m;
  }

type backend = Single of Rvm.t | Sharded of Multi.t

(* Shard s's data is segment s + 1: segment ids start at 1. *)
let seg_of_shard s = s + 1

let initialize ?options ?clock ?obs ~logs ~segs () =
  let n = Array.length logs in
  if Array.length segs <> n then
    invalid_arg
      (Printf.sprintf "Engine.initialize: %d logs but %d segments" n
         (Array.length segs));
  let routing =
    Routing.of_table ~shards:n (List.init n (fun s -> (seg_of_shard s, s)))
  in
  let resolve seg = segs.(Routing.shard_of routing ~seg) in
  match logs with
  | [| log |] ->
    let rvm = Rvm.initialize ?options ?clock ?obs ~log ~resolve () in
    (of_rvm rvm, Single rvm)
  | _ ->
    let m = Multi.initialize ?options ?clock ?obs ~routing ~logs ~resolve () in
    (of_multi m, Sharded m)

let map backend ?vaddr ~shard ~seg_off ~len () =
  let seg = seg_of_shard shard in
  match backend with
  | Single rvm -> Rvm.map rvm ?vaddr ~seg ~seg_off ~len ()
  | Sharded m -> Multi.map m ?vaddr ~seg ~seg_off ~len ()
