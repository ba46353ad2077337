type status = Active | Committed | Aborted

type saved = { region : Region.t; region_off : int; old_value : Bytes.t }

type per_region = {
  region : Region.t;
  mutable covered : Rvm_util.Intervals.t;
  mutable raw_calls : (int * int) list;  (* newest first *)
  mutable naive_bytes : int;
}

type t = {
  tid : int;
  mode : Types.restore_mode;
  started_us : int;
  mutable status : status;
  mutable regions : per_region list;
  mutable saved : saved list;
}

let create ~tid ~mode ~started_us =
  { tid; mode; started_us; status = Active; regions = []; saved = [] }

let rec find vaddr = function
  | [] -> None
  | pr :: rest ->
    if pr.region.Region.vaddr = vaddr then Some pr else find vaddr rest

let rec insert pr = function
  | p :: rest when p.region.Region.vaddr < pr.region.Region.vaddr ->
    p :: insert pr rest
  | l -> pr :: l

let per_region t (region : Region.t) =
  match find region.Region.vaddr t.regions with
  | Some pr -> pr
  | None ->
    let pr =
      { region; covered = Rvm_util.Intervals.empty; raw_calls = [];
        naive_bytes = 0 }
    in
    t.regions <- insert pr t.regions;
    pr

let regions t = t.regions
let is_active t = t.status = Active
