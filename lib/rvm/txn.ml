type status = Active | Committed | Aborted

type per_region = {
  region : Region.t;
  covered : Rvm_util.Intervals.t;
  mutable calls : int array;
  mutable call_count : int;
  mutable call_bytes : int;
}

type t = {
  tid : int;
  mode : Types.restore_mode;
  started_us : int;
  per_call : bool;
  mutable status : status;
  mutable regions : per_region list;
  undo : Undo.t;
}

let create ~tid ~mode ~started_us ~per_call ~undo =
  { tid; mode; started_us; per_call; status = Active; regions = []; undo }

let rec insert pr = function
  | p :: rest when p.region.Region.vaddr < pr.region.Region.vaddr ->
    p :: insert pr rest
  | l -> pr :: l

let rec per_region_in t (region : Region.t) = function
  | pr :: rest ->
    if pr.region.Region.vaddr = region.Region.vaddr then pr
    else per_region_in t region rest
  | [] ->
    let pr =
      { region; covered = Rvm_util.Intervals.create (); calls = [||];
        call_count = 0; call_bytes = 0 }
    in
    t.regions <- insert pr t.regions;
    pr

let per_region t region = per_region_in t region t.regions

let add_call t pr ~region_off ~len =
  let k = pr.call_count in
  if t.per_call then begin
    if 2 * (k + 1) > Array.length pr.calls then begin
      let calls = Array.make (max 8 (2 * Array.length pr.calls)) 0 in
      Array.blit pr.calls 0 calls 0 (2 * k);
      pr.calls <- calls
    end;
    pr.calls.(2 * k) <- region_off;
    pr.calls.((2 * k) + 1) <- len
  end;
  pr.call_count <- k + 1;
  pr.call_bytes <- pr.call_bytes + len

let naive_bytes pr = (32 * pr.call_count) + pr.call_bytes

let regions t = t.regions
let is_active t = t.status = Active
