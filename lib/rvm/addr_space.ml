module M = Map.Make (Int)

type t = {
  page_size : int;
  mutable by_vaddr : Region.t M.t;
  mutable ordered : Region.t list;
      (* [by_vaddr]'s regions in order, rebuilt on map and unmap so every
         drained record's page bookkeeping and every lookup miss reads it
         without allocating *)
  mutable last : Region.t option;
      (* the region the last lookup found, checked first by the next; reset
         on map and unmap, so it is always a mapped region *)
}

let create ~page_size =
  { page_size; by_vaddr = M.empty; ordered = []; last = None }

let page_size t = t.page_size

let set t by_vaddr =
  t.by_vaddr <- by_vaddr;
  t.ordered <- List.map snd (M.bindings by_vaddr);
  t.last <- None

let overlaps a_lo a_len b_lo b_len = a_lo < b_lo + b_len && b_lo < a_lo + a_len

let check_free t ~vaddr ~len =
  M.iter
    (fun _ (q : Region.t) ->
      if overlaps vaddr len q.Region.vaddr q.Region.length then
        Types.error "map: [%#x, %#x) overlaps existing mapping at %#x" vaddr
          (vaddr + len) q.Region.vaddr)
    t.by_vaddr

let add t (r : Region.t) =
  if not (Rvm_vm.Page.is_aligned ~page_size:t.page_size r.Region.vaddr) then
    Types.error "map: virtual address %#x is not page-aligned" r.Region.vaddr;
  if not (Rvm_vm.Page.is_aligned ~page_size:t.page_size r.Region.seg_off) then
    Types.error "map: segment offset %d is not page-aligned" r.Region.seg_off;
  if r.Region.length <= 0 then Types.error "map: empty region";
  if r.Region.length mod t.page_size <> 0 then
    Types.error "map: length %d is not a multiple of the page size"
      r.Region.length;
  check_free t ~vaddr:r.Region.vaddr ~len:r.Region.length;
  M.iter
    (fun _ (q : Region.t) ->
      if
        Segment.id q.Region.seg = Segment.id r.Region.seg
        && overlaps r.Region.seg_off r.Region.length q.Region.seg_off
             q.Region.length
      then
        Types.error
          "map: segment %d range [%d, %d) is already mapped (no region may \
           be mapped more than once)"
          (Segment.id r.Region.seg) r.Region.seg_off
          (r.Region.seg_off + r.Region.length))
    t.by_vaddr;
  set t (M.add r.Region.vaddr r t.by_vaddr)

let remove t (r : Region.t) = set t (M.remove r.Region.vaddr t.by_vaddr)

let holds (r : Region.t) addr = r.Region.vaddr <= addr && addr < Region.end_vaddr r

(* The region holding [addr] among [regions], which ascend by vaddr. *)
let rec walk t addr = function
  | [] -> None
  | (r : Region.t) :: rest ->
    if addr < r.Region.vaddr then None
    else if addr < Region.end_vaddr r then begin
      let hit = Some r in
      t.last <- hit;
      hit
    end
    else walk t addr rest

let find_opt t ~addr =
  match t.last with
  | Some r as hit when holds r addr -> hit
  | _ -> walk t addr t.ordered

let find t ~addr ~len =
  match find_opt t ~addr with
  | Some r when Region.contains r ~addr ~len -> r
  | Some r ->
    Types.error
      "address range [%#x, %#x) extends past the region mapped at %#x" addr
      (addr + len) r.Region.vaddr
  | None -> Types.error "address %#x is not in any mapped region" addr

let regions t = t.ordered
let region_count t = M.cardinal t.by_vaddr

let suggest_vaddr t ~len =
  let len = Rvm_vm.Page.round_up ~page_size:t.page_size (max len 1) in
  let gap_after = 16 * t.page_size in
  match M.max_binding_opt t.by_vaddr with
  | None -> 16 * t.page_size
  | Some (_, r) ->
    ignore len;
    Rvm_vm.Page.round_up ~page_size:t.page_size (Region.end_vaddr r)
    + gap_after
