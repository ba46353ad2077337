module M = Map.Make (Int)

(* Invariant: keys are interval starts, values are interval ends (exclusive);
   intervals are non-empty, disjoint, and separated by at least one gap
   integer (adjacent intervals are merged on insertion). *)
type t = int M.t

let empty = M.empty
let is_empty = M.is_empty

(* Intervals with start <= x that might reach x: only the immediate
   predecessor, because intervals are disjoint. *)
let pred_interval t x = M.find_last_opt (fun lo -> lo <= x) t

let add t ~lo ~len =
  if len < 0 then invalid_arg "Intervals.add";
  if len = 0 then t
  else begin
    let hi = lo + len in
    (* Extend left if the predecessor overlaps or is adjacent — keeping its
       right edge, which may already reach past the new interval. *)
    let lo', hi, t =
      match pred_interval t lo with
      | Some (plo, phi) when phi >= lo -> (plo, max hi phi, M.remove plo t)
      | _ -> (lo, hi, t)
    in
    (* Absorb every interval starting within [lo', hi], tracking the
       furthest right edge. *)
    let rec absorb t hi' =
      match M.find_first_opt (fun k -> k >= lo') t with
      | Some (klo, khi) when klo <= hi' ->
        absorb (M.remove klo t) (max hi' khi)
      | _ -> (t, hi')
    in
    let t, hi' = absorb t hi in
    M.add lo' hi' t
  end

let gaps t ~lo ~len =
  (* Sub-intervals of [lo, lo+len) not covered by [t]. *)
  if len <= 0 then []
  else begin
    let hi = lo + len in
    let rec walk acc cur =
      if cur >= hi then List.rev acc
      else
        match pred_interval t cur with
        | Some (_, phi) when phi > cur ->
          (* cur is inside an interval; jump to its end. *)
          walk acc phi
        | _ -> (
          (* cur is uncovered; the gap runs to the next interval start. *)
          match M.find_first_opt (fun k -> k > cur) t with
          | Some (nlo, _) when nlo < hi -> walk ((cur, nlo - cur) :: acc) nlo
          | _ -> List.rev ((cur, hi - cur) :: acc))
    in
    walk [] lo
  end

let add_uncovered t ~lo ~len =
  if len < 0 then invalid_arg "Intervals.add_uncovered";
  (gaps t ~lo ~len, add t ~lo ~len)

let covers t ~lo ~len =
  if len <= 0 then true
  else
    match pred_interval t lo with
    | Some (_, phi) -> phi >= lo + len
    | None -> false

let mem t x = covers t ~lo:x ~len:1

(* Only the last interval starting before [lo + len] can reach [lo]: every
   earlier one ends before that one starts. *)
let inter_nonempty t ~lo ~len =
  len > 0
  &&
  match M.find_last_opt (fun k -> k < lo + len) t with
  | Some (_, khi) -> khi > lo
  | None -> false

let to_list t = M.fold (fun lo hi acc -> (lo, hi - lo) :: acc) t [] |> List.rev

let iter t ~f = M.iter (fun lo hi -> f ~lo ~len:(hi - lo)) t

let fold t ~init ~f =
  M.fold (fun lo hi acc -> f acc ~lo ~len:(hi - lo)) t init

let subsumes a b = M.for_all (fun lo hi -> covers a ~lo ~len:(hi - lo)) b
let byte_count t = fold t ~init:0 ~f:(fun acc ~lo:_ ~len -> acc + len)
let interval_count t = M.cardinal t

let pp ppf t =
  Format.fprintf ppf "{";
  let first = ref true in
  iter t ~f:(fun ~lo ~len ->
      if not !first then Format.fprintf ppf "; ";
      first := false;
      Format.fprintf ppf "[%d,%d)" lo (lo + len));
  Format.fprintf ppf "}"
