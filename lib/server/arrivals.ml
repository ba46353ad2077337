module Rng = Rvm_util.Rng

(* Exponential inter-arrival draw with mean [mean] microseconds. The
   uniform is taken from [0, 1); flip to (0, 1] before the log so the
   draw is always finite. *)
let exp_draw rng ~mean = -.log (1. -. Rng.float rng 1.0) *. mean

type t =
  | Open of {
      mean_gap_us : float;
      rng : Rng.t;
      mutable next_at : float;
      mutable left : int;
    }
  | Closed of {
      think_us : float;
      rng : Rng.t;
      mutable pending : float list;  (* sorted ascending *)
      mutable left : int;
    }

let open_loop ?(start_us = 0.) ~rate_tps ~requests ~rng () =
  if rate_tps <= 0. then invalid_arg "Arrivals.open_loop: rate";
  if requests < 0 then invalid_arg "Arrivals.open_loop: requests";
  let mean_gap_us = 1e6 /. rate_tps in
  Open
    {
      mean_gap_us;
      rng;
      next_at = start_us +. exp_draw rng ~mean:mean_gap_us;
      left = requests;
    }

let closed_loop ?(start_us = 0.) ~sessions ~think_us ~requests ~rng () =
  if sessions <= 0 then invalid_arg "Arrivals.closed_loop: sessions";
  if requests < 0 then invalid_arg "Arrivals.closed_loop: requests";
  (* Each session draws its first think time from [start_us], so the
     initial burst is staggered the same way steady state is. *)
  let first =
    List.init (min sessions requests) (fun _ ->
        start_us +. exp_draw rng ~mean:think_us)
    |> List.sort compare
  in
  Closed { think_us; rng; pending = first; left = requests }

(* The stored boxes are returned as they are, so asking allocates
   nothing. *)
let next_at = function
  | Open o -> if o.left > 0 then o.next_at else infinity
  | Closed c -> (
    if c.left <= 0 then infinity
    else match c.pending with [] -> infinity | at :: _ -> at)

let take t =
  match t with
  | Open o when o.left > 0 ->
    let at = o.next_at in
    o.left <- o.left - 1;
    o.next_at <- at +. exp_draw o.rng ~mean:o.mean_gap_us;
    at
  | Closed ({ pending = at :: rest; _ } as c) when c.left > 0 ->
    c.left <- c.left - 1;
    c.pending <- rest;
    at
  | Open _ | Closed _ -> invalid_arg "Arrivals.take: no arrival pending"

let complete t ~now =
  match t with
  | Open _ -> ()
  | Closed c ->
    (* The session thinks, then issues its next request — but only while
       arrivals remain to be issued beyond those already pending. *)
    if c.left > List.length c.pending then begin
      let at = now +. exp_draw c.rng ~mean:c.think_us in
      let rec insert = function
        | [] -> [ at ]
        | x :: rest when x <= at -> x :: insert rest
        | rest -> at :: rest
      in
      c.pending <- insert c.pending
    end

let exhausted t = next_at t = infinity
