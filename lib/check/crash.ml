module Mem_device = Rvm_disk.Mem_device
module Trace_device = Rvm_disk.Trace_device
module Device = Rvm_disk.Device
module Registry = Rvm_obs.Registry

type config = { sector : int; exhaustive : bool; max_torn_per_write : int }

type rig = {
  recorder : Trace_device.recorder;
  obs : Registry.t;
  seq_at : (int, int) Hashtbl.t;
      (* device event index -> engine-span cursor when it was issued *)
  mutable traced : (string * Trace_device.t) list;  (* newest first *)
  mutable checkpoints : (int * int) list;  (* (events_so_far, n) *)
}

(* The traced device is wrapped once more so [seq_at] maps each device
   event to the span cursor at the moment it was issued — so a violation
   at any crash point can be reported together with the spans the engine
   finished just before the crashed write. *)
let trace rig ~label dev =
  let t = Trace_device.wrap rig.recorder dev in
  rig.traced <- (label, t) :: rig.traced;
  let note_now () =
    Hashtbl.replace rig.seq_at
      (Trace_device.event_count rig.recorder)
      (Registry.trace_seq rig.obs)
  in
  Device.layer
    ~write:(fun b ~off ~buf ~pos ~len ->
      note_now ();
      b.Device.write ~off ~buf ~pos ~len)
    ~sync:(fun b ->
      note_now ();
      b.Device.sync ())
    (Trace_device.device t)

let obs rig = rig.obs
let events_so_far rig = Trace_device.event_count rig.recorder

let durable rig n =
  rig.checkpoints <- (events_so_far rig, n) :: rig.checkpoints

let required rig ~upto =
  List.fold_left
    (fun acc (e, d) -> if e <= upto then max acc d else acc)
    0 rig.checkpoints

type crash_point = { upto : int; torn : int option }

type 'state recording = {
  recover : Device.t array -> 'state;
  oracle : crash_point -> 'state -> string option;
  commits : int;
  counters : (string * int) list;
}

type violation = {
  crash : crash_point;
  reason : string;
  tail : Registry.span_event list;
}

type write_point = {
  event : int;
  dev : string;
  off : int;
  len : int;
  variants : int;
}

type outcome = {
  events : int;
  writes : int;
  syncs : int;
  boundaries : int;
  torn_variants : int;
  recoveries : int;
  commits : int;
  counters : (string * int) list;
  write_points : write_point list;
  violations : violation list;
}

(* Torn prefixes for a write of [len] bytes at device offset [off]. A write
   that does not cross an aligned sector boundary is atomic. *)
let torn_positions ~sector ~exhaustive ~max_per_write ~off ~len =
  let first_boundary = ((off / sector) + 1) * sector in
  if off + len <= first_boundary then []
  else begin
    (* Interior sector boundaries, as write-relative positions. *)
    let bounds = ref [] in
    let b = ref first_boundary in
    while !b < off + len do
      bounds := (!b - off) :: !bounds;
      b := !b + sector
    done;
    let bounds = List.rev !bounds in
    (* Top up small straddling writes so every tearable write of >= 5
       bytes gets at least 4 variants. *)
    let extra =
      if List.length bounds >= 4 then []
      else
        List.filter
          (fun p -> p > 0 && p < len)
          (List.init 4 (fun i -> len * (i + 1) / 5))
    in
    let all = List.sort_uniq compare (bounds @ extra) in
    let cap = max 2 max_per_write in
    if exhaustive || List.length all <= cap then all
    else begin
      (* Evenly subsample down to the cap. *)
      let arr = Array.of_list all in
      let n = Array.length arr in
      List.sort_uniq compare
        (List.init cap (fun i -> arr.(i * (n - 1) / (cap - 1))))
    end
  end

let tail_length = 16

let explore config rig r =
  let traced = Array.of_list (List.rev rig.traced) in
  let events = Trace_device.events rig.recorder in
  let n = Array.length events in
  (* Flight-recorder tail: the last [tail_length] spans the engine closed
     before the crash point's device event was issued. The workload is
     over, so the span set is final. *)
  let spans = Array.of_list (Registry.events rig.obs) in
  let final_seq = Registry.trace_seq rig.obs in
  let first_idx = final_seq - Array.length spans in
  let tail_before crash =
    let s =
      if crash.upto >= n then final_seq
      else
        Option.value (Hashtbl.find_opt rig.seq_at crash.upto) ~default:final_seq
    in
    let lo = max first_idx (s - tail_length) in
    if s <= lo then []
    else Array.to_list (Array.sub spans (lo - first_idx) (s - lo))
  in
  let violations = ref [] in
  let recoveries = ref 0 in
  let torn_total = ref 0 in
  let write_points = ref [] in
  let check crash =
    incr recoveries;
    let images =
      Array.map
        (fun (label, t) ->
          Mem_device.of_bytes ~name:("replay-" ^ label)
            (Trace_device.image t ~events ~upto:crash.upto ?torn:crash.torn ()))
        traced
    in
    let verdict =
      match r.recover images with
      | exception e -> Some ("recovery raised: " ^ Printexc.to_string e)
      | state -> r.oracle crash state
    in
    Option.iter
      (fun reason ->
        violations := { crash; reason; tail = tail_before crash } :: !violations)
      verdict
  in
  check { upto = 0; torn = None };
  for k = 0 to n - 1 do
    (match events.(k).Trace_device.kind with
    | Trace_device.Write { off; data } ->
      let len = Bytes.length data in
      let positions =
        torn_positions ~sector:config.sector ~exhaustive:config.exhaustive
          ~max_per_write:config.max_torn_per_write ~off ~len
      in
      List.iter (fun p -> check { upto = k; torn = Some p }) positions;
      (* The recorder numbers devices from 0 in trace order. *)
      let dev = fst traced.(events.(k).Trace_device.dev_id) in
      let variants = List.length positions in
      torn_total := !torn_total + variants;
      write_points := { event = k; dev; off; len; variants } :: !write_points
    | Trace_device.Sync -> ());
    check { upto = k + 1; torn = None }
  done;
  {
    events = n;
    writes = Trace_device.write_count rig.recorder;
    syncs = Trace_device.sync_count rig.recorder;
    boundaries = n + 1;
    torn_variants = !torn_total;
    recoveries = !recoveries;
    commits = r.commits;
    counters = r.counters;
    write_points = List.rev !write_points;
    violations = List.rev !violations;
  }

let run config world =
  if config.sector <= 0 then invalid_arg "Crash.run: sector must be positive";
  let rig =
    {
      recorder = Trace_device.create_recorder ();
      obs = Registry.create ~trace_capacity:8192 ();
      seq_at = Hashtbl.create 256;
      traced = [];
      checkpoints = [];
    }
  in
  explore config rig (world rig)

let counter o label = List.assoc label o.counters

(* --- reporting --- *)

let pp_crash_point ppf c =
  match c.torn with
  | None -> Format.fprintf ppf "after event %d" c.upto
  | Some keep -> Format.fprintf ppf "event %d torn after %d byte(s)" c.upto keep

let pp_violation ppf v =
  Format.fprintf ppf "@[<v 2>violation at crash point %a:@ %s" pp_crash_point
    v.crash v.reason;
  (match v.tail with
  | [] -> ()
  | tail ->
    Format.fprintf ppf "@ flight recorder (last %d span(s) before the crash):"
      (List.length tail);
    List.iter
      (fun ev -> Format.fprintf ppf "@   %a" Rvm_obs.Trace.pp_span ev)
      tail);
  Format.fprintf ppf "@]"

let pp_outcome ppf o =
  Format.fprintf ppf
    "@[<v>trace: %d events (%d writes, %d syncs); %d commits%s@ explored: %d \
     boundaries + %d torn variants = %d recoveries@ "
    o.events o.writes o.syncs o.commits
    (match o.counters with
    | [] -> ""
    | cs ->
      Printf.sprintf " (%s)"
        (String.concat ", "
           (List.map (fun (label, v) -> Printf.sprintf "%d %s" v label) cs)))
    o.boundaries o.torn_variants o.recoveries;
  (match o.violations with
  | [] ->
    Format.fprintf ppf
      "contract: OK — every crash point recovers to a committed prefix"
  | vs ->
    Format.fprintf ppf "contract: %d VIOLATION(S)@ " (List.length vs);
    List.iteri
      (fun i v -> if i < 5 then Format.fprintf ppf "%a@ " pp_violation v)
      vs;
    if List.length vs > 5 then
      Format.fprintf ppf "... and %d more" (List.length vs - 5));
  Format.fprintf ppf "@]"

let summary o = Format.asprintf "%a" pp_outcome o

let pp_counterexample ~to_string ppf ops =
  Format.fprintf ppf "@[<v>minimal counterexample (%d op(s)):" (List.length ops);
  List.iteri (fun i op -> Format.fprintf ppf "@ %3d: %s" i (to_string op)) ops;
  Format.fprintf ppf "@ replay: %s@]" (String.concat " " (List.map to_string ops))
