type span_event = Trace.span = {
  id : int;
  parent : int option;
  scope : string;
  start_us : float;
  dur_us : float;
  attrs : (string * Trace.value) list;
}

(* A span name with its handles resolved once: [.count], and for a span
   (not an instant) [.us]. The handles join the registry on the scope's
   first use, so resolving one early changes nothing a snapshot shows. *)
type scope = {
  name : string;
  instant : bool;
  mutable count : Counter.t;
  mutable us : Histogram.t;
  mutable bound : bool;
}

type t = {
  counters : (string, Counter.t) Hashtbl.t;
  histograms : (string, Histogram.t) Hashtbl.t;
  spans : (string, scope) Hashtbl.t;
  instants : (string, scope) Hashtbl.t;
  mutable now_us : unit -> float;
  trace : Trace.t;
}

let default_now () = Unix.gettimeofday () *. 1e6

let create ?(trace_capacity = 0) () =
  {
    counters = Hashtbl.create 32;
    histograms = Hashtbl.create 16;
    spans = Hashtbl.create 16;
    instants = Hashtbl.create 8;
    now_us = default_now;
    trace = Trace.create ~capacity:trace_capacity ();
  }

let set_time_source t f = t.now_us <- f
let set_trace_capacity t n = Trace.set_capacity t.trace n
let trace_capacity t = Trace.capacity t.trace

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
    let c = Counter.v name in
    Hashtbl.add t.counters name c;
    c

let histogram t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
    let h = Histogram.v name in
    Hashtbl.add t.histograms name h;
    h

let unbound = Histogram.v ""

let scope_in tbl ~instant name =
  match Hashtbl.find tbl name with
  | sc -> sc
  | exception Not_found ->
    let sc =
      { name; instant; count = Counter.v ""; us = unbound; bound = false }
    in
    Hashtbl.add tbl name sc;
    sc

let scope t name = scope_in t.spans ~instant:false name
let instant_scope t name = scope_in t.instants ~instant:true name

let bind t sc =
  sc.count <- counter t (sc.name ^ ".count");
  (* An instant owns only the counter: no [.us] histogram appears for it. *)
  if not sc.instant then sc.us <- histogram t (sc.name ^ ".us");
  sc.bound <- true

let open_span ?attrs t sc =
  if not sc.bound then bind t sc;
  Trace.enter t.trace ~now:(t.now_us ()) ?attrs sc.name

let close_span t sc =
  if sc.instant then Trace.close_instant t.trace
  else Histogram.observe sc.us (Trace.close t.trace ~now:(t.now_us ()));
  Counter.incr sc.count

let span ?attrs t name f =
  let sc = scope t name in
  open_span ?attrs t sc;
  match f () with
  | x ->
    close_span t sc;
    x
  | exception e ->
    close_span t sc;
    raise e

let add_attr t key v = Trace.add_attr t.trace key v
let add_int t key n = Trace.add_int t.trace key n
let add_string t key s = Trace.add_string t.trace key s

let instant ?attrs t name =
  let sc = instant_scope t name in
  open_span ?attrs t sc;
  close_span t sc

let events t = Trace.events t.trace
let events_since t cursor = Trace.events_since t.trace cursor
let trace_seq t = Trace.seq t.trace

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counters t =
  List.map (fun (k, c) -> (k, Counter.get c)) (sorted_bindings t.counters)

let histograms t = sorted_bindings t.histograms

let reset t =
  Hashtbl.iter (fun _ c -> Counter.reset c) t.counters;
  Hashtbl.iter (fun _ h -> Histogram.reset h) t.histograms;
  Trace.clear t.trace

let histogram_json h =
  let open Json in
  Obj
    [
      ("count", Int (Histogram.count h));
      ("sum", Float (Histogram.sum h));
      ("mean", Float (Histogram.mean h));
      (* inf/-inf of a fresh histogram must never reach the document. *)
      ( "min",
        match Histogram.min_opt h with Some v -> Float v | None -> Null );
      ( "max",
        match Histogram.max_opt h with Some v -> Float v | None -> Null );
      ("p50", Float (Histogram.percentile h 50.));
      ("p95", Float (Histogram.percentile h 95.));
      ("p99", Float (Histogram.percentile h 99.));
    ]

let value_json = function
  | Trace.Bool b -> Json.Bool b
  | Trace.Int i -> Json.Int i
  | Trace.Float f -> Json.Float f
  | Trace.String s -> Json.String s

let span_json (ev : span_event) =
  let open Json in
  let members =
    [
      ("id", Int ev.id);
      ("scope", String ev.scope);
      ("start_us", Float ev.start_us);
      ("dur_us", Float ev.dur_us);
    ]
  in
  let members =
    match ev.parent with
    | Some p -> members @ [ ("parent", Int p) ]
    | None -> members
  in
  let members =
    match ev.attrs with
    | [] -> members
    | attrs ->
      members
      @ [ ("attrs", Obj (List.map (fun (k, v) -> (k, value_json v)) attrs)) ]
  in
  Obj members

let to_json t =
  let open Json in
  let members =
    [
      ("counters", Obj (List.map (fun (k, v) -> (k, Int v)) (counters t)));
      ( "histograms",
        Obj (List.map (fun (k, h) -> (k, histogram_json h)) (histograms t)) );
    ]
  in
  let members =
    match events t with
    | [] -> members
    | evs -> members @ [ ("spans", List (List.map span_json evs)) ]
  in
  Obj members

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  let cs = counters t in
  if cs <> [] then begin
    Format.fprintf ppf "counters:@,";
    List.iter (fun (k, v) -> Format.fprintf ppf "  %-40s %d@," k v) cs
  end;
  let hs = List.filter (fun (_, h) -> Histogram.count h > 0) (histograms t) in
  if hs <> [] then begin
    Format.fprintf ppf "histograms:@,";
    List.iter
      (fun (k, h) ->
        Format.fprintf ppf
          "  %-40s n=%d mean=%.1f min=%.1f max=%.1f p50=%.1f p95=%.1f \
           p99=%.1f@,"
          k (Histogram.count h) (Histogram.mean h) (Histogram.min_value h)
          (Histogram.max_value h)
          (Histogram.percentile h 50.)
          (Histogram.percentile h 95.)
          (Histogram.percentile h 99.))
      hs
  end;
  if cs = [] && hs = [] then Format.fprintf ppf "(empty)@,";
  Format.fprintf ppf "@]"

let pp_tail ?(n = 16) ppf t =
  let evs = events t in
  let len = List.length evs in
  let rec drop k l = if k <= 0 then l else match l with [] -> [] | _ :: r -> drop (k - 1) r in
  let tail = drop (len - n) evs in
  Format.fprintf ppf "@[<v>flight recorder: last %d of %d retained span(s)"
    (List.length tail) len;
  List.iter (fun ev -> Format.fprintf ppf "@,  %a" Trace.pp_span ev) tail;
  Format.fprintf ppf "@]"
