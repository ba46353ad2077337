type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else
    (* Shortest representation that round-trips is overkill here; %.12g is
       compact and JSON-valid for every finite double. *)
    Printf.sprintf "%.12g" f

let rec emit ~indent ~level buf t =
  let pad n = if indent then Buffer.add_string buf (String.make (2 * n) ' ') in
  let sep () = Buffer.add_string buf (if indent then ",\n" else ",") in
  match t with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_string buf (if indent then "[\n" else "[");
    List.iteri
      (fun i item ->
        if i > 0 then sep ();
        pad (level + 1);
        emit ~indent ~level:(level + 1) buf item)
      items;
    if indent then Buffer.add_char buf '\n';
    pad level;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj members ->
    Buffer.add_string buf (if indent then "{\n" else "{");
    List.iteri
      (fun i (k, v) ->
        if i > 0 then sep ();
        pad (level + 1);
        escape buf k;
        Buffer.add_string buf (if indent then ": " else ":");
        emit ~indent ~level:(level + 1) buf v)
      members;
    if indent then Buffer.add_char buf '\n';
    pad level;
    Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  emit ~indent:false ~level:0 buf t;
  Buffer.contents buf

let to_string_pretty t =
  let buf = Buffer.create 256 in
  emit ~indent:true ~level:0 buf t;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* --- parsing ---

   Recursive-descent over the same subset the printer emits (which is all
   of JSON minus surrogate-pair escapes). Exists so tools can read their
   own artifacts back — `rvmutl benchdiff` parses BENCH_*.json, tests
   parse exported Chrome traces — still without a dependency. *)

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" lit)
  in
  let add_utf8 buf code =
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' ->
        incr pos;
        Buffer.contents buf
      | '\\' ->
        incr pos;
        if !pos >= n then fail "unterminated escape";
        (match s.[!pos] with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          if !pos + 4 >= n then fail "truncated \\u escape";
          (match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
          | Some code -> add_utf8 buf code
          | None -> fail "bad \\u escape");
          pos := !pos + 4
        | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
        incr pos;
        go ()
      | c ->
        Buffer.add_char buf c;
        incr pos;
        go ()
    in
    go ()
  in
  let digits () =
    let start = !pos in
    while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
      incr pos
    done;
    if !pos = start then fail "expected digit"
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    digits ();
    let is_float = ref false in
    if peek () = Some '.' then begin
      is_float := true;
      incr pos;
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      is_float := true;
      incr pos;
      (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
      digits ()
    | _ -> ());
    let str = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string str)
    else
      match int_of_string_opt str with
      | Some i -> Int i
      | None -> Float (float_of_string str)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let members = ref [] in
        let rec member () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          members := (k, v) :: !members;
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            member ()
          | Some '}' -> incr pos
          | _ -> fail "expected ',' or '}'"
        in
        member ();
        Obj (List.rev !members)
      end
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        List []
      end
      else begin
        let items = ref [] in
        let rec item () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            item ()
          | Some ']' -> incr pos
          | _ -> fail "expected ',' or ']'"
        in
        item ();
        List (List.rev !items)
      end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing content";
  v

let read_file ~path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_string s

let member name = function Obj l -> List.assoc_opt name l | _ -> None

let write_file ~path t =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string_pretty t));
  Sys.rename tmp path
