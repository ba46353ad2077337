(* The rvmutl usage header is documentation that lives next to the code
   and has historically gone stale as subcommands and flags were added.
   These tests read bin/rvmutl.ml itself and assert the header block
   mentions every cmdliner subcommand actually registered, plus the
   flags each subcommand's docs promise. *)

let rvmutl_src = "../bin/rvmutl.ml"

let read_source () =
  let ic = open_in_bin rvmutl_src in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* The header is the leading comment block: everything up to the first
   "*)". *)
let header src =
  let rec find i =
    if i + 2 > String.length src then String.length src
    else if String.sub src i 2 = "*)" then i
    else find (i + 1)
  in
  String.sub src 0 (find 0)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* Every [Cmd.info "name"] in the source is a registered subcommand. *)
let registered_subcommands src =
  let marker = "Cmd.info \"" in
  let ml = String.length marker in
  let rec go i acc =
    if i + ml > String.length src then List.rev acc
    else if String.sub src i ml = marker then begin
      let stop = String.index_from src (i + ml) '"' in
      let name = String.sub src (i + ml) (stop - (i + ml)) in
      go stop (name :: acc)
    end
    else go (i + 1) acc
  in
  (* drop the group's own "rvmutl" info *)
  List.filter (fun n -> n <> "rvmutl") (go 0 [])

let test_header_lists_every_subcommand () =
  let src = read_source () in
  let hdr = header src in
  let subs = registered_subcommands src in
  Alcotest.(check bool) "found a plausible number of subcommands" true
    (List.length subs >= 10);
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "header mentions 'rvmutl %s'" name)
        true
        (contains ~needle:("rvmutl " ^ name) hdr))
    subs

(* Spot-check the flags the header must document per subcommand — the
   ones that have gone missing before. *)
let test_header_documents_flags () =
  let src = read_source () in
  let hdr = header src in
  List.iter
    (fun flag ->
      Alcotest.(check bool)
        (Printf.sprintf "header documents %s" flag)
        true
        (contains ~needle:flag hdr))
    [
      (* stats subcommand with its JSON switch *)
      "rvmutl stats";
      "--json";
      (* stats heap attach *)
      "--heap-seg";
      "--heap-base";
      (* check's crash-exploration switches *)
      "--mid-truncation";
      "--elr";
      "--btree";
      (* serve's full surface *)
      "--trace";
      "--log-size";
      "--zipf-s";
      "--read-pct";
      "--monitor";
      "--window-ms";
      "--postmortem";
      "--workload";
      "--records";
      (* benchdiff *)
      "rvmutl benchdiff";
    ]

let suite =
  [
    Alcotest.test_case "usage header lists every subcommand" `Quick
      test_header_lists_every_subcommand;
    Alcotest.test_case "usage header documents the flags" `Quick
      test_header_documents_flags;
  ]
