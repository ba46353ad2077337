(* The rvmutl usage header is documentation that lives next to the code
   and has historically gone stale as subcommands and flags were added.
   These tests read bin/rvmutl.ml itself and assert the header block
   mentions every cmdliner subcommand actually registered, plus the
   flags each subcommand's docs promise, and that the --monitor doc names
   the monitor's real rules. One more runs the built binary: a bad
   numeric flag is a usage error (exit 2), not an uncaught exception. *)

let rvmutl_src = "../bin/rvmutl.ml"
let rvmutl_exe = "../bin/rvmutl.exe"

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

(* The --monitor doc lists the SLO rules by the names incidents carry,
   the names the CI overload smoke greps for. *)
let test_monitor_doc_names_rules () =
  let src = read_source () in
  List.iter
    (fun (r : Rvm_obs.Monitor.rule) ->
      Alcotest.(check bool)
        (Printf.sprintf "rvmutl.ml names rule %s" r.Rvm_obs.Monitor.name)
        true
        (contains ~needle:r.Rvm_obs.Monitor.name src))
    (Rvm_obs.Monitor.default_rules ~shards:2 ())

let run_rvmutl args =
  Sys.command
    (Filename.quote_command rvmutl_exe ~stdout:Filename.null
       ~stderr:Filename.null args)

let test_bad_numbers_exit_2 () =
  let log = Filename.temp_file "rvmutl-cli" ".log" in
  Sys.remove log;
  Alcotest.(check int) "create-log" 0
    (run_rvmutl [ "create-log"; log; "--size"; "65536" ]);
  List.iter
    (fun args ->
      Alcotest.(check int) (String.concat " " args) 2 (run_rvmutl args))
    [
      [ "serve"; "--requests"; "20"; "--batch"; "0" ];
      [ "serve"; "--requests"; "20"; "--sessions"; "0" ];
      [ "serve"; "--requests"; "20"; "--load=0" ];
      [ "serve"; "--requests"; "20"; "--accounts"; "0" ];
      [ "serve"; "--requests"; "20"; "--zipf-s=-1" ];
      [ "serve"; "--requests"; "20"; "--sessions"; "2"; "--think-ms=-1" ];
      [ "trace"; log; "--out"; Filename.null; "--accounts"; "0" ];
    ];
  Sys.remove log

let suite =
  [
    Alcotest.test_case "usage header lists every subcommand" `Quick
      test_header_lists_every_subcommand;
    Alcotest.test_case "usage header documents the flags" `Quick
      test_header_documents_flags;
    Alcotest.test_case "--monitor doc names every default rule" `Quick
      test_monitor_doc_names_rules;
    Alcotest.test_case "serve and trace reject bad numbers with exit 2" `Quick
      test_bad_numbers_exit_2;
  ]
