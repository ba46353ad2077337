(* Tests for the YCSB workload generator: seed determinism, mix
   proportions, key-population growth under inserts, value/version
   round-trips, and the serial reference model. *)

module Ycsb = Rvm_workload.Ycsb
module Rng = Rvm_util.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let make ?(mix = Ycsb.A) ?(records = 1000) ?(seed = 9L) () =
  Ycsb.create ~rng:(Rng.create ~seed) ~mix ~records ~value_len:32 ~scan_max:20

let draw n g = List.init n (fun _ -> Ycsb.next g)

let test_determinism () =
  List.iter
    (fun mix ->
      let a = draw 500 (make ~mix ()) and b = draw 500 (make ~mix ()) in
      check_bool (Ycsb.mix_name mix ^ " reproducible") true (a = b);
      let c = draw 500 (make ~mix ~seed:10L ()) in
      check_bool (Ycsb.mix_name mix ^ " seed-sensitive") true (a <> c))
    [ Ycsb.A; B; C; D; E; F ]

let test_mix_proportions () =
  let tally mix =
    let g = make ~mix ~records:10_000 () in
    let t = Hashtbl.create 8 in
    for _ = 1 to 10_000 do
      let name = Ycsb.op_name (Ycsb.next g) in
      Hashtbl.replace t name (1 + Option.value ~default:0 (Hashtbl.find_opt t name))
    done;
    fun name -> Option.value ~default:0 (Hashtbl.find_opt t name)
  in
  let near ~what got want =
    check_bool
      (Printf.sprintf "%s: %d near %d" what got want)
      true
      (abs (got - want) < 150)
  in
  let a = tally Ycsb.A in
  near ~what:"A reads" (a "read") 5000;
  near ~what:"A updates" (a "update") 5000;
  let b = tally Ycsb.B in
  near ~what:"B reads" (b "read") 9500;
  near ~what:"B updates" (b "update") 500;
  let c = tally Ycsb.C in
  check_int "C pure reads" 10_000 (c "read");
  let d = tally Ycsb.D in
  near ~what:"D reads" (d "read") 9500;
  near ~what:"D inserts" (d "insert") 500;
  let e = tally Ycsb.E in
  near ~what:"E scans" (e "scan") 9500;
  near ~what:"E inserts" (e "insert") 500;
  let f = tally Ycsb.F in
  near ~what:"F reads" (f "read") 5000;
  near ~what:"F rmws" (f "rmw") 5000

let test_population_and_keys () =
  let g = make ~mix:Ycsb.D ~records:100 () in
  let ops = draw 2000 g in
  let inserts = List.filter (function Ycsb.Insert _ -> true | _ -> false) ops in
  check_int "population grew by the inserts" (100 + List.length inserts)
    (Ycsb.records g);
  (* Inserted keys are exactly the next population indices, in order. *)
  List.iteri
    (fun i op ->
      match op with
      | Ycsb.Insert (k, _) ->
        Alcotest.(check string) "insert key" (Ycsb.key_of (100 + i)) k
      | _ -> assert false)
    inserts;
  (* Every key drawn refers to a live record (an insert's key is the
     record it creates). *)
  let pop = ref 100 in
  List.iter
    (fun op ->
      let k = Ycsb.op_key op in
      match op with
      | Ycsb.Insert _ ->
        Alcotest.(check string) "insert at the frontier" (Ycsb.key_of !pop) k;
        incr pop
      | _ ->
        check_bool "key in range" true
          (k >= Ycsb.key_of 0 && k < Ycsb.key_of !pop))
    ops;
  (* Scan lengths stay within scan_max. *)
  let g = make ~mix:Ycsb.E () in
  List.iter
    (function
      | Ycsb.Scan (_, n) -> check_bool "scan length" true (n >= 1 && n <= 20)
      | _ -> ())
    (draw 2000 g)

let test_latest_skew () =
  (* Mix D reads concentrate near the top of the key population. *)
  let g = make ~mix:Ycsb.D ~records:10_000 () in
  let hot = ref 0 and reads = ref 0 in
  List.iter
    (function
      | Ycsb.Read k ->
        incr reads;
        if k >= Ycsb.key_of 9_000 then incr hot
      | _ -> ())
    (draw 5000 g);
  (* Zipf(0.99) puts ~70-75% of the mass on the top decile of ranks —
     far above the 10% a uniform chooser would give it. *)
  check_bool
    (Printf.sprintf "latest: %d/%d reads in newest decile" !hot !reads)
    true
    (10 * !hot > 6 * !reads)

let test_values_and_rmw () =
  let v1 = Ycsb.value ~len:32 ~ver:1 in
  check_int "value length" 32 (String.length v1);
  Alcotest.(check string) "rmw bumps the version"
    (Ycsb.value ~len:32 ~ver:2)
    (Ycsb.rmw_next ~value_len:32 (Some v1));
  Alcotest.(check string) "rmw of absent starts at 1"
    (Ycsb.value ~len:32 ~ver:1)
    (Ycsb.rmw_next ~value_len:32 None);
  (* key_of is order-preserving. *)
  check_bool "key order" true (Ycsb.key_of 99 < Ycsb.key_of 100)

(* Keys and values are written digit by digit; they must render exactly
   as the [Printf] formats they replace, at every width boundary, wider
   numbers and cut prefixes included. *)
let test_renderings () =
  let printf_value ~len ~ver =
    let prefix = Printf.sprintf "v%012d" ver in
    let pl = String.length prefix in
    if len <= pl then String.sub prefix 0 (max 0 len)
    else prefix ^ String.make (len - pl) '.'
  in
  let tens = [ 0; 1; 9; 10; 11; 99; 100; 999_999_999; 1_000_000_000 ] in
  List.iter
    (fun i ->
      Alcotest.(check string) "key" (Printf.sprintf "user%010d" i)
        (Ycsb.key_of i))
    (tens
    @ [ 9_999_999_999; 10_000_000_000; 10_000_000_001; 123_456_789_012; max_int ]
    );
  List.iter
    (fun ver ->
      for len = 0 to 80 do
        Alcotest.(check string)
          (Printf.sprintf "value len %d ver %d" len ver)
          (printf_value ~len ~ver) (Ycsb.value ~len ~ver)
      done)
    (tens
    @ [ 999_999_999_999; 1_000_000_000_000; 1_000_000_000_001; max_int ])

let test_model () =
  let tbl = Hashtbl.create 16 in
  let vl = 32 in
  Ycsb.apply_model tbl ~value_len:vl (Ycsb.Insert ("k1", Ycsb.value ~len:vl ~ver:1));
  Ycsb.apply_model tbl ~value_len:vl (Ycsb.Read "k1");
  Ycsb.apply_model tbl ~value_len:vl (Ycsb.Scan ("k1", 5));
  Alcotest.(check (option string)) "reads/scans mutate nothing"
    (Some (Ycsb.value ~len:vl ~ver:1))
    (Hashtbl.find_opt tbl "k1");
  Ycsb.apply_model tbl ~value_len:vl (Ycsb.Rmw "k1");
  Alcotest.(check (option string)) "rmw bumped"
    (Some (Ycsb.value ~len:vl ~ver:2))
    (Hashtbl.find_opt tbl "k1");
  Ycsb.apply_model tbl ~value_len:vl (Ycsb.Update ("k1", Ycsb.value ~len:vl ~ver:9));
  Ycsb.apply_model tbl ~value_len:vl (Ycsb.Rmw "k1");
  Alcotest.(check (option string)) "rmw reads the update"
    (Some (Ycsb.value ~len:vl ~ver:10))
    (Hashtbl.find_opt tbl "k1");
  check_int "one key" 1 (Hashtbl.length tbl)

let test_mix_names () =
  List.iter
    (fun (s, m) ->
      check_bool s true (Ycsb.mix_of_string s = Some m);
      Alcotest.(check string) "round trip" ("ycsb-" ^ s) (Ycsb.mix_name m))
    [ ("a", Ycsb.A); ("b", B); ("c", C); ("d", D); ("e", E); ("f", F) ];
  check_bool "unknown mix" true (Ycsb.mix_of_string "g" = None)

let suite =
  [
    ("ycsb.determinism", `Quick, test_determinism);
    ("ycsb.proportions", `Quick, test_mix_proportions);
    ("ycsb.population", `Quick, test_population_and_keys);
    ("ycsb.latest-skew", `Quick, test_latest_skew);
    ("ycsb.values-rmw", `Quick, test_values_and_rmw);
    ("ycsb.renderings", `Quick, test_renderings);
    ("ycsb.model", `Quick, test_model);
    ("ycsb.mix-names", `Quick, test_mix_names);
  ]
