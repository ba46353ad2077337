(* Tests for the section-8 layers: nested transactions, two-phase commit,
   and the 2PL lock manager. *)

open Rvm_core
module Mem_device = Rvm_disk.Mem_device
module Nested = Rvm_layers.Nested
module Twopc = Rvm_layers.Twopc
module Lock_mgr = Rvm_layers.Lock_mgr

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let ps = 4096

let make_world () =
  let log_dev = Mem_device.create ~name:"log" ~size:(512 * 1024) () in
  Rvm.create_log log_dev;
  let seg_dev = Mem_device.create ~name:"seg" ~size:(128 * 1024) () in
  let rvm = Rvm.initialize ~log:log_dev ~resolve:(fun _ -> seg_dev) () in
  let r = Rvm.map rvm ~seg:1 ~seg_off:0 ~len:(4 * ps) () in
  (rvm, r.Region.vaddr)

let read rvm ~addr ~len = Bytes.to_string (Rvm.load rvm ~addr ~len)

(* --- nested transactions --- *)

let test_nested_commit_commits_all () =
  let rvm, a = make_world () in
  let n = Nested.create rvm in
  let top = Nested.begin_top n in
  Nested.modify n top ~addr:a (Bytes.of_string "top");
  let child = Nested.begin_nested n ~parent:top in
  check_int "depth" 1 (Nested.depth n child);
  Nested.modify n child ~addr:(a + 10) (Bytes.of_string "child");
  Nested.commit n child ();
  Nested.commit n top ();
  check_str "top data" "top" (read rvm ~addr:a ~len:3);
  check_str "child data" "child" (read rvm ~addr:(a + 10) ~len:5);
  check_int "none active" 0 (Nested.active n)

let test_nested_abort_child_keeps_parent () =
  let rvm, a = make_world () in
  let n = Nested.create rvm in
  let top = Nested.begin_top n in
  Nested.modify n top ~addr:a (Bytes.of_string "parent!");
  let child = Nested.begin_nested n ~parent:top in
  Nested.modify n child ~addr:a (Bytes.of_string "CHILD!!");
  Nested.modify n child ~addr:(a + 20) (Bytes.of_string "extra");
  Nested.abort n child;
  check_str "parent's value restored" "parent!" (read rvm ~addr:a ~len:7);
  check_str "child-only range restored" "\000\000\000\000\000"
    (read rvm ~addr:(a + 20) ~len:5);
  Nested.commit n top ();
  check_str "parent survives" "parent!" (read rvm ~addr:a ~len:7)

let test_nested_parent_abort_undoes_committed_child () =
  let rvm, a = make_world () in
  let n = Nested.create rvm in
  (* Baseline value. *)
  let t0 = Nested.begin_top n in
  Nested.modify n t0 ~addr:a (Bytes.of_string "base");
  Nested.commit n t0 ();
  let top = Nested.begin_top n in
  let child = Nested.begin_nested n ~parent:top in
  Nested.modify n child ~addr:a (Bytes.of_string "chld");
  Nested.commit n child ();
  (* The child committed into the parent; aborting the parent undoes it. *)
  Nested.abort n top;
  check_str "child's change undone by parent abort" "base" (read rvm ~addr:a ~len:4)

let test_nested_deep () =
  let rvm, a = make_world () in
  let n = Nested.create rvm in
  let top = Nested.begin_top n in
  (* Build a five-deep chain, each level writing its own slot. *)
  let rec go parent depth acc =
    if depth = 5 then acc
    else begin
      let c = Nested.begin_nested n ~parent in
      Nested.modify n c ~addr:(a + (depth * 8))
        (Bytes.of_string (Printf.sprintf "lvl%d---" depth));
      go c (depth + 1) (c :: acc)
    end
  in
  let chain = go top 0 [] in
  (match chain with
  | deepest :: _ -> check_int "depth 5" 5 (Nested.depth n deepest)
  | [] -> Alcotest.fail "empty chain");
  (* Commit the two deepest levels, abort the rest: levels 3 and 4 merged
     into level 2, which is then aborted — everything must vanish. *)
  (match chain with
  | c5 :: c4 :: rest ->
    Nested.commit n c5 ();
    Nested.commit n c4 ();
    List.iter (fun c -> Nested.abort n c) rest
  | _ -> Alcotest.fail "short chain");
  Nested.abort n top;
  check_str "all undone" (String.make 40 '\000') (read rvm ~addr:a ~len:40);
  check_int "none active" 0 (Nested.active n)

let test_nested_linear_rule () =
  let rvm, _ = make_world () in
  let n = Nested.create rvm in
  let top = Nested.begin_top n in
  let c1 = Nested.begin_nested n ~parent:top in
  let raised =
    try
      ignore (Nested.begin_nested n ~parent:top);
      false
    with Types.Rvm_error _ -> true
  in
  check_bool "second concurrent child rejected" true raised;
  (* Parent cannot resolve while a child is open. *)
  let raised =
    try
      Nested.commit n top ();
      false
    with Types.Rvm_error _ -> true
  in
  check_bool "parent blocked by child" true raised;
  Nested.commit n c1 ();
  Nested.commit n top ()

(* --- two-phase commit --- *)

type site = { sub : Twopc.sub; rvm : Rvm.t; base : int }

let make_site name =
  let rvm, base = make_world () in
  { sub = Twopc.sub_create ~name rvm; rvm; base }

let make_coordinator () =
  let rvm, base = make_world () in
  let region =
    match Rvm.region_of_addr rvm ~addr:base with
    | Some r -> r
    | None -> Alcotest.fail "no region"
  in
  Twopc.coordinator_create rvm ~decision_region:region

let test_2pc_commit () =
  let s1 = make_site "alpha" and s2 = make_site "beta" in
  let c = make_coordinator () in
  let d =
    Twopc.run c "gid-1"
      ~participants:[ s1.sub; s2.sub ]
      ~work:(fun sub ->
        let site = if Twopc.sub_name sub = "alpha" then s1 else s2 in
        Twopc.sub_modify sub "gid-1" ~addr:site.base
          (Bytes.of_string ("data@" ^ Twopc.sub_name sub)))
      ()
  in
  check_bool "committed" true (d = Twopc.Committed);
  check_str "alpha applied" "data@alpha" (read s1.rvm ~addr:s1.base ~len:10);
  check_str "beta applied" "data@beta" (read s2.rvm ~addr:s2.base ~len:9);
  check_bool "decision recorded" true
    (Twopc.lookup_decision c "gid-1" = Some Twopc.Committed)

let test_2pc_abort_compensates () =
  let s1 = make_site "alpha" and s2 = make_site "beta" in
  let c = make_coordinator () in
  (* Baseline committed state at both sites. *)
  List.iter
    (fun site ->
      let tid = Rvm.begin_transaction site.rvm ~mode:Types.Restore in
      Rvm.modify site.rvm tid ~addr:site.base (Bytes.of_string "original--");
      Rvm.end_transaction site.rvm tid ~mode:Types.Flush)
    [ s1; s2 ];
  let d =
    Twopc.run c "gid-2"
      ~participants:[ s1.sub; s2.sub ]
      ~work:(fun sub ->
        let site = if Twopc.sub_name sub = "alpha" then s1 else s2 in
        Twopc.sub_modify sub "gid-2" ~addr:site.base
          (Bytes.of_string "poisoned!!"))
      ~fail_vote:(fun name -> name = "beta")
      ()
  in
  check_bool "aborted" true (d = Twopc.Aborted);
  (* alpha prepared (its branch committed locally) and was then compensated;
     beta refused and aborted locally. Both must show the original data. *)
  check_str "alpha compensated" "original--" (read s1.rvm ~addr:s1.base ~len:10);
  check_str "beta rolled back" "original--" (read s2.rvm ~addr:s2.base ~len:10);
  check_bool "decision recorded" true
    (Twopc.lookup_decision c "gid-2" = Some Twopc.Aborted)

let test_2pc_in_doubt_listing () =
  let s1 = make_site "alpha" in
  Twopc.sub_begin s1.sub "gid-3";
  Twopc.sub_modify s1.sub "gid-3" ~addr:s1.base (Bytes.of_string "x");
  check_bool "not in doubt before prepare" true (Twopc.sub_in_doubt s1.sub = []);
  (match Twopc.sub_prepare s1.sub "gid-3" with
  | `Prepared -> ()
  | `Refused -> Alcotest.fail "prepare refused");
  Alcotest.(check (list string)) "in doubt" [ "gid-3" ] (Twopc.sub_in_doubt s1.sub);
  Twopc.sub_commit s1.sub "gid-3";
  check_bool "resolved" true (Twopc.sub_in_doubt s1.sub = [])

let test_2pc_decision_durable () =
  (* The decision lookup must come from recoverable memory. *)
  let c = make_coordinator () in
  let s1 = make_site "alpha" in
  ignore
    (Twopc.run c "gid-4" ~participants:[ s1.sub ]
       ~work:(fun sub -> Twopc.sub_modify sub "gid-4" ~addr:s1.base (Bytes.of_string "z"))
       ());
  check_bool "found" true (Twopc.lookup_decision c "gid-4" = Some Twopc.Committed);
  check_bool "unknown gid" true (Twopc.lookup_decision c "gid-404" = None)

(* --- lock manager --- *)

let test_locks_shared_compatible () =
  let lm = Lock_mgr.create () in
  check_bool "s1" true (Lock_mgr.try_acquire lm ~owner:1 ~key:"a" Lock_mgr.Shared = `Granted);
  check_bool "s2" true (Lock_mgr.try_acquire lm ~owner:2 ~key:"a" Lock_mgr.Shared = `Granted);
  (match Lock_mgr.try_acquire lm ~owner:3 ~key:"a" Lock_mgr.Exclusive with
  | `Conflict blockers -> Alcotest.(check (list int)) "blockers" [ 1; 2 ] blockers
  | `Granted -> Alcotest.fail "X granted over S")

let test_locks_exclusive_blocks () =
  let lm = Lock_mgr.create () in
  check_bool "x" true (Lock_mgr.try_acquire lm ~owner:1 ~key:"a" Lock_mgr.Exclusive = `Granted);
  check_bool "s blocked" true
    (Lock_mgr.try_acquire lm ~owner:2 ~key:"a" Lock_mgr.Shared <> `Granted);
  check_bool "reentrant" true
    (Lock_mgr.try_acquire lm ~owner:1 ~key:"a" Lock_mgr.Shared = `Granted)

let test_locks_upgrade () =
  let lm = Lock_mgr.create () in
  ignore (Lock_mgr.try_acquire lm ~owner:1 ~key:"a" Lock_mgr.Shared);
  check_bool "sole holder upgrades" true
    (Lock_mgr.try_acquire lm ~owner:1 ~key:"a" Lock_mgr.Exclusive = `Granted);
  ignore (Lock_mgr.try_acquire lm ~owner:2 ~key:"b" Lock_mgr.Shared);
  ignore (Lock_mgr.try_acquire lm ~owner:3 ~key:"b" Lock_mgr.Shared);
  check_bool "shared holder cannot upgrade" true
    (Lock_mgr.try_acquire lm ~owner:2 ~key:"b" Lock_mgr.Exclusive <> `Granted)

let test_locks_release_all () =
  let lm = Lock_mgr.create () in
  ignore (Lock_mgr.try_acquire lm ~owner:1 ~key:"a" Lock_mgr.Exclusive);
  ignore (Lock_mgr.try_acquire lm ~owner:1 ~key:"b" Lock_mgr.Shared);
  Alcotest.(check (list string)) "held" [ "a"; "b" ] (Lock_mgr.held_keys lm ~owner:1);
  Lock_mgr.release_all lm ~owner:1;
  check_int "all released" 0 (Lock_mgr.lock_count lm);
  check_bool "now free" true
    (Lock_mgr.try_acquire lm ~owner:2 ~key:"a" Lock_mgr.Exclusive = `Granted)

let test_locks_deadlock_detection () =
  let lm = Lock_mgr.create () in
  ignore (Lock_mgr.try_acquire lm ~owner:1 ~key:"a" Lock_mgr.Exclusive);
  ignore (Lock_mgr.try_acquire lm ~owner:2 ~key:"b" Lock_mgr.Exclusive);
  (* 1 waits for b (held by 2). *)
  (match Lock_mgr.wait_for lm ~owner:1 ~key:"b" Lock_mgr.Exclusive with
  | `Wait [ 2 ] -> ()
  | _ -> Alcotest.fail "expected wait on 2");
  (* 2 waiting for a (held by 1) closes the cycle. *)
  (match Lock_mgr.wait_for lm ~owner:2 ~key:"a" Lock_mgr.Exclusive with
  | `Deadlock -> ()
  | _ -> Alcotest.fail "expected deadlock");
  (* Victim releases; the survivor proceeds. *)
  Lock_mgr.release_all lm ~owner:2;
  check_bool "survivor proceeds" true
    (Lock_mgr.wait_for lm ~owner:1 ~key:"b" Lock_mgr.Exclusive = `Granted)

(* --- lock manager hardening (PR 5 regressions) --- *)

let test_locks_release_all_clears_wait_edges () =
  let lm = Lock_mgr.create () in
  (* 1 holds a, 2 holds b; 1 waits for b, 3 waits for a. *)
  ignore (Lock_mgr.try_acquire lm ~owner:1 ~key:"a" Lock_mgr.Exclusive);
  ignore (Lock_mgr.try_acquire lm ~owner:2 ~key:"b" Lock_mgr.Exclusive);
  (match Lock_mgr.wait_for lm ~owner:1 ~key:"b" Lock_mgr.Exclusive with
  | `Wait [ 2 ] -> ()
  | _ -> Alcotest.fail "1 should wait on 2");
  (match Lock_mgr.wait_for lm ~owner:3 ~key:"a" Lock_mgr.Exclusive with
  | `Wait [ 1 ] -> ()
  | _ -> Alcotest.fail "3 should wait on 1");
  Alcotest.(check (list (pair int (list int))))
    "both edges present" [ (1, [ 2 ]); (3, [ 1 ]) ] (Lock_mgr.wait_edges lm);
  (* Releasing 1 must drop its outgoing edge AND 3's edge toward it. *)
  Lock_mgr.release_all lm ~owner:1;
  Alcotest.(check (list (pair int (list int))))
    "no edge mentions 1" [] (Lock_mgr.wait_edges lm);
  (* A stale reverse edge 3->1 would let a later wait by 1 on a key of 3
     report a phantom deadlock; after the release it must be a plain wait. *)
  ignore (Lock_mgr.try_acquire lm ~owner:3 ~key:"a" Lock_mgr.Exclusive);
  (match Lock_mgr.wait_for lm ~owner:1 ~key:"a" Lock_mgr.Exclusive with
  | `Wait [ 3 ] -> ()
  | `Deadlock -> Alcotest.fail "phantom deadlock from a stale wait edge"
  | _ -> Alcotest.fail "expected wait on 3")

let test_locks_upgrade_with_other_sharers_waits () =
  let lm = Lock_mgr.create () in
  ignore (Lock_mgr.try_acquire lm ~owner:1 ~key:"k" Lock_mgr.Shared);
  ignore (Lock_mgr.try_acquire lm ~owner:2 ~key:"k" Lock_mgr.Shared);
  (* try_acquire: the upgrade attempt must report the other sharer, not
     silently grant exclusivity over a live shared holder. *)
  (match Lock_mgr.try_acquire lm ~owner:1 ~key:"k" Lock_mgr.Exclusive with
  | `Conflict [ 2 ] -> ()
  | `Conflict other ->
    Alcotest.failf "wrong blockers %s"
      (String.concat "," (List.map string_of_int other))
  | `Granted -> Alcotest.fail "upgrade granted over a shared holder");
  (* 1 still holds plain Shared — the failed upgrade must not have
     promoted it. *)
  (match List.assoc_opt 1 (Lock_mgr.holders lm ~key:"k") with
  | Some Lock_mgr.Shared -> ()
  | _ -> Alcotest.fail "failed upgrade corrupted 1's hold");
  (* wait_for: the same attempt parks; the symmetric upgrade by 2 then
     closes the classic upgrade-deadlock cycle. *)
  (match Lock_mgr.wait_for lm ~owner:1 ~key:"k" Lock_mgr.Exclusive with
  | `Wait [ 2 ] -> ()
  | _ -> Alcotest.fail "upgrade should wait on the other sharer");
  (match Lock_mgr.wait_for lm ~owner:2 ~key:"k" Lock_mgr.Exclusive with
  | `Deadlock -> ()
  | _ -> Alcotest.fail "symmetric upgrades should deadlock");
  (* Victim aborts; the survivor's upgrade is now grantable. *)
  Lock_mgr.release_all lm ~owner:2;
  (match Lock_mgr.wait_for lm ~owner:1 ~key:"k" Lock_mgr.Exclusive with
  | `Granted -> ()
  | _ -> Alcotest.fail "survivor should upgrade after victim release");
  (match Lock_mgr.holders lm ~key:"k" with
  | [ (1, Lock_mgr.Exclusive) ] -> ()
  | _ -> Alcotest.fail "upgrade did not leave a sole exclusive holder")

(* --- Update mode: the read-then-write lock --- *)

let test_locks_update_queues () =
  (* Two updaters of one key: the second waits at its Update request, and
     the first's upgrade then has no Shared holder to wait for. *)
  let lm = Lock_mgr.create () in
  check_bool "first update" true
    (Lock_mgr.wait_for lm ~owner:1 ~key:"k" Lock_mgr.Update = `Granted);
  (match Lock_mgr.wait_for lm ~owner:2 ~key:"k" Lock_mgr.Update with
  | `Wait [ 1 ] -> ()
  | `Deadlock -> Alcotest.fail "second updater deadlocked"
  | _ -> Alcotest.fail "second updater should wait on the first");
  (match Lock_mgr.wait_for lm ~owner:1 ~key:"k" Lock_mgr.Exclusive with
  | `Granted -> ()
  | `Deadlock -> Alcotest.fail "upgrade deadlocked against a queued updater"
  | `Wait _ -> Alcotest.fail "upgrade waited on a queued updater");
  Lock_mgr.release_all lm ~owner:1;
  check_bool "queued updater proceeds" true
    (Lock_mgr.wait_for lm ~owner:2 ~key:"k" Lock_mgr.Update = `Granted);
  check_bool "and upgrades" true
    (Lock_mgr.wait_for lm ~owner:2 ~key:"k" Lock_mgr.Exclusive = `Granted)

let test_locks_update_shares_readers () =
  let lm = Lock_mgr.create () in
  check_bool "reader before" true
    (Lock_mgr.wait_for lm ~owner:1 ~key:"k" Lock_mgr.Shared = `Granted);
  check_bool "updater beside a reader" true
    (Lock_mgr.wait_for lm ~owner:2 ~key:"k" Lock_mgr.Update = `Granted);
  check_bool "reader after" true
    (Lock_mgr.wait_for lm ~owner:3 ~key:"k" Lock_mgr.Shared = `Granted);
  Alcotest.(check (list (pair int (list int))))
    "nobody waits" [] (Lock_mgr.wait_edges lm);
  match Lock_mgr.wait_for lm ~owner:4 ~key:"k" Lock_mgr.Exclusive with
  | `Wait [ 1; 2; 3 ] -> ()
  | _ -> Alcotest.fail "a writer should wait on readers and the updater"

let test_locks_update_upgrade_waits_for_readers () =
  let lm = Lock_mgr.create () in
  ignore (Lock_mgr.wait_for lm ~owner:1 ~key:"k" Lock_mgr.Shared);
  ignore (Lock_mgr.wait_for lm ~owner:2 ~key:"k" Lock_mgr.Update);
  ignore (Lock_mgr.wait_for lm ~owner:3 ~key:"k" Lock_mgr.Shared);
  (match Lock_mgr.wait_for lm ~owner:2 ~key:"k" Lock_mgr.Exclusive with
  | `Wait [ 1; 3 ] -> ()
  | _ -> Alcotest.fail "the upgrade should wait on both readers");
  (match List.assoc_opt 2 (Lock_mgr.holders lm ~key:"k") with
  | Some Lock_mgr.Update -> ()
  | _ -> Alcotest.fail "a waiting upgrade must leave the Update hold");
  Lock_mgr.release_all lm ~owner:1;
  (match Lock_mgr.wait_for lm ~owner:2 ~key:"k" Lock_mgr.Exclusive with
  | `Wait [ 3 ] -> ()
  | _ -> Alcotest.fail "the upgrade should still wait on the last reader");
  Lock_mgr.release_all lm ~owner:3;
  check_bool "granted once the readers left" true
    (Lock_mgr.wait_for lm ~owner:2 ~key:"k" Lock_mgr.Exclusive = `Granted);
  match Lock_mgr.holders lm ~key:"k" with
  | [ (2, Lock_mgr.Exclusive) ] -> ()
  | _ -> Alcotest.fail "the upgrade did not leave a sole exclusive holder"

let test_locks_release_during_many_waiters () =
  (* Many waiters all blocked on one owner: the bulk reverse-edge cleanup
     path (a Hashtbl mutated while being traversed, before the fix). *)
  let lm = Lock_mgr.create () in
  ignore (Lock_mgr.try_acquire lm ~owner:0 ~key:"hot" Lock_mgr.Exclusive);
  for o = 1 to 16 do
    match Lock_mgr.wait_for lm ~owner:o ~key:"hot" Lock_mgr.Exclusive with
    | `Wait [ 0 ] -> ()
    | _ -> Alcotest.fail "expected wait on 0"
  done;
  check_int "16 edges" 16 (List.length (Lock_mgr.wait_edges lm));
  Lock_mgr.release_all lm ~owner:0;
  Alcotest.(check (list (pair int (list int))))
    "all edges cleared" [] (Lock_mgr.wait_edges lm);
  (* Every former waiter can now be granted in turn. *)
  for o = 1 to 16 do
    (match Lock_mgr.wait_for lm ~owner:o ~key:"hot" Lock_mgr.Exclusive with
    | `Granted -> ()
    | _ -> Alcotest.fail "waiter not grantable after release");
    Lock_mgr.release_all lm ~owner:o
  done

(* Commit stamps: stamp_held marks every key the owner holds with the
   committer's (LSN, writer), visible at once — before the locks drop —
   to lock-free readers and to later holders as an ack dependency. Plain
   releases leave stamps alone (an aborted successor vouched for nothing
   new), and a later committer's stamp overwrites monotonically. *)
let test_locks_stamps () =
  let lm = Lock_mgr.create () in
  let check_stamp msg expected key =
    Alcotest.(check (option (pair int int))) msg expected
      (Lock_mgr.stamp lm ~key)
  in
  ignore (Lock_mgr.try_acquire lm ~owner:1 ~key:"k1" Lock_mgr.Exclusive);
  ignore (Lock_mgr.try_acquire lm ~owner:1 ~key:"k2" Lock_mgr.Shared);
  check_stamp "unstamped" None "k1";
  Lock_mgr.stamp_held lm ~owner:1 (5, 1);
  check_stamp "k1 stamped while held" (Some (5, 1)) "k1";
  check_stamp "k2 stamped while held" (Some (5, 1)) "k2";
  check_bool "stamping releases nothing" true
    (Lock_mgr.held_keys lm ~owner:1 = [ "k1"; "k2" ]);
  Lock_mgr.release_all lm ~owner:1;
  check_stamp "k1 stamp survives its owner's release" (Some (5, 1)) "k1";
  (* A successor that aborts (plain release) must not disturb the stamp. *)
  ignore (Lock_mgr.try_acquire lm ~owner:2 ~key:"k1" Lock_mgr.Exclusive);
  Lock_mgr.release_all lm ~owner:2;
  check_stamp "stamp survives plain release" (Some (5, 1)) "k1";
  (* A later committer overwrites with its (higher) LSN. *)
  ignore (Lock_mgr.try_acquire lm ~owner:3 ~key:"k1" Lock_mgr.Exclusive);
  Lock_mgr.stamp_held lm ~owner:3 (7, 3);
  check_stamp "stamp overwritten" (Some (7, 3)) "k1";
  check_stamp "unheld key keeps its stamp" (Some (5, 1)) "k2"

(* qcheck regression: with n >= 2 shared holders of one key, the first
   S->X upgrader must park on exactly the other sharers (never a phantom
   deadlock, never a grant over live sharers), and any second upgrader
   closes the two-upgraders cycle and gets `Deadlock — the shape the
   payment step list (Shared teller/branch reads before the Exclusive
   write) makes an everyday event. After the victim and the bystanders
   release, the survivor's upgrade must be granted, sole and exclusive. *)
let prop_upgrade_deadlock =
  let gen =
    QCheck.Gen.(
      let* n = int_range 2 8 in
      let* u1 = int_bound (n - 1) in
      let* u2_raw = int_bound (n - 2) in
      (* distinct second upgrader *)
      let u2 = if u2_raw >= u1 then u2_raw + 1 else u2_raw in
      return (n, u1, u2))
  in
  let arb =
    QCheck.make
      ~print:(fun (n, u1, u2) -> Printf.sprintf "n=%d u1=%d u2=%d" n u1 u2)
      gen
  in
  QCheck.Test.make ~name:"locks: n-sharer upgrade waits, second upgrader deadlocks"
    ~count:100 arb (fun (n, u1, u2) ->
      let lm = Lock_mgr.create () in
      for o = 0 to n - 1 do
        match Lock_mgr.wait_for lm ~owner:o ~key:"k" Lock_mgr.Shared with
        | `Granted -> ()
        | _ -> QCheck.Test.fail_report "shared acquisition refused"
      done;
      let others u =
        List.sort compare (List.filter (fun o -> o <> u) (List.init n Fun.id))
      in
      (match Lock_mgr.wait_for lm ~owner:u1 ~key:"k" Lock_mgr.Exclusive with
      | `Wait blockers when List.sort compare blockers = others u1 -> ()
      | `Wait blockers ->
        QCheck.Test.fail_reportf "u1 waits on [%s], expected the other sharers"
          (String.concat ";" (List.map string_of_int blockers))
      | `Granted -> QCheck.Test.fail_report "upgrade granted over live sharers"
      | `Deadlock -> QCheck.Test.fail_report "phantom deadlock on first upgrade");
      (match Lock_mgr.wait_for lm ~owner:u2 ~key:"k" Lock_mgr.Exclusive with
      | `Deadlock -> ()
      | _ -> QCheck.Test.fail_report "second upgrader should deadlock");
      (* Victim aborts; bystander sharers finish and release; the survivor
         must then upgrade to a sole exclusive hold. *)
      Lock_mgr.release_all lm ~owner:u2;
      List.iter
        (fun o -> if o <> u1 && o <> u2 then Lock_mgr.release_all lm ~owner:o)
        (List.init n Fun.id);
      (match Lock_mgr.wait_for lm ~owner:u1 ~key:"k" Lock_mgr.Exclusive with
      | `Granted -> ()
      | _ -> QCheck.Test.fail_report "survivor not grantable after releases");
      match Lock_mgr.holders lm ~key:"k" with
      | [ (o, Lock_mgr.Exclusive) ] when o = u1 -> true
      | _ -> QCheck.Test.fail_report "survivor is not the sole exclusive holder")

(* Model check: random sequences of [wait_for], [release_all] and
   [stamp_held] over four owners, three keys and all three modes, each
   step compared with a small reference model — the outcome (granted,
   the blockers of a wait, deadlock), every key's holders as a set, every
   owner's held keys, the wait-for graph and every key's stamp. *)
type lock_op =
  | Want of int * string * Lock_mgr.mode
  | Release of int
  | Stamp of int

let mode_name = function
  | Lock_mgr.Shared -> "S"
  | Lock_mgr.Update -> "U"
  | Lock_mgr.Exclusive -> "X"

let lock_op_name = function
  | Want (o, k, m) -> Printf.sprintf "want %d %s %s" o k (mode_name m)
  | Release o -> Printf.sprintf "release %d" o
  | Stamp o -> Printf.sprintf "stamp %d" o

(* The reference: association lists, recomputed on every query. *)
module Lock_model = struct
  type t = {
    mutable holders : (string * (int * Lock_mgr.mode)) list;
    mutable waits : (int * int list) list;  (* waiter -> sorted blockers *)
    mutable stamps : (string * (int * int)) list;
  }

  let create () = { holders = []; waits = []; stamps = [] }

  let holders m key =
    List.sort compare
      (List.filter_map
         (fun (k, h) -> if k = key then Some h else None)
         m.holders)

  let held_keys m owner =
    List.sort_uniq compare
      (List.filter_map
         (fun (k, (o, _)) -> if o = owner then Some k else None)
         m.holders)

  let compatible ~req ~held =
    match (req, held) with
    | Lock_mgr.Shared, (Lock_mgr.Shared | Lock_mgr.Update)
    | Lock_mgr.Update, Lock_mgr.Shared ->
      true
    | _ -> false

  let rec reaches m ~seen src dst =
    src = dst
    || (not (List.mem src seen))
       && List.exists
            (fun b -> reaches m ~seen:(src :: seen) b dst)
            (Option.value (List.assoc_opt src m.waits) ~default:[])

  let want m owner key mode =
    let hs = holders m key in
    let blockers =
      List.sort_uniq compare
        (List.filter_map
           (fun (o, held) ->
             if o = owner || compatible ~req:mode ~held then None else Some o)
           hs)
    in
    if blockers = [] then begin
      let mine = List.assoc_opt owner hs in
      let merged =
        match (mine, mode) with
        | Some Lock_mgr.Exclusive, _ | _, Lock_mgr.Exclusive -> Lock_mgr.Exclusive
        | Some Lock_mgr.Update, _ | _, Lock_mgr.Update -> Lock_mgr.Update
        | _ -> Lock_mgr.Shared
      in
      m.holders <-
        (key, (owner, merged))
        :: List.filter (fun (k, (o, _)) -> not (k = key && o = owner)) m.holders;
      m.waits <- List.remove_assoc owner m.waits;
      `Granted
    end
    else if List.exists (fun b -> reaches m ~seen:[] b owner) blockers then
      `Deadlock
    else begin
      m.waits <- (owner, blockers) :: List.remove_assoc owner m.waits;
      `Wait blockers
    end

  let release m owner =
    m.holders <- List.filter (fun (_, (o, _)) -> o <> owner) m.holders;
    m.waits <-
      List.filter_map
        (fun (o, bs) ->
          let bs = List.filter (fun b -> b <> owner) bs in
          if o = owner || bs = [] then None else Some (o, bs))
        m.waits

  let stamp m owner s =
    List.iter
      (fun k -> m.stamps <- (k, s) :: List.remove_assoc k m.stamps)
      (held_keys m owner)

  let wait_edges m = List.sort compare m.waits
end

let prop_lock_model =
  let owners = [ 1; 2; 3; 4 ] and keys = [ "a"; "b"; "c" ] in
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 60)
        (frequency
           [
             ( 6,
               map3
                 (fun o k m -> Want (o, k, m))
                 (oneofl owners) (oneofl keys)
                 (oneofl [ Lock_mgr.Shared; Lock_mgr.Update; Lock_mgr.Exclusive ])
             );
             (2, map (fun o -> Release o) (oneofl owners));
             (1, map (fun o -> Stamp o) (oneofl owners));
           ]))
  in
  let arb =
    QCheck.make
      ~print:(fun ops -> String.concat "; " (List.map lock_op_name ops))
      gen
  in
  QCheck.Test.make ~name:"locks: lock manager agrees with a reference model"
    ~count:500 arb (fun ops ->
      let lm = Lock_mgr.create () and m = Lock_model.create () in
      let lsn = ref 0 in
      let outcome = function
        | `Granted -> "granted"
        | `Deadlock -> "deadlock"
        | `Wait bs ->
          Printf.sprintf "wait [%s]" (String.concat ";" (List.map string_of_int bs))
      in
      List.iteri
        (fun i op ->
          let fail what =
            QCheck.Test.fail_reportf "step %d (%s): %s differs" i
              (lock_op_name op) what
          in
          (match op with
          | Want (o, k, mode) ->
            let got = Lock_mgr.wait_for lm ~owner:o ~key:k mode in
            let got =
              match got with
              | `Wait bs -> `Wait (List.sort compare bs)
              | (`Granted | `Deadlock) as g -> g
            in
            if outcome got <> outcome (Lock_model.want m o k mode) then
              fail "the outcome"
          | Release o ->
            Lock_mgr.release_all lm ~owner:o;
            Lock_model.release m o
          | Stamp o ->
            incr lsn;
            Lock_mgr.stamp_held lm ~owner:o (!lsn, o);
            Lock_model.stamp m o (!lsn, o));
          List.iter
            (fun k ->
              if List.sort compare (Lock_mgr.holders lm ~key:k)
                 <> Lock_model.holders m k
              then fail ("the holders of " ^ k);
              if Lock_mgr.stamp lm ~key:k <> List.assoc_opt k m.Lock_model.stamps
              then fail ("the stamp of " ^ k))
            keys;
          List.iter
            (fun o ->
              if Lock_mgr.held_keys lm ~owner:o <> Lock_model.held_keys m o then
                fail (Printf.sprintf "the keys %d holds" o))
            owners;
          if Lock_mgr.wait_edges lm <> Lock_model.wait_edges m then
            fail "the wait-for graph";
          if Lock_mgr.lock_count lm <> List.length m.Lock_model.holders then
            fail "the lock count")
        ops;
      true)

let suite =
  [
    ("nested.commit", `Quick, test_nested_commit_commits_all);
    ("nested.child-abort", `Quick, test_nested_abort_child_keeps_parent);
    ("nested.parent-abort", `Quick, test_nested_parent_abort_undoes_committed_child);
    ("nested.deep", `Quick, test_nested_deep);
    ("nested.linear", `Quick, test_nested_linear_rule);
    ("2pc.commit", `Quick, test_2pc_commit);
    ("2pc.abort", `Quick, test_2pc_abort_compensates);
    ("2pc.in-doubt", `Quick, test_2pc_in_doubt_listing);
    ("2pc.decision-durable", `Quick, test_2pc_decision_durable);
    ("locks.shared", `Quick, test_locks_shared_compatible);
    ("locks.exclusive", `Quick, test_locks_exclusive_blocks);
    ("locks.upgrade", `Quick, test_locks_upgrade);
    ("locks.release-all", `Quick, test_locks_release_all);
    ("locks.deadlock", `Quick, test_locks_deadlock_detection);
    ( "locks.release-all-clears-wait-edges",
      `Quick,
      test_locks_release_all_clears_wait_edges );
    ( "locks.upgrade-with-sharers-waits",
      `Quick,
      test_locks_upgrade_with_other_sharers_waits );
    ( "locks.release-under-many-waiters",
      `Quick,
      test_locks_release_during_many_waiters );
    ("locks.early-release-stamps", `Quick, test_locks_stamps);
    ("locks.update-queues-not-deadlocks", `Quick, test_locks_update_queues);
    ("locks.update-shares-readers", `Quick, test_locks_update_shares_readers);
    ( "locks.update-upgrade-waits-for-readers",
      `Quick,
      test_locks_update_upgrade_waits_for_readers );
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_upgrade_deadlock; prop_lock_model ]
