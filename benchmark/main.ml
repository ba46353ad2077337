(* The repository benchmark.

     main.exe run (all | WORKLOAD) [--seed N] [--seconds S] [--trace 0|1] [--quick]
     main.exe run --workload WORKLOAD ...
     main.exe trace WORKLOAD [--seed N] [--quick]

   A single-workload run prints its table, a provenance JSON line, and,
   as the last line of stdout, the result object. [run all] runs each
   workload in a fresh child process, one after another. Exit status: 0
   when every correctness gate held, 1 when one failed, 2 on bad
   arguments. *)

module W = Rvm_benchmark.Workloads
module Report = Rvm_benchmark.Report

let usage =
  "usage: main.exe run (all | WORKLOAD) [--seed N] [--seconds S] [--trace 0|1] [--quick]\n\
  \       main.exe trace WORKLOAD [--seed N] [--quick]\n\
   workloads: " ^ String.concat ", " W.names

type args = {
  workload : string option;
  seed : int;
  seconds : float;
  traced : bool;
  quick : bool;
}

let parse ~traced rest =
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: r -> go { a with workload = Some w } r
    | "--seed" :: n :: r -> go { a with seed = int_of_string n } r
    | "--seconds" :: s :: r -> go { a with seconds = float_of_string s } r
    | "--trace" :: "0" :: r -> go { a with traced = false } r
    | "--trace" :: "1" :: r -> go { a with traced = true } r
    | "--quick" :: r -> go { a with quick = true } r
    | w :: r when a.workload = None && not (String.starts_with ~prefix:"-" w) ->
      go { a with workload = Some w } r
    | x :: _ -> failwith ("unexpected argument " ^ x)
  in
  go { workload = None; seed = 42; seconds = 15.; traced; quick = false } rest

let run_one a name =
  let o =
    {
      W.seed = a.seed;
      seconds = a.seconds;
      scale = (if a.quick then W.Quick else W.Full);
      traced = a.traced;
    }
  in
  let r = W.run name o in
  Format.printf "%a@." Report.pp_table r;
  Option.iter
    (fun tr ->
      let path = "trace-" ^ name ^ ".json" in
      Rvm_benchmark.Probe.write_trace tr ~path;
      Format.printf "trace written to %s@." path)
    r.Report.tracer;
  print_endline (Rvm_obs.Json.to_string (Report.to_json r));
  print_endline (Report.result_line r);
  if Report.correct r then 0 else 1

(* Each workload in its own process, so heap_peak_mb and host timings see
   only that workload. *)
let run_all a =
  let child name =
    Array.of_list
      ([ Sys.executable_name; "run"; name; "--seed"; string_of_int a.seed;
         "--seconds"; Printf.sprintf "%g" a.seconds;
         "--trace"; (if a.traced then "1" else "0") ]
      @ if a.quick then [ "--quick" ] else [])
  in
  List.fold_left
    (fun status name ->
      flush_all ();
      let pid =
        Unix.create_process Sys.executable_name (child name) Unix.stdin
          Unix.stdout Unix.stderr
      in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> status
      | _ -> 1)
    0 W.names

let () =
  let code =
    match List.tl (Array.to_list Sys.argv) with
    | ("run" | "trace") as cmd :: rest -> (
      match parse ~traced:(cmd = "trace") rest with
      | { workload = Some "all"; _ } as a when cmd = "run" -> run_all a
      | { workload = Some w; _ } as a when List.mem w W.names && a.seconds >= 0. ->
        run_one a w
      | _ ->
        prerr_endline usage;
        2
      | exception Failure msg ->
        prerr_endline (msg ^ "\n" ^ usage);
        2)
    | _ ->
      prerr_endline usage;
      2
  in
  exit code
