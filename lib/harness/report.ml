let pct v = Printf.sprintf "%.1f%%" v

let table ~title ~header ~rows =
  let all = header :: rows in
  let cols = List.length header in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init cols width in
  let line row =
    String.concat "  "
      (List.mapi
         (fun c cell ->
           let w = List.nth widths c in
           if c = 0 then Printf.sprintf "%-*s" w cell
           else Printf.sprintf "%*s" w cell)
         row)
  in
  Printf.printf "\n== %s ==\n" title;
  print_endline (line header);
  print_endline (String.make (String.length (line header)) '-');
  List.iter (fun r -> print_endline (line r)) rows;
  flush stdout

let series ~title ~xlabel ~ylabel named =
  Printf.printf "\n== %s ==\n(%s vs %s)\n" title ylabel xlabel;
  List.iter
    (fun (name, points) ->
      Printf.printf "%s:\n" name;
      List.iter (fun (x, y) -> Printf.printf "  %10.2f  %10.2f\n" x y) points)
    named;
  flush stdout
