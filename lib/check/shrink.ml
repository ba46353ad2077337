(* Replace the element at [i] with the ops [subst] (possibly empty). *)
let splice ops i subst =
  List.concat (List.mapi (fun j op -> if j = i then subst else [ op ]) ops)

(* One pass of a transformation over op positions: at each position, try
   the candidates in order and keep the first that still violates. *)
let pass ~check ~candidates ops =
  let rec go i ops =
    if i >= List.length ops then ops
    else begin
      let op = List.nth ops i in
      let rec try_cands = function
        | [] -> go (i + 1) ops
        | subst :: rest ->
          let ops' = splice ops i subst in
          if check ops' then
            (* The list may have shrunk; revisit position [i]. *)
            go (if subst = [] then i else i + 1) ops'
          else try_cands rest
      in
      try_cands (candidates op)
    end
  in
  go 0 ops

(* Candidates that drop the whole op. *)
let drop_op _op = [ [] ]

let minimize ?(edits = []) ~check ops =
  let step ops =
    List.fold_left
      (fun ops candidates -> pass ~check ~candidates ops)
      ops (drop_op :: edits)
  in
  let rec fix ops =
    let ops' = step ops in
    if ops' = ops then ops else fix ops'
  in
  fix ops
