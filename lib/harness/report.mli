(** Plain-text table and series rendering for the experiment harness. *)

val table :
  title:string -> header:string list -> rows:string list list -> unit
(** Print an aligned table to stdout. *)

val series :
  title:string ->
  xlabel:string ->
  ylabel:string ->
  (string * (float * float) list) list ->
  unit
(** Print named (x, y) series — the textual equivalent of a figure. *)

val pct : float -> string
