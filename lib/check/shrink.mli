(** Minimal-counterexample shrinking for violating workloads.

    Greedy delta-debugging over any first-order op list: drop whole ops,
    then apply each subsystem-supplied edit in turn, re-running the
    explorer after each candidate edit and keeping it only while the
    violation still reproduces. Deterministic: the result depends only on
    the input workload, the edits and the [check] predicate. *)

val minimize :
  ?edits:('op -> 'op list list) list ->
  check:('op list -> bool) ->
  'op list ->
  'op list
(** [minimize ~edits ~check ops] assumes [check ops = true] (a violation
    reproduces) and returns a local minimum: no single op removal, and no
    single replacement of an op by one of the candidates an edit offers
    for it, preserves the violation. An edit maps an op to its candidate
    replacements, each a (possibly empty) op list. *)
