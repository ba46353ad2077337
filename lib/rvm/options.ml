type map_mode = Copy | Demand

type t = {
  page_size : int;
  truncation_threshold : float;
  truncation_critical : float;
  truncation_mode : Types.truncation_mode;
  auto_truncate : bool;
  spool_max_bytes : int;
  intra_optimization : bool;
  inter_optimization : bool;
  map_mode : map_mode;
}

let default =
  {
    page_size = Rvm_vm.Page.default_size;
    truncation_threshold = 0.5;
    truncation_critical = 0.85;
    truncation_mode = Types.Epoch;
    auto_truncate = true;
    spool_max_bytes = 1 lsl 20;
    intra_optimization = true;
    inter_optimization = true;
    map_mode = Copy;
  }

let validate t =
  if t.page_size <= 0 || t.page_size land (t.page_size - 1) <> 0 then
    Types.error "options: page_size %d is not a positive power of two"
      t.page_size;
  if not (t.truncation_threshold > 0. && t.truncation_threshold < 1.) then
    Types.error "options: truncation_threshold %f outside (0, 1)"
      t.truncation_threshold;
  if
    not
      (t.truncation_critical >= t.truncation_threshold
      && t.truncation_critical < 1.)
  then
    Types.error "options: truncation_critical %f outside [threshold, 1)"
      t.truncation_critical;
  if t.spool_max_bytes < 0 then
    Types.error "options: spool_max_bytes %d negative" t.spool_max_bytes
