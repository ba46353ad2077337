type config = { max_inflight : int; max_queue : int }

let default = { max_inflight = 8; max_queue = 16 }

let validate c =
  if c.max_inflight <= 0 then invalid_arg "Admission: max_inflight";
  if c.max_queue < 0 then invalid_arg "Admission: max_queue"

type 'a t = {
  cfg : config;
  queue : 'a Queue.t;
  obs : Rvm_obs.Registry.t option;
  mutable inflight : int;
  mutable double_releases : int;
}

let create ?obs cfg =
  validate cfg;
  { cfg; queue = Queue.create (); obs; inflight = 0; double_releases = 0 }

let config t = t.cfg
let inflight t = t.inflight
let queued t = Queue.length t.queue
let double_releases t = t.double_releases

let submit t x =
  if Queue.is_empty t.queue && t.inflight < t.cfg.max_inflight then begin
    t.inflight <- t.inflight + 1;
    `Admitted
  end
  else if Queue.length t.queue < t.cfg.max_queue then begin
    Queue.push x t.queue;
    `Queued
  end
  else `Overload

let pop_ready t =
  if Queue.is_empty t.queue then `Empty
  else if t.inflight >= t.cfg.max_inflight then `At_capacity
  else begin
    t.inflight <- t.inflight + 1;
    `Admit (Queue.pop t.queue)
  end

(* Shed and abort paths can both try to return the same slot (a request
   shed after its abort already released). Releasing a drained pipeline is
   therefore a countable event, not a crash: raising here took the whole
   server loop down. *)
let release t =
  if t.inflight <= 0 then begin
    t.double_releases <- t.double_releases + 1;
    Option.iter
      (fun obs ->
        Rvm_obs.Counter.incr
          (Rvm_obs.Registry.counter obs "admission.double_release"))
      t.obs
  end
  else t.inflight <- t.inflight - 1
