(** In-memory device. Writes are immediately "durable" (sync is a no-op);
    use {!Crash_device} on top when crash semantics matter. A memory device
    is a plain value: nothing else holds its store, so an unreachable one is
    collected like any other, and closing it is a no-op. *)

val create : ?name:string -> size:int -> unit -> Device.t
(** A zeroed device of [size] bytes, named [name] (default ["mem"]). *)

val of_bytes : ?name:string -> Bytes.t -> Device.t
(** Device over a private copy of [bytes] — used to mount reconstructed
    crash images. *)

val snapshot : Device.t -> Bytes.t
(** Copy of the device's contents, read through [d] itself: any device
    works, and a layer above the store (stats, latency) sees the read. *)
