let of_data ~name data =
  Device.make ~name ~size:(Bytes.length data)
    ~read:(fun ~off ~buf ~pos ~len -> Bytes.blit data off buf pos len)
    ~write:(fun ~off ~buf ~pos ~len -> Bytes.blit buf pos data off len)
    ()

let create ?(name = "mem") ~size () = of_data ~name (Bytes.make size '\000')

let of_bytes ?(name = "mem-image") bytes = of_data ~name (Bytes.copy bytes)

let snapshot (d : Device.t) = Device.read_bytes d ~off:0 ~len:d.Device.size
