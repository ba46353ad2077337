module B = Rvm_util.Bytebuf

let control_seg = -1

type decision = Committed | Aborted

type control =
  | Intent of { gid : string; shard : int }
  | Stage of { gid : string; participants : int list }
  | Resolution of { gid : string; decision : decision }

let payload_magic = 0x50

let encode_control c =
  let b = B.create ~capacity:64 () in
  B.u8 b payload_magic;
  (match c with
  | Intent { gid; shard } ->
    B.u8 b 1;
    B.lstring b gid;
    B.u32 b shard
  | Stage { gid; participants } ->
    B.u8 b 2;
    B.lstring b gid;
    B.u32 b (List.length participants);
    List.iter (fun s -> B.u32 b s) participants
  | Resolution { gid; decision } ->
    B.u8 b 3;
    B.lstring b gid;
    B.u8 b (match decision with Committed -> 1 | Aborted -> 0));
  B.contents b

let decode_control bytes =
  let c = B.Cursor.of_bytes bytes in
  try
    if B.Cursor.u8 c <> payload_magic then None
    else
      match B.Cursor.u8 c with
      | 1 ->
        let gid = B.Cursor.lstring c in
        let shard = B.Cursor.u32 c in
        Some (Intent { gid; shard })
      | 2 ->
        let gid = B.Cursor.lstring c in
        let n = B.Cursor.u32 c in
        if n > 0xffff then None
        else begin
          let participants = ref [] in
          for _ = 1 to n do
            participants := B.Cursor.u32 c :: !participants
          done;
          Some (Stage { gid; participants = List.rev !participants })
        end
      | 3 ->
        let gid = B.Cursor.lstring c in
        let decision =
          match B.Cursor.u8 c with 1 -> Committed | _ -> Aborted
        in
        Some (Resolution { gid; decision })
      | _ -> None
  with B.Underflow -> None

(* The record flag that announces each control. *)
let flag = function
  | Intent _ -> Record.Flags.intent
  | Stage _ -> Record.Flags.stage
  | Resolution _ -> Record.Flags.resolution

let record ?(tid = 0) ?timestamp_us ?(flags = 0) ?(ranges = []) c =
  Record.commit ~seqno:0 ~tid ?timestamp_us ~flags:(flags lor flag c)
    ({ Record.seg = control_seg; off = 0; data = encode_control c } :: ranges)

let is_control (r : Record.range) = r.seg = control_seg
let control_flags =
  Record.Flags.(intent lor stage lor resolution)

(* The flag and the payload tag must agree — a record claiming to be an
   intent but carrying a stage payload is corruption. *)
let classify (t : Record.t) =
  if t.flags land control_flags = 0 then `Plain
  else
    match List.find_opt is_control t.ranges with
    | Some r -> (
      match decode_control r.data with
      | Some c when Record.Flags.has t.flags (flag c) -> `Control c
      | _ -> `Malformed)
    | None -> `Malformed

let decision_to_string = function Committed -> "commit" | Aborted -> "abort"
