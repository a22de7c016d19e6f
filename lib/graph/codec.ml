(* All integers are little-endian. u64 fields are assembled from bytes
   in plain int arithmetic: the snapshot decoder runs this on hundreds
   of thousands of values, and boxed [Int64] reads cost more than the
   I/O itself. *)

type torn_tail = Tolerate | Refuse

type format = {
  magic : string;
  name : string;
  title : string;
  max_frame : int;
  torn : torn_tail;
}

type error =
  | Bad_magic of string
  | Truncated of string
  | Oversized of int
  | Crc_mismatch of { what : string; stored : int; computed : int }
  | Out_of_range of { what : string; value : int64 }
  | Trailing

exception Error of error

let fail e = raise (Error e)

let message fmt = function
  | Bad_magic _ -> Printf.sprintf "not %s (bad magic)" fmt.title
  | Truncated what -> Printf.sprintf "%s truncated reading %s" fmt.name what
  | Oversized len ->
      Printf.sprintf "%s frame of %d bytes exceeds the %d-byte limit" fmt.name len
        fmt.max_frame
  | Crc_mismatch { what; stored; computed } ->
      Printf.sprintf "%s %s CRC mismatch (stored %08x, computed %08x)" fmt.name what
        stored computed
  | Out_of_range { what; value } ->
      Printf.sprintf "%s %s %Ld out of range" fmt.name what value
  | Trailing -> Printf.sprintf "%s has trailing bytes" fmt.name

let decode fmt ~file f =
  Io_error.structured ~file (fun () ->
      try f () with Error e -> Io_error.fail ~file ~line:0 (message fmt e))

let u32_at s off = Int32.to_int (String.get_int32_le s off) land 0xFFFFFFFF

(* {1 Encoding} *)

let record emit payload =
  let crc = Bytes.create 4 in
  Bytes.set_int32_le crc 0 (Int32.of_int (Scoll.Crc32.bytes payload));
  emit payload;
  emit crc

let frame fmt payload =
  let len = String.length payload in
  if len > fmt.max_frame then invalid_arg ("Codec.frame: oversized " ^ fmt.name ^ " frame");
  let b = Bytes.create 8 in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_int32_le b 4 (Int32.of_int (Scoll.Crc32.string payload));
  Bytes.to_string b ^ payload

(* {1 Decoding} *)

type cursor = { src : string; mutable pos : int; lim : int }

let cursor ?(pos = 0) src = { src; pos; lim = String.length src }

let pos c = c.pos

let need c len what = if len < 0 || len > c.lim - c.pos then fail (Truncated what)

let take c len what =
  need c len what;
  let p = c.pos in
  c.pos <- p + len;
  p

let magic fmt c =
  let len = String.length fmt.magic in
  let have = min len (c.lim - c.pos) in
  let got = String.sub c.src c.pos have in
  if not (String.equal got (String.sub fmt.magic 0 have)) then fail (Bad_magic got);
  ignore (take c len "magic" : int)

let check_crc what src ~off ~len ~stored =
  let computed = Scoll.Crc32.string ~off ~len src in
  if stored <> computed then fail (Crc_mismatch { what; stored; computed })

let read_record c len what =
  let p = take c len what in
  (* the unit name is only built on the refusal path *)
  if c.lim - c.pos < 4 then fail (Truncated (what ^ " CRC"));
  let stored = u32_at c.src c.pos in
  c.pos <- c.pos + 4;
  check_crc what c.src ~off:p ~len ~stored;
  { src = c.src; pos = p; lim = p + len }

let frame_length fmt s off =
  let len = u32_at s off in
  if len > fmt.max_frame then fail (Oversized len);
  len

let read_frame fmt c =
  let h = take c 8 "frame header" in
  let len = frame_length fmt c.src h in
  let p = take c len "frame payload" in
  check_crc "frame" c.src ~off:p ~len ~stored:(u32_at c.src (h + 4));
  String.sub c.src p len

let records fmt c read =
  let tolerate = match fmt.torn with Tolerate -> true | Refuse -> false in
  let rec go acc =
    let clean = c.pos in
    if clean = c.lim then (List.rev acc, clean, `Clean)
    else
      match read c with
      | x -> go (x :: acc)
      | exception Error (Truncated _ | Oversized _ | Crc_mismatch _) when tolerate ->
          c.pos <- clean;
          (List.rev acc, clean, `Torn)
  in
  go []

let u8 c what = Char.code c.src.[take c 1 what]

let u16 c what = String.get_uint16_le c.src (take c 2 what)

let u32 c what = u32_at c.src (take c 4 what)

(* A top byte >= 0x40 sets bit 62 or 63: the value exceeds max_int.
   Inlined so the bulk loop in [u64s] makes no call per element. *)
let[@inline] u64_at what s p =
  let b7 = Char.code s.[p + 7] in
  if b7 >= 0x40 then fail (Out_of_range { what; value = String.get_int64_le s p });
  Char.code s.[p]
  lor (Char.code s.[p + 1] lsl 8)
  lor (Char.code s.[p + 2] lsl 16)
  lor (Char.code s.[p + 3] lsl 24)
  lor (Char.code s.[p + 4] lsl 32)
  lor (Char.code s.[p + 5] lsl 40)
  lor (Char.code s.[p + 6] lsl 48)
  lor (b7 lsl 56)

let u64 c what = u64_at what c.src (take c 8 what)

let u64s c count what =
  let p = take c (8 * count) what in
  let a = Array.make count 0 in
  for i = 0 to count - 1 do
    a.(i) <- u64_at what c.src (p + (8 * i))
  done;
  a

let f64 c what = Int64.float_of_bits (String.get_int64_le c.src (take c 8 what))

let string c len what = String.sub c.src (take c len what) len

let finish c = if c.pos <> c.lim then fail Trailing

(* {1 Files} *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* every documented save raises Sys_error on I/O failure, as the
   channel functions do *)
let sys_error path f =
  try f ()
  with Unix.Unix_error (e, call, _) ->
    raise (Sys_error (Printf.sprintf "%s: %s: %s" path call (Unix.error_message e)))

let durable_replace ?(fault = Scoll.Fault.none) ~site path write =
  let tmp = path ^ ".tmp" in
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o666 tmp in
  (* close_out inside the body so flush errors on the success path are
     reported; the noerr close in [finally] is then a no-op *)
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Scoll.Fault.check fault (site ^ ".write");
      write oc;
      flush oc;
      Scoll.Fault.check fault (site ^ ".fsync");
      sys_error tmp (fun () -> Unix.fsync (Unix.descr_of_out_channel oc));
      close_out oc);
  Scoll.Fault.check fault (site ^ ".rename");
  Sys.rename tmp path;
  Scoll.Fault.check fault (site ^ ".dirsync");
  (* the rename is a change to the directory: durable only once the
     directory itself is synced *)
  let dir = Filename.dirname path in
  sys_error dir (fun () ->
      let fd = Unix.openfile dir [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd))
