(* Byte layout is documented in the .mli: a Codec record header, then
   one Codec record per edit; ids travel as u64. *)

type header = { base_n : int; base_m : int }

let format =
  {
    Codec.magic = "SGRDIFF1";
    name = "diff";
    title = "a diff";
    max_frame = 0;
    torn = Codec.Refuse;
  }

let magic = format.magic

let max_node_count = (1 lsl 30) - 1

let add_header buf ~base_n ~base_m =
  let b = Bytes.create 16 in
  Bytes.set_int64_le b 0 (Int64.of_int base_n);
  Bytes.set_int64_le b 8 (Int64.of_int base_m);
  Buffer.add_string buf magic;
  Codec.record (Buffer.add_bytes buf) b

let add_edit buf e =
  let op, u, v =
    match e with
    | Overlay.Insert (u, v) -> (0, u, v)
    | Overlay.Delete (u, v) -> (1, u, v)
  in
  let b = Bytes.create 17 in
  Bytes.set b 0 (Char.chr op);
  Bytes.set_int64_le b 1 (Int64.of_int u);
  Bytes.set_int64_le b 9 (Int64.of_int v);
  Codec.record (Buffer.add_bytes buf) b

let to_string ~base_n ~base_m edits =
  let buf = Buffer.create (28 + (21 * List.length edits)) in
  add_header buf ~base_n ~base_m;
  List.iter (add_edit buf) edits;
  Buffer.contents buf

let encode_header ~base_n ~base_m = to_string ~base_n ~base_m []

let encode_edit e =
  let buf = Buffer.create 21 in
  add_edit buf e;
  Buffer.contents buf

(* {2 Writing} *)

type writer = { oc : out_channel }

let open_writer ~base_n ~base_m path =
  let oc = open_out_bin path in
  (match output_string oc (encode_header ~base_n ~base_m) with
  | () -> ()
  | exception e ->
      close_out_noerr oc;
      raise e);
  { oc }

let write_edit w e = output_string w.oc (encode_edit e)

let flush w = Stdlib.flush w.oc

let close w = close_out w.oc

let save ~base_n ~base_m edits path =
  Codec.durable_replace ~site:"diff" path (fun oc ->
      output_string oc (to_string ~base_n ~base_m edits))

(* {2 Reading}

   One strict decoder serves every SGRDIFF1 consumer — disk scripts,
   the daemon's mutation journal, and Mutate payloads arriving over the
   wire — so all of them share the same CRC and torn-tail discipline. *)

let of_string ~file s =
  let failf fmt = Io_error.failf ~file ~line:0 fmt in
  Codec.decode format ~file (fun () ->
      let c = Codec.cursor s in
      Codec.magic format c;
      let h = Codec.read_record c 16 "header" in
      let base_n = Codec.u64 h "base node count" in
      let base_m = Codec.u64 h "base edge count" in
      if base_n > max_node_count then
        failf "diff base node count %d exceeds the %d limit" base_n max_node_count;
      if base_m > base_n * (base_n - 1) / 2 then
        failf "diff claims %d base edges for %d nodes" base_m base_n;
      (* a whole record must fit: a mid-record end is a torn tail, which
         this format refuses (the journal-replay contract) *)
      let edit c =
        let p = Codec.read_record c 17 "edit record" in
        let op = Codec.u8 p "edit opcode" in
        let u = Codec.u64 p "edit endpoint" in
        let v = Codec.u64 p "edit endpoint" in
        if u >= base_n || v >= base_n then
          failf "diff edit endpoint out of range (%d--%d, base n %d)" u v base_n;
        if u = v then failf "diff edit is a self-loop on %d" u;
        match op with
        | 0 -> Overlay.Insert (u, v)
        | 1 -> Overlay.Delete (u, v)
        | op -> failf "diff edit has unknown opcode %d" op
      in
      let edits, _, _ = Codec.records format c edit in
      ({ base_n; base_m }, edits))

let load path = of_string ~file:path (Codec.read_file path)

let check_base ~file h g =
  if h.base_n <> Graph.n g || h.base_m <> Graph.m g then
    Io_error.failf ~file ~line:0
      "diff base mismatch: recorded against n=%d m=%d, graph has n=%d m=%d"
      h.base_n h.base_m (Graph.n g) (Graph.m g)

(* {2 Scripts as graph deltas} *)

let between g0 g1 =
  if Graph.n g0 <> Graph.n g1 then invalid_arg "Diff.between: node counts differ";
  let csr0 = Graph.csr g0 and csr1 = Graph.csr g1 in
  let off0 = Csr.offsets csr0 and adj0 = Csr.adjacency csr0 in
  let off1 = Csr.offsets csr1 and adj1 = Csr.adjacency csr1 in
  let acc = ref [] in
  for v = 0 to Graph.n g0 - 1 do
    let i = ref off0.(v) and j = ref off1.(v) in
    let stop0 = off0.(v + 1) and stop1 = off1.(v + 1) in
    while !i < stop0 || !j < stop1 do
      let a = if !i < stop0 then adj0.(!i) else max_int in
      let b = if !j < stop1 then adj1.(!j) else max_int in
      if a = b then begin
        incr i;
        incr j
      end
      else if a < b then begin
        (* each undirected edge once, from its smaller endpoint *)
        if a > v then acc := Overlay.Delete (v, a) :: !acc;
        incr i
      end
      else begin
        if b > v then acc := Overlay.Insert (v, b) :: !acc;
        incr j
      end
    done
  done;
  List.rev !acc

let apply g edits =
  let o = Overlay.of_graph g in
  Overlay.apply o edits;
  Overlay.compact o
