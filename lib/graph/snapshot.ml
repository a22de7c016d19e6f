(* Byte layout is documented in the .mli. Ids and counts travel as u64
   even though they fit an OCaml int, so the format does not depend on
   the host word size. *)

let format =
  {
    Codec.magic = "SGRSNAP1";
    name = "snapshot";
    title = "a snapshot";
    max_frame = 0;
    torn = Codec.Refuse;
  }

let max_node_count = (1 lsl 30) - 1

let u64s arr =
  let b = Bytes.create (8 * Array.length arr) in
  Array.iteri (fun i v -> Bytes.set_int64_le b (8 * i) (Int64.of_int v)) arr;
  b

let save ?fault g path =
  let csr = Graph.csr g in
  Codec.durable_replace ?fault ~site:"snapshot" path (fun oc ->
      output_string oc format.magic;
      Codec.record (output_bytes oc) (u64s [| Graph.n g; Graph.m g |]);
      Codec.record (output_bytes oc) (u64s (Csr.offsets csr));
      Codec.record (output_bytes oc) (u64s (Csr.adjacency csr)))

let of_string ~file src =
  let failf fmt = Io_error.failf ~file ~line:0 fmt in
  let offsets, adjacency =
    Codec.decode format ~file @@ fun () ->
      let c = Codec.cursor src in
      Codec.magic format c;
      let header = Codec.read_record c 16 "header" in
      let n = Codec.u64 header "node count" in
      let m = Codec.u64 header "edge count" in
      (* size sanity before the CRC-trusted counts drive allocations *)
      if n > max_node_count then
        failf "snapshot node count %d exceeds the %d limit" n max_node_count;
      if m > n * (n - 1) / 2 then failf "snapshot claims %d edges for %d nodes" m n;
      let ob = Codec.read_record c (8 * (n + 1)) "offsets" in
      let ab = Codec.read_record c (16 * m) "adjacency" in
      (* a concatenation or an in-place append is not a snapshot this
         module wrote *)
      Codec.finish c;
      let offsets = Codec.u64s ob (n + 1) "offset" in
      (offsets, Codec.u64s ab (2 * m) "neighbor")
  in
  (* full structural re-validation, same as the text loaders — once the
     image is garbage, so the checker's transpose can reuse its memory *)
  Io_error.structured ~file (fun () ->
      match Graph.of_csr (Csr.of_arrays ~offsets ~adjacency) with
      | g -> g
      | exception Invalid_argument msg -> failf "snapshot fails validation: %s" msg)

let load path = of_string ~file:path (Codec.read_file path)
