module Node_set = Sgraph.Node_set

let to_string results =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "# %d node sets\n" (List.length results));
  List.iter
    (fun c ->
      Buffer.add_string buf
        (String.concat " " (List.map string_of_int (Node_set.to_list c)));
      Buffer.add_char buf '\n')
    results;
  Buffer.contents buf

let save results path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_string results);
      close_out oc)

let parse_line ~n lineno line =
  let fail msg = failwith (Printf.sprintf "results line %d: %s" lineno msg) in
  let tokens =
    List.filter
      (fun t -> String.length t > 0)
      (String.split_on_char ' '
         (String.map (function '\t' | '\r' -> ' ' | c -> c) line))
  in
  let members =
    List.map
      (fun tok ->
        match int_of_string_opt tok with
        | Some v when v >= n -> fail (Printf.sprintf "node id %S out of range (n=%d)" tok n)
        | Some v when v >= 0 -> v
        | Some _ -> fail (Printf.sprintf "negative node id %S" tok)
        | None -> fail (Printf.sprintf "expected a node id, got %S" tok))
      tokens
  in
  let set = Node_set.of_list members in
  if Node_set.cardinal set <> List.length members then fail "duplicate node in set";
  set

let parse_string ~n s =
  let lines = String.split_on_char '\n' s in
  List.concat
    (List.mapi
       (fun i line ->
         let trimmed = String.trim line in
         if String.length trimmed = 0 || trimmed.[0] = '#' then []
         else [ parse_line ~n (i + 1) line ])
       lines)

let load ~n path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  parse_string ~n contents

module Codec = Sgraph.Codec

module Stream = struct
  (* Crash-safe append-only record stream: a 7-byte magic ["SCLQS1\n"],
     then Codec frames. A process killed mid-write leaves a torn tail —
     a partial header, an oversized length, or a CRC mismatch — which
     readers detect and drop, reporting [`Torn] together with the byte
     length of the clean prefix so a resuming writer can truncate back
     to it and append. *)

  (* Corrupt length words must not drive a giant allocation: no record
     written by this module approaches this. *)
  let max_record_len = 1 lsl 28

  let format =
    {
      Codec.magic = "SCLQS1\n";
      name = "stream";
      title = "a scliques stream";
      max_frame = max_record_len;
      torn = Codec.Tolerate;
    }

  let magic = format.magic

  type writer = {
    path : string;
    oc : out_channel;
    fault : Scoll.Fault.t;
    mutable closed : bool;
  }

  let open_writer ?(fault = Scoll.Fault.none) path =
    let oc = open_out_bin path in
    output_string oc magic;
    { path; oc; fault; closed = false }

  let open_append ?(fault = Scoll.Fault.none) path ~clean_len =
    if clean_len < String.length magic || not (Sys.file_exists path) then
      open_writer ~fault path
    else begin
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      match
        Unix.ftruncate fd clean_len;
        ignore (Unix.lseek fd clean_len Unix.SEEK_SET : int)
      with
      | () -> { path; oc = Unix.out_channel_of_descr fd; fault; closed = false }
      | exception e ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          raise e
    end

  let encode_record payload = Codec.frame format payload

  let frame_overhead = String.length (encode_record "")

  let write_record w payload =
    Scoll.Fault.check w.fault "stream.write";
    output_string w.oc (encode_record payload)

  let flush w =
    Scoll.Fault.check w.fault "stream.flush";
    Stdlib.flush w.oc

  (* fsync before the close: a checkpoint or an SCLQIDX1 sidecar saved
     after [close] may name any record written before it *)
  let close w =
    if not w.closed then begin
      w.closed <- true;
      Fun.protect
        ~finally:(fun () -> close_out_noerr w.oc)
        (fun () ->
          Stdlib.flush w.oc;
          Scoll.Fault.check w.fault "stream.fsync";
          (try Unix.fsync (Unix.descr_of_out_channel w.oc)
           with Unix.Unix_error (e, _, _) ->
             raise (Sys_error (Printf.sprintf "%s: fsync: %s" w.path (Unix.error_message e))));
          close_out w.oc)
    end

  (* decimal digits of a non-negative int *)
  let rec width v = if v < 10 then 1 else 1 + width (v / 10)

  (* The members' decimal ids joined by single spaces, written straight
     into one buffer of the exact length: the bytes of
     [String.concat " " (List.map string_of_int (Node_set.to_list set))]. *)
  let encode_set set =
    let field v = if v >= 0 then width v else String.length (string_of_int v) in
    let len = Node_set.fold (fun v acc -> acc + 1 + field v) set 0 - 1 in
    if len < 0 then ""
    else begin
      let b = Bytes.create len in
      let pos = ref 0 in
      Node_set.iter
        (fun v ->
          if !pos > 0 then begin
            Bytes.set b !pos ' ';
            incr pos
          end;
          let w = field v in
          if v < 0 then Bytes.blit_string (string_of_int v) 0 b !pos w
          else begin
            let x = ref v in
            for i = !pos + w - 1 downto !pos do
              Bytes.set b i (Char.chr (48 + (!x mod 10)));
              x := !x / 10
            done
          end;
          pos := !pos + w)
        set;
      Bytes.to_string b
    end

  (* The number of ids in a payload [encode_set] could have written:
     ASCII digits in tokens of at most 18 (so none overflows), separated
     by single spaces, with none at either end. [-1] for anything else. *)
  let rec plain_count payload i tokens digits =
    if i = String.length payload then if digits > 0 then tokens else -1
    else
      match payload.[i] with
      | '0' .. '9' when digits < 18 -> plain_count payload (i + 1) tokens (digits + 1)
      | ' ' when digits > 0 -> plain_count payload (i + 1) (tokens + 1) 0
      | _ -> -1

  (* the ids of such a payload, in order *)
  let plain_ids payload tokens =
    let ids = Array.make tokens 0 in
    let k = ref 0 in
    for i = 0 to String.length payload - 1 do
      match payload.[i] with
      | ' ' -> incr k
      | c -> ids.(!k) <- (10 * ids.(!k)) + (Char.code c - 48)
    done;
    ids

  let rec ascending (a : int array) i =
    i >= Array.length a || (a.(i - 1) < a.(i) && ascending a (i + 1))

  let decode_set ?(file = "<string>") payload =
    (* the CRC already vouched for the bytes; a malformed payload means a
       foreign or buggy writer, which is a hard error, not a torn tail *)
    let tokens = if String.length payload = 0 then 0 else plain_count payload 0 1 0 in
    if tokens >= 0 then
      let ids = plain_ids payload tokens in
      if ascending ids 1 then Node_set.of_sorted_array_unchecked ids else Node_set.of_array ids
    else
      (* everything else takes the general tokenizer: any token
         [int_of_string_opt] reads ([+5], [007], [0x1f], [1_0], [-0]),
         runs of spaces, and the typed refusals *)
      let id tok =
        match int_of_string_opt tok with
        | Some v when v >= 0 -> v
        | Some _ -> Sgraph.Io_error.failf ~file ~line:0 "negative node id %S" tok
        | None -> Sgraph.Io_error.failf ~file ~line:0 "expected a node id, got %S" tok
      in
      Node_set.of_list
        (List.filter_map
           (fun tok -> if String.length tok = 0 then None else Some (id tok))
           (String.split_on_char ' ' payload))

  let write_set w set = write_record w (encode_set set)

  let records_of_string ~file src =
    Codec.decode format ~file (fun () ->
        let c = Codec.cursor src in
        match Codec.magic format c with
        | () -> Codec.records format c (Codec.read_frame format)
        | exception Codec.Error (Codec.Truncated _) ->
            (* a crash can even tear the magic itself *)
            ([], 0, `Torn))

  let read_records path = records_of_string ~file:path (Codec.read_file path)

  let open_resume ?fault ~from path ~records =
    let image = if Sys.file_exists from then Codec.read_file from else "" in
    let payloads =
      if String.length image = 0 then []
      else
        let payloads, _, _ = records_of_string ~file:from image in
        payloads
    in
    let held = List.length payloads in
    if held < records then
      Sgraph.Io_error.failf ~file:from ~line:0
        "stream holds %d intact records but the checkpoint vouches for %d" held records;
    let len =
      List.fold_left
        (fun len p -> len + frame_overhead + String.length p)
        (String.length magic)
        (List.filteri (fun i _ -> i < records) payloads)
    in
    if String.equal from path then open_append ?fault path ~clean_len:len
    else begin
      let w = open_writer ?fault path in
      output_substring w.oc image (String.length magic) (len - String.length magic);
      w
    end

  let read_results path =
    let records, _, tail = read_records path in
    (List.map (decode_set ~file:path) records, tail)
end

module Index = struct
  (* Persistent root->results index: the [SCLQIDX1] sidecar beside a
     root-grouped [SCLQS1] stream.

     Layout (all little-endian), mirroring the SGRDIFF1 record
     discipline — every record is [payload | u32le CRC-32 of payload]:

       magic   "SCLQIDX1"                                      8 bytes
       header  u64 stream_len | u32 s | u32 n                 24 + 4
       entry   u32 root | u32 fingerprint | u64 offset
               | u64 extent | u32 count                       28 + 4

     Exactly [n] entries follow the header, one per root in ascending
     order, so a refresh finds every root's branch fingerprint without
     touching the stream — roots with no results carry a zero extent.
     [offset]/[extent] delimit the root's contiguous run of records in
     the stream ([offset] from the start of the file), which is what
     turns retract-and-splice into seek-and-patch.

     Unlike the stream it describes, the index is a transaction, not an
     append log: any truncation, byte flip or mismatch against the
     stream's byte length is refused outright with a typed
     [Io_error.Parse_error]. A refused index costs only a rebuild from
     the stream (it is derived data), whereas trusting a half-written
     one would patch result bytes into the wrong extents. *)

  let format =
    {
      Codec.magic = "SCLQIDX1";
      name = "index";
      title = "an index";
      max_frame = 0;
      torn = Codec.Refuse;
    }

  let magic = format.magic

  let failf path fmt = Sgraph.Io_error.failf ~file:path ~line:0 fmt

  type entry = { fingerprint : int; offset : int; extent : int; count : int }

  type t = {
    stream_len : int; (* clean byte length of the stream this indexes *)
    s : int;
    entries : entry array; (* entries.(root), one per root *)
  }

  let n t = Array.length t.entries

  let path_for stream_path = stream_path ^ ".idx"

  let header_payload t =
    let b = Bytes.create 24 in
    Bytes.set_int64_le b 0 (Int64.of_int t.stream_len);
    Bytes.set_int32_le b 8 (Int32.of_int t.s);
    Bytes.set_int32_le b 12 (Int32.of_int (Array.length t.entries));
    Bytes.set_int64_le b 16 0L (* reserved *);
    b

  let entry_payload root e =
    let b = Bytes.create 28 in
    Bytes.set_int32_le b 0 (Int32.of_int root);
    Bytes.set_int32_le b 4 (Int32.of_int e.fingerprint);
    Bytes.set_int64_le b 8 (Int64.of_int e.offset);
    Bytes.set_int64_le b 16 (Int64.of_int e.extent);
    Bytes.set_int32_le b 24 (Int32.of_int e.count);
    b

  let to_string t =
    let buf = Buffer.create (8 + 28 + (32 * Array.length t.entries)) in
    Buffer.add_string buf magic;
    Codec.record (Buffer.add_bytes buf) (header_payload t);
    Array.iteri (fun root e -> Codec.record (Buffer.add_bytes buf) (entry_payload root e)) t.entries;
    Buffer.contents buf

  let save t path =
    Codec.durable_replace ~site:"index" path (fun oc -> output_string oc (to_string t))

  let max_node_count = 1 lsl 30

  let of_string ~file src =
    Codec.decode format ~file (fun () ->
        let c = Codec.cursor src in
        Codec.magic format c;
        let h = Codec.read_record c 24 "header" in
        let stream_len = Codec.u64 h "stream length" in
        let s = Codec.u32 h "s" in
        let count = Codec.u32 h "root count" in
        if s < 1 then failf file "index has s = %d (must be >= 1)" s;
        if count > max_node_count then
          failf file "index root count %d exceeds the %d limit" count
            max_node_count;
        if stream_len < String.length Stream.magic then
          failf file "index claims a stream of %d bytes (shorter than the \
                      stream magic)" stream_len;
        (* every entry record is 28 + 4 bytes: refuse a short image before
           the count drives the allocation *)
        Codec.need c (32 * count) "entry record";
        let covered = ref 0 in
        let entries =
          Array.init count (fun root ->
              let e = Codec.read_record c 28 "entry record" in
              let r = Codec.u32 e "root" in
              if r <> root then
                failf file "index entry %d names root %d (entries must be \
                            ascending and complete)" root r;
              let fingerprint = Codec.u32 e "fingerprint" in
              let offset = Codec.u64 e "entry offset" in
              let extent = Codec.u64 e "entry extent" in
              let count = Codec.u32 e "record count" in
              if (count = 0) <> (extent = 0) then
                failf file "index root %d has %d records in %d bytes" root
                  count extent;
              if extent > 0 then begin
                if offset < String.length Stream.magic then
                  failf file "index root %d extent starts inside the stream \
                              magic" root;
                if offset + extent > stream_len then
                  failf file "index root %d extent ends past the stream \
                              (%d+%d > %d)" root offset extent stream_len;
                covered := !covered + extent
              end;
              { fingerprint; offset; extent; count })
        in
        Codec.finish c;
        if !covered + String.length Stream.magic <> stream_len then
          failf file "index extents cover %d of %d stream payload bytes"
            !covered
            (stream_len - String.length Stream.magic);
        { stream_len; s; entries })

  let load path = of_string ~file:path (Codec.read_file path)

  (* {2 Building from a stream} *)

  let build ~s ~n ~fingerprint path =
    if s < 1 then invalid_arg "Index.build: s must be >= 1";
    if n < 0 then invalid_arg "Index.build: negative node count";
    let records, clean_len, tail = Stream.read_records path in
    (match tail with
    | `Clean -> ()
    | `Torn -> failf path "torn stream cannot be indexed");
    let entries =
      Array.init n (fun root ->
          { fingerprint = fingerprint root; offset = 0; extent = 0; count = 0 })
    in
    let seen = Array.make (max n 1) false in
    let cur = ref (-1) in
    let cur_off = ref 0 in
    let cur_extent = ref 0 in
    let cur_count = ref 0 in
    let flush_group () =
      if !cur >= 0 then begin
        entries.(!cur) <-
          {
            (entries.(!cur)) with
            offset = !cur_off;
            extent = !cur_extent;
            count = !cur_count;
          };
        seen.(!cur) <- true
      end
    in
    let off = ref (String.length Stream.magic) in
    List.iter
      (fun payload ->
        let set = Stream.decode_set ~file:path payload in
        if Node_set.is_empty set then
          failf path "stream has an empty result record";
        let root = Node_set.min_elt set in
        if root >= n then
          failf path "stream result rooted at %d, but the graph has %d nodes"
            root n;
        if root <> !cur then begin
          flush_group ();
          if seen.(root) then
            failf path
              "stream is not grouped by root (root %d appears twice)" root;
          cur := root;
          cur_off := !off;
          cur_extent := 0;
          cur_count := 0
        end;
        let len = 8 + String.length payload in
        cur_extent := !cur_extent + len;
        incr cur_count;
        off := !off + len)
      records;
    flush_group ();
    { stream_len = clean_len; s; entries }

  (* {2 Seek-and-patch splice} *)

  type splice_stats = {
    roots_patched : int;
    fresh_bytes : int; (* bytes newly encoded for patched roots *)
    copied_bytes : int; (* bytes copied verbatim, never decoded *)
  }

  let copy_extent ic oc ~offset ~extent =
    seek_in ic offset;
    let buf = Bytes.create (min extent 65536) in
    let remaining = ref extent in
    while !remaining > 0 do
      let k = min !remaining (Bytes.length buf) in
      really_input ic buf 0 k;
      output oc buf 0 k;
      remaining := !remaining - k
    done

  let splice ~old_stream ~index ~patched ~out =
    let n = Array.length index.entries in
    let actual =
      let ic = open_in_bin old_stream in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> in_channel_length ic)
    in
    if actual <> index.stream_len then
      failf old_stream
        "index is stale: it describes a stream of %d bytes, the file has %d"
        index.stream_len actual;
    let patch = Array.make (max n 1) None in
    List.iter
      (fun ((root, _, _) as p) ->
        if root < 0 || root >= n then
          invalid_arg "Index.splice: patched root out of range";
        if Option.is_some patch.(root) then
          invalid_arg "Index.splice: duplicate patched root";
        patch.(root) <- Some p)
      patched;
    let entries = Array.make (max n 1) { fingerprint = 0; offset = 0; extent = 0; count = 0 } in
    let fresh = ref 0 and copied = ref 0 and roots_patched = ref 0 in
    let pos = ref (String.length Stream.magic) in
    let ic = open_in_bin old_stream in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        Codec.durable_replace ~site:"splice" out (fun oc ->
            output_string oc Stream.magic;
            for root = 0 to n - 1 do
              let old = index.entries.(root) in
              match patch.(root) with
              | Some (_, fingerprint, sets) ->
                  incr roots_patched;
                  let extent = ref 0 and count = ref 0 in
                  List.iter
                    (fun set ->
                      let r = Stream.encode_record (Stream.encode_set set) in
                      output_string oc r;
                      extent := !extent + String.length r;
                      incr count)
                    sets;
                  fresh := !fresh + !extent;
                  entries.(root) <-
                    {
                      fingerprint;
                      offset = (if !count = 0 then 0 else !pos);
                      extent = !extent;
                      count = !count;
                    };
                  pos := !pos + !extent
              | None ->
                  if old.extent > 0 then begin
                    copy_extent ic oc ~offset:old.offset ~extent:old.extent;
                    copied := !copied + old.extent
                  end;
                  entries.(root) <-
                    { old with offset = (if old.extent = 0 then 0 else !pos) };
                  pos := !pos + old.extent
            done));
    let stream_len = !pos in
    let t = { stream_len; s = index.s; entries } in
    save t (path_for out);
    ( t,
      {
        roots_patched = !roots_patched;
        fresh_bytes = !fresh;
        copied_bytes = !copied;
      } )
end
