(* The shared codec and the durable writer.

   One fuzz surface over every binary decoder: SGRSNAP1, SGRDIFF1,
   SCLQIDX1, SCLQS1, checkpoints and the SCLQRPC1 frame. Every prefix
   truncation, every single-byte flip and random junk must end in one
   of two outcomes: an answer the format allows (an SCLQS1 clean prefix,
   an SGRDIFF1 cut exactly at a record boundary), or that format's one
   typed error. Anything else — another exception, a different answer —
   fails.

   Then the power-loss model of [Codec.durable_replace]: a fault at each
   of its sites leaves the target with all of its old bytes or all of
   the new ones, even when the unsynced temp file is lost. The sites
   prove the order of operations, not that a device honours fsync. *)

module G = Sgraph.Graph
module NS = Sgraph.Node_set
module O = Sgraph.Overlay
module Codec = Sgraph.Codec
module Stream = Scliques_core.Result_io.Stream
module Index = Scliques_core.Result_io.Index
module Ckpt = Scliques_core.Checkpoint
module P = Scliques_daemon.Protocol
module Fault = Scoll.Fault

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

(* an image written by the format's own file writer *)
let via_file suffix save =
  let path = Filename.temp_file "scliques_codec" suffix in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      save path;
      read_file path)

(* ---------- the table ---------- *)

(* One valid image, with what its mutations may decode to. [cut k] is
   the answer the first [k] bytes must decode to, or [None] when that
   prefix must be refused; [flip_ok] says whether an image with one
   flipped byte may decode to the given answer. *)
type sample = { image : string; cut : int -> string option; flip_ok : string -> bool }

type row = {
  name : string;
  magic : string;
  sample : sample QCheck2.Gen.t;
  decode : string -> string;  (** the decoded answer, printed *)
  typed : exn -> bool;  (** the format's one typed error *)
}

let parse_error = function Sgraph.Io_error.Parse_error _ -> true | _ -> false

let whole image answer k = if k = String.length image then Some answer else None

let strict image answer = { image; cut = whole image answer; flip_ok = (fun _ -> false) }

let file = "<fuzz>"

let show_graph g =
  Printf.sprintf "n=%d %s" (G.n g)
    (String.concat "," (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) (G.edges g)))

let snapshot_row =
  let sample =
    QCheck2.Gen.(
      map2
        (fun (n, m) seed ->
          let g =
            Sgraph.Gen.erdos_renyi_gnm (Scoll.Rng.create seed) ~n
              ~m:(min m (n * (n - 1) / 2))
          in
          strict (via_file ".sgr" (Sgraph.Snapshot.save g)) (show_graph g))
        (pair (int_range 0 9) (int_range 0 20))
        (int_range 0 1_000_000))
  in
  {
    name = "SGRSNAP1";
    magic = "SGRSNAP1";
    sample;
    decode = (fun s -> show_graph (Sgraph.Snapshot.of_string ~file s));
    typed = parse_error;
  }

let show_diff (h : Sgraph.Diff.header) edits =
  Printf.sprintf "%d/%d %s" h.base_n h.base_m
    (String.concat "," (List.map (Format.asprintf "%a" O.pp_edit) edits))

let diff_row =
  let edit n =
    QCheck2.Gen.(
      map3
        (fun ins u d ->
          let v = (u + d) mod n in
          if ins then O.Insert (u, v) else O.Delete (u, v))
        bool (int_range 0 (n - 1)) (int_range 1 (n - 1)))
  in
  let sample =
    QCheck2.Gen.(
      int_range 2 40 >>= fun n ->
      int_range 0 (n * (n - 1) / 2) >>= fun m ->
      list_size (int_range 0 6) (edit n) >>= fun edits ->
      let image = Sgraph.Diff.to_string ~base_n:n ~base_m:m edits in
      let header = { Sgraph.Diff.base_n = n; base_m = m } in
      (* a cut at a record boundary is a shorter script *)
      let cut k =
        if k >= 28 && (k - 28) mod 21 = 0 then
          Some (show_diff header (List.filteri (fun i _ -> i < (k - 28) / 21) edits))
        else None
      in
      return { image; cut; flip_ok = (fun _ -> false) })
  in
  {
    name = "SGRDIFF1";
    magic = Sgraph.Diff.magic;
    sample;
    decode =
      (fun s ->
        let h, edits = Sgraph.Diff.of_string ~file s in
        show_diff h edits);
    typed = parse_error;
  }

let show_index (t : Index.t) =
  Printf.sprintf "%d s=%d %s" t.stream_len t.s
    (String.concat ","
       (Array.to_list
          (Array.map
             (fun (e : Index.entry) ->
               Printf.sprintf "%x@%d+%d#%d" e.fingerprint e.offset e.extent e.count)
             t.entries)))

let index_row =
  let sample =
    QCheck2.Gen.(
      pair (int_range 1 3)
        (list_size (int_range 1 6) (triple (int_range 0 0xFFFFFFFF) (int_range 0 3) (int_range 1 40)))
      >>= fun (s, roots) ->
      (* extents tile the stream after its magic, in root order *)
      let pos = ref (String.length Stream.magic) in
      let entries =
        Array.of_list
          (List.map
             (fun (fingerprint, count, bytes) ->
               let extent = if count = 0 then 0 else bytes in
               let offset = if count = 0 then 0 else !pos in
               pos := !pos + extent;
               { Index.fingerprint; offset; extent; count })
             roots)
      in
      let t = { Index.stream_len = !pos; s; entries } in
      return (strict (Index.to_string t) (show_index t)))
  in
  {
    name = "SCLQIDX1";
    magic = Index.magic;
    sample;
    decode = (fun s -> show_index (Index.of_string ~file s));
    typed = parse_error;
  }

let show_records records clean tail =
  Printf.sprintf "%s %d %s"
    (String.concat "," (List.map (Printf.sprintf "%S") records))
    clean
    (match tail with `Clean -> "clean" | `Torn -> "torn")

let stream_row =
  let sample =
    QCheck2.Gen.(
      list_size (int_range 0 6) (string_size ~gen:char (int_range 0 12)) >>= fun records ->
      let frames = List.map Stream.encode_record records in
      let image = String.concat "" (Stream.magic :: frames) in
      (* the clean prefixes: the magic, then after each whole frame *)
      let boundaries =
        List.rev
          (snd
             (List.fold_left
                (fun (pos, acc) (i, f) ->
                  let pos = pos + String.length f in
                  (pos, (pos, i + 1) :: acc))
                (String.length Stream.magic, [ (String.length Stream.magic, 0) ])
                (List.mapi (fun i f -> (i, f)) frames)))
      in
      let first j = List.filteri (fun i _ -> i < j) records in
      (* every prefix decodes: to the whole records before the cut, torn
         unless the cut is exactly at a boundary *)
      let cut k =
        match List.filter (fun (b, _) -> b <= k) boundaries with
        | [] -> Some (show_records [] 0 `Torn)
        | l ->
            let b, j = List.nth l (List.length l - 1) in
            Some (show_records (first j) b (if b = k then `Clean else `Torn))
      in
      let flip_ok answer =
        List.exists (fun (b, j) -> String.equal answer (show_records (first j) b `Torn)) boundaries
      in
      return { image; cut; flip_ok })
  in
  {
    name = "SCLQS1";
    magic = Stream.magic;
    sample;
    decode =
      (fun s ->
        let records, clean, tail = Stream.records_of_string ~file s in
        show_records records clean tail);
    typed = parse_error;
  }

let show_ckpt (t : Ckpt.t) =
  Printf.sprintf "%s %d %d %d %d %d %s" t.algorithm t.s t.n t.m t.min_size t.emitted
    (match t.state with
    | Ckpt.Roots { retired } -> "R" ^ String.concat "," (List.map string_of_int retired)
    | Ckpt.Pd_frontier { index; queue } ->
        let sets l = String.concat ";" (List.map (Format.asprintf "%a" NS.pp) l) in
        "P" ^ sets index ^ "/" ^ sets queue
    | Ckpt.Brute_mask { next_mask } -> "M" ^ string_of_int next_mask)

let ckpt_row =
  let sample =
    QCheck2.Gen.(
      let set = map NS.of_list (list_size (int_range 0 4) (int_range 0 30)) in
      oneof
        [
          map (fun l -> Ckpt.Roots { retired = l }) (list_size (int_range 0 6) (int_range 0 99));
          map2
            (fun index queue -> Ckpt.Pd_frontier { index; queue })
            (list_size (int_range 0 3) set) (list_size (int_range 0 3) set);
          map (fun m -> Ckpt.Brute_mask { next_mask = m }) (int_range 0 100000);
        ]
      >>= fun state ->
      quad (int_range 1 3) (int_range 0 50) (int_range 0 99) (int_range 0 9)
      >>= fun (s, n, m, emitted) ->
      let t = { Ckpt.algorithm = "CSCliques2"; s; n; m; min_size = 0; emitted; state } in
      return (strict (via_file ".ck" (Ckpt.save t)) (show_ckpt t)))
  in
  {
    name = "checkpoint";
    magic = Stream.magic;
    sample;
    decode = (fun s -> show_ckpt (Ckpt.of_string ~file s));
    typed = parse_error;
  }

let frame_row =
  let sample =
    QCheck2.Gen.(
      map
        (fun payload ->
          let image = P.encode_frame payload in
          strict image (Printf.sprintf "%S@%d" payload (String.length image)))
        (string_size ~gen:char (int_range 0 40)))
  in
  {
    name = "SCLQRPC1 frame";
    magic = "";
    sample;
    decode =
      (fun s ->
        let payload, next = P.decode_frame s ~pos:0 in
        Printf.sprintf "%S@%d" payload next);
    typed = (function P.Error _ -> true | _ -> false);
  }

let rows = [ snapshot_row; diff_row; index_row; stream_row; ckpt_row; frame_row ]

(* ---------- the properties ---------- *)

let outcome row input = match row.decode input with a -> Ok a | exception e -> Error e

let fail_untyped row what e =
  QCheck2.Test.fail_reportf "%s %s: untyped %s" row.name what (Printexc.to_string e)

let prop_truncation row =
  QCheck2.Test.make ~count:60 ~name:(row.name ^ ": every prefix decodes as allowed or is refused typed")
    row.sample (fun smp ->
      for k = 0 to String.length smp.image do
        match (outcome row (String.sub smp.image 0 k), smp.cut k) with
        | Ok got, Some want when String.equal got want -> ()
        | Ok got, Some want ->
            QCheck2.Test.fail_reportf "%s prefix %d: decoded %s, expected %s" row.name k got
              want
        | Ok got, None -> QCheck2.Test.fail_reportf "%s prefix %d decoded: %s" row.name k got
        | Error e, None when row.typed e -> ()
        | Error e, _ when row.typed e ->
            QCheck2.Test.fail_reportf "%s prefix %d refused: %s" row.name k
              (Printexc.to_string e)
        | Error e, _ -> fail_untyped row (Printf.sprintf "prefix %d" k) e
      done;
      true)

let prop_flips row =
  QCheck2.Test.make ~count:60 ~name:(row.name ^ ": every one-byte flip is refused typed")
    QCheck2.Gen.(pair row.sample (int_range 1 255))
    (fun (smp, xor) ->
      String.iteri
        (fun i c ->
          let b = Bytes.of_string smp.image in
          Bytes.set b i (Char.chr (Char.code c lxor xor));
          match outcome row (Bytes.to_string b) with
          | Ok got when smp.flip_ok got -> ()
          | Ok got -> QCheck2.Test.fail_reportf "%s flip at %d decoded: %s" row.name i got
          | Error e when row.typed e -> ()
          | Error e -> fail_untyped row (Printf.sprintf "flip at %d" i) e)
        smp.image;
      true)

let prop_junk row =
  let junk = QCheck2.Gen.(string_size ~gen:char (int_range 0 120)) in
  QCheck2.Test.make ~count:300 ~name:(row.name ^ ": junk is refused typed")
    QCheck2.Gen.(pair bool junk)
    (fun (behind_magic, junk) ->
      (* behind the magic, junk reaches the record decoders *)
      let input = if behind_magic then row.magic ^ junk else junk in
      match outcome row input with
      | Ok _ -> true
      | Error e when row.typed e -> true
      | Error e -> fail_untyped row "junk" e)

let fuzz_tests =
  List.concat_map
    (fun row ->
      List.map QCheck_alcotest.to_alcotest
        [ prop_truncation row; prop_flips row; prop_junk row ])
    rows

(* ---------- durable_replace ---------- *)

let sites = [ "write"; "fsync"; "rename"; "dirsync" ]

let with_dir f =
  let dir = Filename.temp_file "scliques_durable" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let replace ?fault path bytes =
  Codec.durable_replace ?fault ~site:"t" path (fun oc -> output_string oc bytes)

(* what a power loss can do to bytes that were never fsynced: keep only
   a torn part of them *)
let lose_unsynced path =
  if Sys.file_exists path then begin
    let s = read_file path in
    write_file path (String.sub s 0 (String.length s / 2))
  end

let test_old_or_new () =
  let old_bytes = String.make 5000 'o' and new_bytes = String.make 7000 'n' in
  List.iter
    (fun site ->
      with_dir (fun dir ->
          let path = Filename.concat dir "target" in
          replace path old_bytes;
          let fault = Fault.create () in
          Fault.arm_nth fault ~site:("t." ^ site) ~n:1;
          (match replace ~fault path new_bytes with
          | () -> Alcotest.failf "fault at %s did not fire" site
          | exception Fault.Injected _ -> ());
          lose_unsynced (path ^ ".tmp");
          let got = read_file path in
          if not (String.equal got old_bytes || String.equal got new_bytes) then
            Alcotest.failf "fault at %s left %d bytes that are neither old nor new" site
              (String.length got);
          (* the next replace recovers from whatever the fault left *)
          replace path new_bytes;
          Alcotest.(check string) (site ^ ": next replace lands") new_bytes (read_file path);
          Alcotest.(check bool) (site ^ ": no temp file left") false
            (Sys.file_exists (path ^ ".tmp"))))
    sites

(* What each site has already done when its fault fires pins the order:
   write, then fsync, then rename, then the directory sync. *)
let test_order () =
  List.iter
    (fun (site, tmp_holds, target_holds) ->
      with_dir (fun dir ->
          let path = Filename.concat dir "target" in
          replace path "old";
          let fault = Fault.create () in
          Fault.arm_nth fault ~site:("t." ^ site) ~n:1;
          (try replace ~fault path "new" with Fault.Injected _ -> ());
          let tmp = path ^ ".tmp" in
          Alcotest.(check (option string))
            (site ^ ": temp file")
            tmp_holds
            (if Sys.file_exists tmp then Some (read_file tmp) else None);
          Alcotest.(check string) (site ^ ": target") target_holds (read_file path)))
    [
      ("write", Some "", "old");
      ("fsync", Some "new", "old");
      ("rename", Some "new", "old");
      ("dirsync", None, "new");
    ]

let test_missing_dir () =
  match replace "/nonexistent/dir/target" "x" with
  | () -> Alcotest.fail "replace into a missing directory succeeded"
  | exception Sys_error _ -> ()

let durable_tests =
  [
    Alcotest.test_case "a fault at every site leaves old or new bytes" `Quick
      test_old_or_new;
    Alcotest.test_case "sites fire in write-fsync-rename-dirsync order" `Quick test_order;
    Alcotest.test_case "I/O failure is a Sys_error" `Quick test_missing_dir;
  ]

let suites = [ ("codec_fuzz", fuzz_tests); ("durable", durable_tests) ]
