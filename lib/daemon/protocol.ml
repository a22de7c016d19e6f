module E = Scliques_core.Enumerate
module Budget = Scliques_core.Budget
module Ckpt = Scliques_core.Checkpoint
module Node_set = Sgraph.Node_set

type error =
  | Bad_magic of string
  | Truncated of string
  | Oversized of int
  | Crc_mismatch
  | Bad_opcode of int
  | Bad_payload of string

exception Error of error

let error_to_string = function
  | Bad_magic got -> Printf.sprintf "bad magic %S (not an SCLQRPC1 peer)" got
  | Truncated what -> Printf.sprintf "truncated %s" what
  | Oversized len -> Printf.sprintf "oversized frame (%d bytes)" len
  | Crc_mismatch -> "frame CRC mismatch"
  | Bad_opcode op -> Printf.sprintf "unknown opcode %d" op
  | Bad_payload what -> Printf.sprintf "malformed payload (%s)" what

let fail e = raise (Error e)

let magic = "SCLQRPC1"

let max_payload = 1 lsl 26

type engine = Alg of E.algorithm

type query = {
  q_id : int;
  q_engine : engine;
  q_graph : string;
  q_s : int;
  q_min_size : int;
  q_deadline_s : float option;
  q_max_results : int option;
  q_resume : Ckpt.state option;
}

type mutate = { m_id : int; m_graph : string; m_script : string }

type request =
  | Query of query
  | Mutate of mutate
  | Reload of { rl_id : int; rl_graph : string }
  | Cancel of int
  | Hello of { h_token : string }
  | List_graphs
  | Ping

type done_info = {
  d_id : int;
  d_outcome : Budget.outcome;
  d_emitted : int;
  d_resume : Ckpt.state option;
}

type error_code = Bad_request | Server_error

type graph_info = { g_name : string; g_n : int; g_m : int; g_epoch : int }

type response =
  | Result of int * string
  | Done of done_info
  | Busy of { b_id : int; b_running : int; b_queued : int }
  | Retry_after of { ra_id : int; ra_seconds : float }
  | Mutated of { mu_id : int; mu_epoch : int; mu_edits : int; mu_n : int; mu_m : int }
  | Reloaded of { rl_id : int; rl_epoch : int; rl_n : int; rl_m : int }
  | Error_resp of { e_id : int; e_code : error_code; e_msg : string }
  | Graphs of graph_info list
  | Pong

(* ---------- the codec, and little-endian primitives ---------- *)

module Codec = Sgraph.Codec

let format =
  {
    Codec.magic;
    name = "frame";
    title = "an SCLQRPC1 peer";
    max_frame = max_payload;
    torn = Codec.Refuse;
  }

let add_u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))

let add_u16 b v = Buffer.add_uint16_le b v

(* refused, not wrapped: -1 sent as 4294967295 is another request id,
   so the reply to it would never be recognised *)
let add_u32 b v =
  if v < 0 || v > 0xFFFF_FFFF then
    invalid_arg (Printf.sprintf "Protocol: %d does not fit a u32 field" v);
  Buffer.add_int32_le b (Int32.of_int v)

let add_u64 b v = Buffer.add_int64_le b (Int64.of_int v)

let add_f64 b v = Buffer.add_int64_le b (Int64.bits_of_float v)

(* The codec's errors as this protocol names them. Inside a payload every
   read names the field it is after, so a short buffer is a malformed
   payload; at the frame level it is a torn frame. *)
let of_codec ~in_payload = function
  | Codec.Truncated what when in_payload -> Bad_payload ("truncated " ^ what)
  | Codec.Truncated what -> Truncated what
  | Codec.Bad_magic got -> Bad_magic got
  | Codec.Oversized len -> Oversized len
  | Codec.Crc_mismatch _ -> Crc_mismatch
  | Codec.Out_of_range { what; _ } -> Bad_payload (what ^ " out of range")
  | Codec.Trailing -> Bad_payload "trailing garbage"

let typed ~in_payload f = try f () with Codec.Error e -> fail (of_codec ~in_payload e)

(* ---------- engines and outcomes ---------- *)

let engine_code = function
  | Alg E.Poly_delay -> 0
  | Alg E.Cs1 -> 1
  | Alg E.Cs2 -> 2
  | Alg E.Cs2_f -> 3
  | Alg E.Cs2_p -> 4
  | Alg E.Cs2_pf -> 5
  | Alg E.Brute -> 6

let engine_of_code = function
  | 0 -> Alg E.Poly_delay
  | 1 -> Alg E.Cs1
  | 2 -> Alg E.Cs2
  | 3 -> Alg E.Cs2_f
  | 4 -> Alg E.Cs2_p
  | 5 -> Alg E.Cs2_pf
  | 6 -> Alg E.Brute
  | n -> fail (Bad_payload (Printf.sprintf "unknown engine code %d" n))

let outcome_code = function
  | Budget.Complete -> 0
  | Budget.Truncated Budget.Deadline -> 1
  | Budget.Truncated Budget.Max_results -> 2
  | Budget.Truncated Budget.Max_cache_bytes -> 3
  | Budget.Truncated Budget.Cancelled -> 4

let outcome_of_code = function
  | 0 -> Budget.Complete
  | 1 -> Budget.Truncated Budget.Deadline
  | 2 -> Budget.Truncated Budget.Max_results
  | 3 -> Budget.Truncated Budget.Max_cache_bytes
  | 4 -> Budget.Truncated Budget.Cancelled
  | n -> fail (Bad_payload (Printf.sprintf "unknown outcome code %d" n))

(* ---------- resume tokens ---------- *)

(* wire shape of a Checkpoint.state:
   1 (roots)  u32 count, count x u32 retired root ids
   2 (pd)     two set lists (index, queue), each u32 nsets then per set
              u32 cardinality + that many u32 node ids
   3 (brute)  u64 next scan mask *)

let add_set_list b sets =
  add_u32 b (List.length sets);
  List.iter
    (fun set ->
      add_u32 b (Node_set.cardinal set);
      Node_set.iter (fun v -> add_u32 b v) set)
    sets

(* List.init does not pin the order its thunk runs in; cursor reads must
   be strictly left-to-right, so collect with an explicit countdown *)
let read_list count f =
  let rec go n acc = if n = 0 then List.rev acc else go (n - 1) (f () :: acc) in
  go count []

let read_set_list c what =
  let nsets = Codec.u32 c (what ^ " count") in
  Codec.need c (4 * nsets) what;
  read_list nsets (fun () ->
      let card = Codec.u32 c (what ^ " set size") in
      Codec.need c (4 * card) (what ^ " set members");
      Node_set.of_list (read_list card (fun () -> Codec.u32 c what)))

let add_state b = function
  | Ckpt.Roots { retired } ->
      add_u8 b 1;
      add_u32 b (List.length retired);
      List.iter (fun v -> add_u32 b v) retired
  | Ckpt.Pd_frontier { index; queue } ->
      add_u8 b 2;
      add_set_list b index;
      add_set_list b queue
  | Ckpt.Brute_mask { next_mask } ->
      add_u8 b 3;
      add_u64 b next_mask

let read_state c =
  match Codec.u8 c "resume token family" with
  | 1 ->
      let count = Codec.u32 c "retired root count" in
      Codec.need c (4 * count) "retired root ids";
      Ckpt.Roots { retired = read_list count (fun () -> Codec.u32 c "retired root id") }
  | 2 ->
      let index = read_set_list c "pd index" in
      let queue = read_set_list c "pd queue" in
      Ckpt.Pd_frontier { index; queue }
  | 3 -> Ckpt.Brute_mask { next_mask = Codec.u64 c "brute mask" }
  | n -> fail (Bad_payload (Printf.sprintf "unknown resume token family %d" n))

let add_state_opt b = function
  | None -> add_u8 b 0
  | Some st ->
      add_u8 b 1;
      add_state b st

let read_state_opt c =
  match Codec.u8 c "resume token flag" with
  | 0 -> None
  | 1 -> Some (read_state c)
  | n -> fail (Bad_payload (Printf.sprintf "bad resume token flag %d" n))

(* ---------- requests ---------- *)

let encode_request req =
  let b = Buffer.create 64 in
  (match req with
  | Query q ->
      Buffer.add_char b 'Q';
      add_u32 b q.q_id;
      add_u8 b (engine_code q.q_engine);
      add_u32 b q.q_s;
      add_u32 b q.q_min_size;
      (match q.q_deadline_s with
      | None -> add_u8 b 0
      | Some d ->
          add_u8 b 1;
          add_f64 b d);
      (match q.q_max_results with
      | None -> add_u8 b 0
      | Some m ->
          add_u8 b 1;
          add_u32 b m);
      add_u16 b (String.length q.q_graph);
      Buffer.add_string b q.q_graph;
      add_state_opt b q.q_resume
  | Mutate m ->
      Buffer.add_char b 'M';
      add_u32 b m.m_id;
      add_u16 b (String.length m.m_graph);
      Buffer.add_string b m.m_graph;
      add_u32 b (String.length m.m_script);
      Buffer.add_string b m.m_script
  | Reload { rl_id; rl_graph } ->
      Buffer.add_char b 'R';
      add_u32 b rl_id;
      add_u16 b (String.length rl_graph);
      Buffer.add_string b rl_graph
  | Cancel id ->
      Buffer.add_char b 'C';
      add_u32 b id
  | Hello { h_token } ->
      Buffer.add_char b 'H';
      add_u16 b (String.length h_token);
      Buffer.add_string b h_token
  | List_graphs -> Buffer.add_char b 'L'
  | Ping -> Buffer.add_char b 'P');
  Buffer.contents b

let decode_request payload =
  typed ~in_payload:true @@ fun () ->
  let c = Codec.cursor payload in
  let req =
    match Codec.u8 c "opcode" with
    | 0x51 (* 'Q' *) ->
        let q_id = Codec.u32 c "query id" in
        let q_engine = engine_of_code (Codec.u8 c "engine") in
        let q_s = Codec.u32 c "s" in
        let q_min_size = Codec.u32 c "min size" in
        let q_deadline_s =
          match Codec.u8 c "deadline flag" with
          | 0 -> None
          | 1 -> Some (Codec.f64 c "deadline")
          | n -> fail (Bad_payload (Printf.sprintf "bad deadline flag %d" n))
        in
        let q_max_results =
          match Codec.u8 c "max-results flag" with
          | 0 -> None
          | 1 -> Some (Codec.u32 c "max results")
          | n -> fail (Bad_payload (Printf.sprintf "bad max-results flag %d" n))
        in
        let name_len = Codec.u16 c "graph name length" in
        let q_graph = Codec.string c name_len "graph name" in
        let q_resume = read_state_opt c in
        Query { q_id; q_engine; q_graph; q_s; q_min_size; q_deadline_s; q_max_results; q_resume }
    | 0x4D (* 'M' *) ->
        let m_id = Codec.u32 c "mutation id" in
        let name_len = Codec.u16 c "graph name length" in
        let m_graph = Codec.string c name_len "graph name" in
        let script_len = Codec.u32 c "script length" in
        let m_script = Codec.string c script_len "edit script" in
        Mutate { m_id; m_graph; m_script }
    | 0x52 (* 'R' *) ->
        let rl_id = Codec.u32 c "reload id" in
        let name_len = Codec.u16 c "graph name length" in
        let rl_graph = Codec.string c name_len "graph name" in
        Reload { rl_id; rl_graph }
    | 0x43 (* 'C' *) -> Cancel (Codec.u32 c "cancel id")
    | 0x48 (* 'H' *) ->
        let token_len = Codec.u16 c "token length" in
        let h_token = Codec.string c token_len "client token" in
        Hello { h_token }
    | 0x4C (* 'L' *) -> List_graphs
    | 0x50 (* 'P' *) -> Ping
    | op -> fail (Bad_opcode op)
  in
  Codec.finish c;
  req

(* ---------- responses ---------- *)

let error_code_byte = function Bad_request -> 1 | Server_error -> 2

let error_code_of_byte = function
  | 1 -> Bad_request
  | 2 -> Server_error
  | n -> fail (Bad_payload (Printf.sprintf "unknown error code %d" n))

let encode_response resp =
  let b = Buffer.create 64 in
  (match resp with
  | Result (id, set) ->
      Buffer.add_char b 'R';
      add_u32 b id;
      Buffer.add_string b set
  | Done d ->
      Buffer.add_char b 'D';
      add_u32 b d.d_id;
      add_u8 b (outcome_code d.d_outcome);
      add_u64 b d.d_emitted;
      add_state_opt b d.d_resume
  | Busy { b_id; b_running; b_queued } ->
      Buffer.add_char b 'B';
      add_u32 b b_id;
      add_u32 b b_running;
      add_u32 b b_queued
  | Retry_after { ra_id; ra_seconds } ->
      Buffer.add_char b 'A';
      add_u32 b ra_id;
      add_f64 b ra_seconds
  | Mutated { mu_id; mu_epoch; mu_edits; mu_n; mu_m } ->
      Buffer.add_char b 'M';
      add_u32 b mu_id;
      add_u64 b mu_epoch;
      add_u32 b mu_edits;
      add_u32 b mu_n;
      add_u64 b mu_m
  | Reloaded { rl_id; rl_epoch; rl_n; rl_m } ->
      Buffer.add_char b 'H';
      add_u32 b rl_id;
      add_u64 b rl_epoch;
      add_u32 b rl_n;
      add_u64 b rl_m
  | Error_resp { e_id; e_code; e_msg } ->
      Buffer.add_char b 'E';
      add_u32 b e_id;
      add_u8 b (error_code_byte e_code);
      Buffer.add_string b e_msg
  | Graphs infos ->
      Buffer.add_char b 'G';
      add_u16 b (List.length infos);
      List.iter
        (fun { g_name; g_n; g_m; g_epoch } ->
          add_u16 b (String.length g_name);
          Buffer.add_string b g_name;
          add_u32 b g_n;
          add_u64 b g_m;
          add_u64 b g_epoch)
        infos
  | Pong -> Buffer.add_char b 'O');
  Buffer.contents b

let decode_response payload =
  typed ~in_payload:true @@ fun () ->
  let c = Codec.cursor payload in
  let resp =
    match Codec.u8 c "opcode" with
    | 0x52 (* 'R' *) ->
        let id = Codec.u32 c "query id" in
        let set = Codec.string c (String.length payload - Codec.pos c) "result set" in
        Result (id, set)
    | 0x44 (* 'D' *) ->
        let d_id = Codec.u32 c "query id" in
        let d_outcome = outcome_of_code (Codec.u8 c "outcome") in
        let d_emitted = Codec.u64 c "emitted count" in
        let d_resume = read_state_opt c in
        Done { d_id; d_outcome; d_emitted; d_resume }
    | 0x42 (* 'B' *) ->
        let b_id = Codec.u32 c "query id" in
        let b_running = Codec.u32 c "running count" in
        let b_queued = Codec.u32 c "queued count" in
        Busy { b_id; b_running; b_queued }
    | 0x41 (* 'A' *) ->
        let ra_id = Codec.u32 c "query id" in
        let ra_seconds = Codec.f64 c "retry delay" in
        Retry_after { ra_id; ra_seconds }
    | 0x4D (* 'M' *) ->
        let mu_id = Codec.u32 c "mutation id" in
        let mu_epoch = Codec.u64 c "epoch" in
        let mu_edits = Codec.u32 c "edit count" in
        let mu_n = Codec.u32 c "node count" in
        let mu_m = Codec.u64 c "edge count" in
        Mutated { mu_id; mu_epoch; mu_edits; mu_n; mu_m }
    | 0x48 (* 'H' *) ->
        let rl_id = Codec.u32 c "reload id" in
        let rl_epoch = Codec.u64 c "epoch" in
        let rl_n = Codec.u32 c "node count" in
        let rl_m = Codec.u64 c "edge count" in
        Reloaded { rl_id; rl_epoch; rl_n; rl_m }
    | 0x45 (* 'E' *) ->
        let e_id = Codec.u32 c "query id" in
        let e_code = error_code_of_byte (Codec.u8 c "error code") in
        let e_msg = Codec.string c (String.length payload - Codec.pos c) "error message" in
        Error_resp { e_id; e_code; e_msg }
    | 0x47 (* 'G' *) ->
        let count = Codec.u16 c "graph count" in
        Graphs
          (read_list count (fun () ->
               let name_len = Codec.u16 c "graph name length" in
               let g_name = Codec.string c name_len "graph name" in
               let g_n = Codec.u32 c "node count" in
               let g_m = Codec.u64 c "edge count" in
               let g_epoch = Codec.u64 c "epoch" in
               { g_name; g_n; g_m; g_epoch }))
    | 0x4F (* 'O' *) -> Pong
    | op -> fail (Bad_opcode op)
  in
  Codec.finish c;
  resp

(* ---------- frame layer ---------- *)

let encode_frame payload = Codec.frame format payload

let decode_frame buf ~pos =
  if pos < 0 || pos > String.length buf then invalid_arg "Protocol.decode_frame: pos";
  typed ~in_payload:false (fun () ->
      let c = Codec.cursor ~pos buf in
      let payload = Codec.read_frame format c in
      (payload, Codec.pos c))

(* ---------- channel I/O ---------- *)

let output_magic oc = output_string oc magic

let input_magic ic =
  let got =
    try really_input_string ic (String.length magic)
    with End_of_file -> fail (Truncated "connection magic")
  in
  typed ~in_payload:false (fun () -> Codec.magic format (Codec.cursor got))

let output_frame oc payload = output_string oc (encode_frame payload)

let input_frame ic =
  (* the first byte separates a clean EOF (the peer closed between
     frames) from a torn one (it died mid-frame) *)
  match input_char ic with
  | exception End_of_file -> None
  | first ->
      let header =
        try String.make 1 first ^ really_input_string ic 7
        with End_of_file -> fail (Truncated "frame header")
      in
      (* the ceiling is checked before the payload is read or allocated *)
      let len = typed ~in_payload:false (fun () -> Codec.frame_length format header 0) in
      let payload =
        try really_input_string ic len
        with End_of_file -> fail (Truncated "frame payload")
      in
      Some (fst (decode_frame (header ^ payload) ~pos:0))
