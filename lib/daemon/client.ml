type t = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  mutable open_ : bool;
}

let connect (addr : Server.addr) =
  let fd =
    match addr with
    | Server.Unix_socket path ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (try Unix.connect fd (Unix.ADDR_UNIX path)
         with e ->
           (try Unix.close fd with Unix.Unix_error _ -> ());
           raise e);
        fd
    | Server.Tcp (host, port) ->
        let ip =
          try Unix.inet_addr_of_string host
          with Failure _ -> (
            match Unix.gethostbyname host with
            | { Unix.h_addr_list = [||]; _ } ->
                invalid_arg
                  (Printf.sprintf "Client.connect: host %S has no address"
                     host)
            | { Unix.h_addr_list; _ } -> h_addr_list.(0)
            | exception Not_found ->
                invalid_arg
                  (Printf.sprintf "Client.connect: unknown host %S" host))
        in
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        (try Unix.connect fd (Unix.ADDR_INET (ip, port))
         with e ->
           (try Unix.close fd with Unix.Unix_error _ -> ());
           raise e);
        fd
  in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let c = { fd; ic; oc; open_ = true } in
  (try
     Protocol.output_magic oc;
     flush oc;
     Protocol.input_magic ic
   with e ->
     c.open_ <- false;
     close_out_noerr oc;
     raise e);
  c

let close c =
  if c.open_ then begin
    c.open_ <- false;
    (* closing [oc] closes the fd both channels share; closing [ic] as
       well would close the number again, after another thread may have
       reused it *)
    close_out_noerr c.oc
  end

let send_request c req =
  Protocol.output_frame c.oc (Protocol.encode_request req);
  flush c.oc

let read_response c =
  match Protocol.input_frame c.ic with
  | None -> None
  | Some payload -> Some (Protocol.decode_response payload)

let send_raw c bytes =
  output_string c.oc bytes;
  flush c.oc

let ping c =
  send_request c Protocol.Ping;
  match read_response c with Some Protocol.Pong -> true | _ -> false

let list_graphs c =
  send_request c Protocol.List_graphs;
  match read_response c with
  | Some (Protocol.Graphs gs) -> gs
  | Some _ -> failwith "Client.list_graphs: unexpected response"
  | None -> failwith "Client.list_graphs: daemon closed the connection"

let cancel c id = send_request c (Protocol.Cancel id)

let hello c ~token = send_request c (Protocol.Hello { h_token = token })

type query_outcome =
  | Finished of Protocol.done_info
  | Refused of { running : int; queued : int }
  | Throttled of float
  | Failed of { code : Protocol.error_code; msg : string }
  | Disconnected

let run_query ?(on_result = fun _ -> ()) c (q : Protocol.query) =
  send_request c (Protocol.Query q);
  let rec pump () =
    match read_response c with
    | None -> Disconnected
    | Some resp -> (
        match resp with
        | Protocol.Result (id, set) when id = q.Protocol.q_id ->
            on_result set;
            pump ()
        | Protocol.Done d when d.Protocol.d_id = q.Protocol.q_id ->
            Finished d
        | Protocol.Busy b when b.b_id = q.Protocol.q_id ->
            Refused { running = b.b_running; queued = b.b_queued }
        | Protocol.Retry_after r when r.ra_id = q.Protocol.q_id ->
            Throttled r.ra_seconds
        | Protocol.Error_resp e
          when e.e_id = q.Protocol.q_id || e.e_id = 0 ->
            Failed { code = e.e_code; msg = e.e_msg }
        | Protocol.Result _ | Protocol.Done _ | Protocol.Busy _
        | Protocol.Retry_after _ | Protocol.Mutated _ | Protocol.Reloaded _
        | Protocol.Error_resp _ | Protocol.Graphs _ | Protocol.Pong ->
            pump ())
  in
  pump ()

type mutate_outcome =
  | Applied of { epoch : int; edits : int; n : int; m : int }
  | Mutate_throttled of float
  | Mutate_failed of { code : Protocol.error_code; msg : string }
  | Mutate_disconnected

let mutate c ~id ~graph ~script =
  send_request c
    (Protocol.Mutate { m_id = id; m_graph = graph; m_script = script });
  let rec pump () =
    match read_response c with
    | None -> Mutate_disconnected
    | Some resp -> (
        match resp with
        | Protocol.Mutated mu when mu.mu_id = id ->
            Applied
              { epoch = mu.mu_epoch; edits = mu.mu_edits; n = mu.mu_n; m = mu.mu_m }
        | Protocol.Retry_after r when r.ra_id = id ->
            Mutate_throttled r.ra_seconds
        | Protocol.Error_resp e when e.e_id = id || e.e_id = 0 ->
            Mutate_failed { code = e.e_code; msg = e.e_msg }
        | _ -> pump ())
  in
  pump ()

type reload_outcome =
  | Swapped of { epoch : int; n : int; m : int }
  | Reload_failed of { code : Protocol.error_code; msg : string }
  | Reload_disconnected

let reload c ~id ~graph =
  send_request c (Protocol.Reload { rl_id = id; rl_graph = graph });
  let rec pump () =
    match read_response c with
    | None -> Reload_disconnected
    | Some resp -> (
        match resp with
        | Protocol.Reloaded r when r.rl_id = id ->
            Swapped { epoch = r.rl_epoch; n = r.rl_n; m = r.rl_m }
        | Protocol.Error_resp e when e.e_id = id || e.e_id = 0 ->
            Reload_failed { code = e.e_code; msg = e.e_msg }
        | _ -> pump ())
  in
  pump ()
