(* scliques-daemon — long-running s-clique query server.

   scliques-daemon --socket /tmp/sclq.sock --graph web=web.sgr
   scliques-daemon --tcp 127.0.0.1:7199 --graph a=a.edges --graph b=b.sgr

   Preloads every --graph, serves SCLQRPC1 queries until SIGTERM/SIGINT,
   then drains: in-flight queries finish streaming, the socket file is
   removed, and one drain line goes to stdout. *)

open Cmdliner
module Server = Scliques_daemon.Server

let die fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "scliques-daemon: error: %s\n%!" msg;
      Stdlib.exit 1)
    fmt

(* .sgr loads as a CRC-checked binary snapshot, anything else as an edge
   list; raises like the loaders do — Reload reuses this thunk *)
let load_graph_file file =
  if Filename.check_suffix file ".sgr" then Sgraph.Snapshot.load file
  else Sgraph.Edge_list_io.load file

(* NAME=FILE *)
let load_graph_spec spec =
  match String.index_opt spec '=' with
  | None -> die "--graph %S: expected NAME=FILE" spec
  | Some i ->
      let name = String.sub spec 0 i in
      let file = String.sub spec (i + 1) (String.length spec - i - 1) in
      if String.length name = 0 then die "--graph %S: empty name" spec;
      let g =
        match load_graph_file file with
        | g -> g
        | exception Sgraph.Io_error.Parse_error { file; line; msg } ->
            die "%s" (Sgraph.Io_error.to_string ~file ~line msg)
        | exception Sys_error msg -> die "%s" msg
      in
      (name, g, file)

(* SITE:N — arm the registry's SITE to fail on its N-th hit *)
let arm_spec fault spec =
  match String.rindex_opt spec ':' with
  | None -> die "--inject %S: expected SITE:N" spec
  | Some i -> (
      let site = String.sub spec 0 i in
      let n = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt n with
      | Some n when n >= 1 -> Scoll.Fault.arm_nth fault ~site ~n
      | _ -> die "--inject %S: N must be a positive integer" spec)

let parse_tcp spec =
  match String.rindex_opt spec ':' with
  | None -> die "--tcp %S: expected HOST:PORT" spec
  | Some i -> (
      let host = String.sub spec 0 i in
      let port = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt port with
      | Some p when p >= 0 && p <= 0xFFFF -> Server.Tcp (host, p)
      | _ -> die "--tcp %S: bad port" spec)

let stop_requested = Atomic.make false
let hup_requested = Atomic.make false

let serve socket tcp graphs workers max_queue par_workers cache_capacity
    state_dir compact_threshold qps query_burst mutate_bps mutate_burst
    injects =
  let addr =
    match (socket, tcp) with
    | Some _, Some _ -> die "--socket and --tcp are mutually exclusive"
    | Some path, None -> Server.Unix_socket path
    | None, Some spec -> parse_tcp spec
    | None, None -> die "one of --socket PATH or --tcp HOST:PORT is required"
  in
  if graphs = [] then die "at least one --graph NAME=FILE is required";
  let specs = List.map load_graph_spec graphs in
  let graphs = List.map (fun (name, g, _) -> (name, g)) specs in
  let sources =
    List.map (fun (name, _, file) -> (name, fun () -> load_graph_file file)) specs
  in
  let quota =
    if qps = None && query_burst = None && mutate_bps = None
       && mutate_burst = None
    then None
    else
      Some
        {
          Scliques_daemon.Quota.queries_per_sec =
            Option.value qps ~default:infinity;
          query_burst = Option.value query_burst ~default:8;
          mutate_bytes_per_sec = Option.value mutate_bps ~default:infinity;
          mutate_burst = Option.value mutate_burst ~default:(1 lsl 20);
        }
  in
  (match state_dir with
  | None -> ()
  | Some dir when Sys.file_exists dir -> ()
  | Some dir -> (
      try Unix.mkdir dir 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()));
  let fault =
    if injects = [] then Scoll.Fault.none
    else begin
      let f = Scoll.Fault.create () in
      List.iter (arm_spec f) injects;
      f
    end
  in
  let srv =
    match
      Server.create ~workers ~max_queue ~par_workers ~cache_capacity
        ~compact_threshold ?quota ?state_dir ~sources ~fault ~graphs addr
    with
    | srv -> srv
    | exception Invalid_argument msg -> die "%s" msg
    | exception Sgraph.Io_error.Parse_error { file; line; msg } ->
        die "%s" (Sgraph.Io_error.to_string ~file ~line msg)
    | exception Unix.Unix_error (e, fn, arg) ->
        die "%s: %s (%s)" fn (Unix.error_message e) arg
  in
  let where =
    match addr with
    | Server.Unix_socket path -> path
    | Server.Tcp (host, _) -> Printf.sprintf "%s:%d" host (Server.port srv)
  in
  Printf.printf "scliques-daemon: serving %d graph%s on %s\n%!"
    (List.length graphs)
    (if List.length graphs = 1 then "" else "s")
    where;
  let request_stop _ = Atomic.set stop_requested true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  (* the handler only raises a flag; the swap itself runs on this thread *)
  Sys.set_signal Sys.sighup
    (Sys.Signal_handle (fun _ -> Atomic.set hup_requested true));
  while not (Atomic.get stop_requested) do
    if Atomic.compare_and_set hup_requested true false then
      List.iter
        (fun (name, result) ->
          match result with
          | Ok (epoch, n, m) ->
              Printf.printf
                "scliques-daemon: reloaded %s: n=%d m=%d epoch=%d\n%!" name n
                m epoch
          | Error msg ->
              Printf.eprintf
                "scliques-daemon: reload of %s failed: %s (still serving the \
                 previous graph)\n%!"
                name msg)
        (Server.reload_all srv);
    Thread.delay 0.1
  done;
  Server.stop ~drain:true srv;
  Printf.printf "scliques-daemon: drained, bye\n%!";
  0

let socket_arg =
  let doc = "Serve on a Unix-domain socket at $(docv)." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let tcp_arg =
  let doc = "Serve on TCP $(docv) (port 0 picks a free one)." in
  Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)

let graphs_arg =
  let doc =
    "Preload a graph as $(docv). A $(b,.sgr) file loads as a CRC-checked \
     binary snapshot, anything else as an edge list. Repeatable."
  in
  Arg.(value & opt_all string [] & info [ "graph" ] ~docv:"NAME=FILE" ~doc)

let workers_arg =
  let doc = "Worker domains executing queries." in
  Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc)

let max_queue_arg =
  let doc = "Admitted-but-waiting query bound; past it, queries get Busy." in
  Arg.(value & opt int 16 & info [ "max-queue" ] ~docv:"N" ~doc)

let par_workers_arg =
  let doc =
    Printf.sprintf
      "Domains a parallel-engine query runs on, its query worker included. \
       1 + $(b,--workers) × $(docv) must not pass the runtime's %d domains."
      Scliques_core.Parallel.max_domains
  in
  Arg.(value & opt int 1 & info [ "par-workers" ] ~docv:"N" ~doc)

let cache_capacity_arg =
  let doc = "Entry capacity of each shared N^s ball cache." in
  Arg.(value & opt int 65536 & info [ "cache-capacity" ] ~docv:"N" ~doc)

let state_dir_arg =
  let doc =
    "Make wire mutations durable: per graph, keep a base snapshot plus an \
     fsynced SGRDIFF1 journal in $(docv) (created if missing), and on \
     restart resume from them — a mutation is acked only after its journal \
     record reached disk. Graph names must be plain file-name stems."
  in
  Arg.(value & opt (some string) None & info [ "state-dir" ] ~docv:"DIR" ~doc)

let compact_threshold_arg =
  let doc =
    "Fold the journal into a fresh base snapshot once a graph accumulated \
     $(docv) overlay edits."
  in
  Arg.(value & opt int 1024 & info [ "compact-threshold" ] ~docv:"N" ~doc)

let qps_arg =
  let doc = "Per-client quota: queries admitted per second (token bucket)." in
  Arg.(value & opt (some float) None & info [ "quota-qps" ] ~docv:"RATE" ~doc)

let query_burst_arg =
  let doc = "Per-client quota: query bucket ceiling (default 8)." in
  Arg.(value & opt (some int) None & info [ "quota-query-burst" ] ~docv:"N" ~doc)

let mutate_bps_arg =
  let doc = "Per-client quota: mutation payload bytes admitted per second." in
  Arg.(
    value & opt (some float) None & info [ "quota-mutate-bps" ] ~docv:"RATE" ~doc)

let mutate_burst_arg =
  let doc = "Per-client quota: mutation-byte bucket ceiling (default 1 MiB)." in
  Arg.(
    value & opt (some int) None & info [ "quota-mutate-burst" ] ~docv:"N" ~doc)

let inject_arg =
  let doc =
    "Arm a deterministic fault: $(docv) makes the daemon's named \
     injection site ($(b,daemon.accept), $(b,daemon.write), \
     $(b,daemon.flush), $(b,daemon.mutate.journal), \
     $(b,daemon.mutate.flush), $(b,daemon.reload)) fail on its N-th hit. \
     Repeatable; for drills."
  in
  Arg.(value & opt_all string [] & info [ "inject" ] ~docv:"SITE:N" ~doc)

let cmd =
  let doc = "serve s-clique queries over a socket" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Preloads the given graphs and answers SCLQRPC1 queries — \
         streaming one result frame per maximal connected s-clique — \
         until SIGTERM or SIGINT, then drains gracefully. Queries \
         against the same graph and s share a warm N^s ball cache. \
         Wire-level Mutate requests apply SGRDIFF1 edit scripts live \
         (journaled durably under $(b,--state-dir)); in-flight queries \
         always finish on the graph epoch they were admitted under. \
         SIGHUP hot-reloads every graph from its source file without \
         dropping connections.";
    ]
  in
  Cmd.v
    (Cmd.info "scliques-daemon" ~version:"%%VERSION%%" ~doc ~man)
    Term.(
      const serve $ socket_arg $ tcp_arg $ graphs_arg $ workers_arg
      $ max_queue_arg $ par_workers_arg $ cache_capacity_arg $ state_dir_arg
      $ compact_threshold_arg $ qps_arg $ query_burst_arg $ mutate_bps_arg
      $ mutate_burst_arg $ inject_arg)

let () = Stdlib.exit (Cmd.eval' cmd)
