module E = Scliques_core.Enumerate
module Budget = Scliques_core.Budget
module Ckpt = Scliques_core.Checkpoint
module Neighborhood = Scliques_core.Neighborhood
module Stream = Scliques_core.Result_io.Stream
module Overlay = Sgraph.Overlay
module Diff = Sgraph.Diff

type addr = Unix_socket of string | Tcp of string * int

module Smap = Hashtbl.Make (String)

(* ---------- epoch cells and durable state ---------- *)

(* One serving epoch of a graph: an immutable CSR plus the per-s shared
   ball stores warmed against exactly that CSR. A query pins the cell it
   was admitted under and keeps using it even after a mutation installs
   a successor — old cells stay alive (and their stores warm) for as
   long as any pinned query holds them, then the GC takes the lot. *)
type epoch_cell = {
  ec_epoch : int; (* edits applied since load: offset + journal count *)
  ec_graph : Sgraph.Graph.t;
  ec_stores : (int, Neighborhood.Shared.store) Hashtbl.t;
}

(* Durable state of one graph under --state-dir: a generation-numbered
   base snapshot + append-only SGRDIFF1 journal pair, switched by an
   atomically renamed manifest. The journal fd is plain O_WRONLY (not
   O_APPEND) so a failed append can be truncated back to the last acked
   record. *)
type persist = {
  p_dir : string;
  p_name : string;
  mutable p_gen : int;
  mutable p_journal : Unix.file_descr;
  mutable p_journal_len : int; (* bytes acked so far — the truncate target *)
}

(* One preloaded graph. [ge_tip] tracks the persisted base plus every
   journaled edit; [ge_cell] is the epoch currently offered to new
   queries (always a compact CSR of the tip). [ge_pins] counts admitted
   queries holding any cell of this graph — the ledger the teardown
   tests drive to zero. *)
type graph_entry = {
  ge_name : string;
  ge_source : (unit -> Sgraph.Graph.t) option; (* Reload re-reads this *)
  ge_lock : Mutex.t; (* tip, cell, pins, counters, persist *)
  mutable ge_tip : Overlay.t;
  mutable ge_cell : epoch_cell;
  mutable ge_offset : int; (* edits folded into the persisted base *)
  mutable ge_jcount : int; (* edits in the live journal *)
  mutable ge_pins : int;
  ge_persist : persist option;
}

(* What [register] records per admitted query: the budget (for Cancel)
   and the entry whose pin must be released exactly once. *)
type admitted = { aq_budget : Budget.t; aq_entry : graph_entry }

type session = {
  sid : int;
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  wlock : Mutex.t; (* serializes response frames from all query domains *)
  slock : Mutex.t; (* guards [alive] transitions, [queries] and [squota] *)
  mutable squota : Quota.t option;
      (* the client-identity bucket this connection bills to; None =
         unlimited. Rebound when a [Hello] announces a token. *)
  mutable alive : bool;
  mutable queries : (int * admitted) list; (* admitted, not yet answered *)
}

(* A keyed quota bucket shared by every connection of one client
   identity; [q_seen] is the last lookup time, the idle-sweep clock. *)
type qentry = { q_quota : Quota.t; mutable q_seen : float }

type t = {
  t_addr : addr;
  listen_fd : Unix.file_descr;
  sched : Scheduler.t;
  fault : Scoll.Fault.t;
  graphs : graph_entry Smap.t;
  t_names : string list; (* listing order = the create argument's *)
  par_workers : int;
  cache_capacity : int;
  compact_threshold : int;
  quota : Quota.config option;
  qtable : qentry Smap.t; (* identity key -> shared bucket *)
  qlock : Mutex.t; (* guards [qtable]; never held with another lock *)
  lock : Mutex.t; (* sessions table + stopping flag *)
  mutable sessions : (session * Thread.t) list;
  mutable stopping : bool;
  mutable next_sid : int;
  mutable accept_thread : Thread.t option;
}

(* Raised (only internally) when a response cannot reach the client —
   the session is already marked dead and its budgets cancelled by the
   time this propagates. *)
exception Write_failed

let now () = Unix.gettimeofday ()

(* ---------- per-client quota identity ---------- *)

(* Buckets are keyed by who the client {e is}, not by which connection it
   happens to use: the token a [Hello] announced ("tok:..."), else the
   TCP peer address ("ip:...", port excluded — reconnects come from
   ephemeral ports), else — Unix sockets carry no usable peer address —
   a private per-session bucket. Keyed buckets live in [qtable] and are
   inherited across reconnects, which closes the redial loophole:
   dropping a throttled connection and dialing again resumes the same
   drained bucket instead of minting a full one. *)

let quota_idle_s = 600.

let shared_quota srv cfg key =
  let t = now () in
  Scoll.Sync.with_lock srv.qlock (fun () ->
      (* sweep idle entries on the way in — lookups happen only on
         connect and Hello, and the table holds one entry per recently
         seen client, so a linear pass is cheap *)
      let stale =
        Smap.fold
          (fun k e acc -> if t -. e.q_seen > quota_idle_s then k :: acc else acc)
          srv.qtable []
      in
      List.iter (Smap.remove srv.qtable) stale;
      match Smap.find_opt srv.qtable key with
      | Some e ->
          e.q_seen <- t;
          e.q_quota
      | None ->
          let q = Quota.create cfg ~now:t in
          Smap.add srv.qtable key { q_quota = q; q_seen = t };
          q)

let peer_quota_key fd =
  match Unix.getpeername fd with
  | Unix.ADDR_INET (ip, _port) -> Some ("ip:" ^ Unix.string_of_inet_addr ip)
  | Unix.ADDR_UNIX _ -> None
  | exception Unix.Unix_error _ -> None

(* The bucket to bill a request to, snapshotted once per request so the
   admit and any later refund hit the same bucket even if a [Hello]
   rebinds the session mid-flight. *)
let session_quota sess = Scoll.Sync.with_lock sess.slock (fun () -> sess.squota)

(* ---------- durable state plumbing ---------- *)

let manifest_magic = "SGRMANI1"

let manifest_path ~dir ~name = Filename.concat dir (name ^ ".manifest")

let base_path ~dir ~name gen =
  Filename.concat dir (Printf.sprintf "%s.base.%d.sgr" name gen)

let journal_path ~dir ~name gen =
  Filename.concat dir (Printf.sprintf "%s.journal.%d" name gen)

(* Only names that are safe as file-name stems may be persisted (or
   reloaded by generation): the wire allows any bytes in a graph name,
   the filesystem does not. *)
let state_name_ok name =
  (not (String.equal name ""))
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true | _ -> false)
       name

let write_all fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let rec go off = if off < len then go (off + Unix.write fd b off (len - off)) in
  go 0

(* The manifest is one line, replaced durably: a crash or power loss
   mid-rebase leaves either the old generation fully live or the new
   one. *)
let write_manifest ~fault path ~gen ~offset =
  Sgraph.Codec.durable_replace ~fault ~site:"manifest" path (fun oc ->
      Printf.fprintf oc "%s %d %d\n" manifest_magic gen offset)

let read_manifest path =
  let ic = open_in_bin path in
  let line =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> try input_line ic with End_of_file -> "")
  in
  let malformed () =
    Sgraph.Io_error.failf ~file:path ~line:1 "malformed manifest %S" line
  in
  match String.split_on_char ' ' (String.trim line) with
  | [ m; g; o ] when String.equal m manifest_magic -> (
      match (int_of_string_opt g, int_of_string_opt o) with
      | Some gen, Some offset when gen >= 0 && offset >= 0 -> (gen, offset)
      | _ -> malformed ())
  | _ -> malformed ()

(* Start a fresh journal for [graph] at generation [gen]: header image,
   fsynced, fd left open at the append position. *)
let open_fresh_journal ~dir ~name gen graph =
  let path = journal_path ~dir ~name gen in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let header =
    Diff.encode_header ~base_n:(Sgraph.Graph.n graph) ~base_m:(Sgraph.Graph.m graph)
  in
  (try
     write_all fd header;
     Unix.fsync fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  (fd, String.length header)

(* Fold the journal into a new generation: snapshot [graph], start an
   empty journal beside it, then flip the manifest — the only moment the
   new generation becomes live. Every file is on the device before the
   manifest names it (durable_replace, the journal's fsync, and the
   manifest's directory sync, which also covers the journal's entry), so
   a power loss cannot leave a manifest naming unwritten data. Raises on
   I/O failure with the old generation still fully intact (at worst a
   dead [.base]/[.journal] file of the never-activated generation
   remains). *)
let persist_rebase ~fault p graph ~epoch =
  let dir = p.p_dir and name = p.p_name in
  let gen = p.p_gen + 1 in
  let mpath = manifest_path ~dir ~name in
  Sgraph.Snapshot.save ~fault graph (base_path ~dir ~name gen);
  let fd, len = open_fresh_journal ~dir ~name gen graph in
  let flip_durable =
    match write_manifest ~fault mpath ~gen ~offset:epoch with
    | () -> true
    | exception e ->
        (* the manifest now holds the old line or the new one; only if
           the rename landed is the new generation live, though not yet
           known durable *)
        let live =
          match read_manifest mpath with
          | g, _ -> g = gen
          | exception (Sgraph.Io_error.Parse_error _ | Sys_error _) -> false
        in
        if not live then begin
          (try Unix.close fd with Unix.Unix_error _ -> ());
          raise e
        end;
        false
  in
  (try Unix.close p.p_journal with Unix.Unix_error _ -> ());
  (* the old generation is the fallback until the flip is durable *)
  if flip_durable then
    List.iter
      (fun f -> try Sys.remove f with Sys_error _ -> ())
      [ base_path ~dir ~name p.p_gen; journal_path ~dir ~name p.p_gen ];
  p.p_gen <- gen;
  p.p_journal <- fd;
  p.p_journal_len <- len

(* Attach a graph to the state dir: resume from the manifest when one
   exists (base snapshot + strict journal replay — a torn or corrupt
   journal tail is refused, exactly like any SGRDIFF1 script, and the
   server fails to start), else persist the provided graph as
   generation 0. Returns (tip, serving graph, offset, jcount, persist).
   When persisted state exists it wins over the provided graph: the
   state dir is the durable truth, [Reload] is the way back to the
   source. *)
let attach_state ~fault ~dir name g =
  let mpath = manifest_path ~dir ~name in
  if Sys.file_exists mpath then begin
    let gen, offset = read_manifest mpath in
    let jpath = journal_path ~dir ~name gen in
    let base = Sgraph.Snapshot.load (base_path ~dir ~name gen) in
    let header, edits = Diff.load jpath in
    Diff.check_base ~file:jpath header base;
    let tip = Overlay.of_graph base in
    (match Overlay.apply tip edits with
    | () -> ()
    | exception Invalid_argument msg ->
        Sgraph.Io_error.failf ~file:jpath ~line:0 "journal replay failed: %s" msg);
    let serving = match edits with [] -> base | _ :: _ -> Overlay.compact tip in
    (* ownership of the journal fd transfers to the persist record
       below; it is closed by [persist_rebase] (generation flip) or by
       [stop] once every session is gone *)
    let fd = Unix.openfile jpath [ Unix.O_WRONLY ] 0o644 in
    let len =
      try Unix.lseek fd 0 Unix.SEEK_END
      with e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
    in
    ( tip,
      serving,
      offset,
      List.length edits,
      { p_dir = dir; p_name = name; p_gen = gen; p_journal = fd; p_journal_len = len } )
  end
  else begin
    Sgraph.Snapshot.save ~fault g (base_path ~dir ~name 0);
    let fd, len = open_fresh_journal ~dir ~name 0 g in
    write_manifest ~fault mpath ~gen:0 ~offset:0;
    ( Overlay.of_graph g,
      g,
      0,
      0,
      { p_dir = dir; p_name = name; p_gen = 0; p_journal = fd; p_journal_len = len } )
  end

(* ---------- session plumbing ---------- *)

let register sess id aq =
  Scoll.Sync.with_lock sess.slock (fun () -> sess.queries <- (id, aq) :: sess.queries)

let unpin entry =
  Scoll.Sync.with_lock entry.ge_lock (fun () -> entry.ge_pins <- entry.ge_pins - 1)

(* Remove the query and release its epoch pin. Exactly-once by
   construction: the remove under [slock] decides a single winner among
   the racing callers (normal completion, the job's finally, an abort,
   session teardown), and only the winner unpins. *)
let unregister sess id =
  let removed =
    Scoll.Sync.with_lock sess.slock (fun () ->
        match List.assoc_opt id sess.queries with
        | None -> None
        | Some aq ->
            sess.queries <- List.filter (fun (i, _) -> i <> id) sess.queries;
            Some aq)
  in
  match removed with None -> () | Some aq -> unpin aq.aq_entry

let lookup sess id =
  Scoll.Sync.with_lock sess.slock (fun () ->
      Option.map (fun aq -> aq.aq_budget) (List.assoc_opt id sess.queries))

let live_query sess id =
  Scoll.Sync.with_lock sess.slock (fun () ->
      List.exists (fun (i, _) -> i = id) sess.queries)

(* First failure wins: mark the session dead, cancel every budget it
   admitted (a worker mid-enumeration observes the trip at its next
   poll), drop its queued jobs, and wake anything blocked on its socket.
   The file descriptors are closed later, by the session thread itself,
   so no other thread ever touches a recycled fd. Pins and quota tokens
   are released by the per-query unregister/abort paths this triggers,
   never here — releasing them twice would corrupt the ledgers. *)
let kill_session srv sess =
  let first =
    Scoll.Sync.with_lock sess.slock (fun () ->
        if sess.alive then begin
          sess.alive <- false;
          true
        end
        else false)
  in
  if first then begin
    List.iter
      (fun (_, aq) -> Budget.request_cancel aq.aq_budget)
      (Scoll.Sync.with_lock sess.slock (fun () -> sess.queries));
    Scheduler.retire_lane srv.sched sess.sid;
    try Unix.shutdown sess.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()
  end

(* Send one response frame. Any failure — the peer vanished (EPIPE /
   reset surfaces as [Sys_error] through the channel), or an injected
   [daemon.write]/[daemon.flush] fault — kills the session and raises
   [Write_failed]: the caller's query dies, its siblings never notice. *)
let send srv sess resp =
  let payload = Protocol.encode_response resp in
  match
    Scoll.Sync.with_lock sess.wlock (fun () ->
        if not sess.alive then raise Write_failed;
        Scoll.Fault.check srv.fault "daemon.write";
        (* SAFETY: [wlock] exists precisely to serialize frame writes; a
           slow peer stalls only this session's writers, and a vanished
           peer surfaces as Sys_error, killing the session below *)
        (Protocol.output_frame sess.oc payload [@lint.allow "lock-order"]);
        Scoll.Fault.check srv.fault "daemon.flush";
        (flush sess.oc [@lint.allow "lock-order"]))
  with
  | () -> ()
  | exception Write_failed -> raise Write_failed
  | exception (Sys_error _ | Unix.Unix_error _ | Scoll.Fault.Injected _) ->
      kill_session srv sess;
      raise Write_failed

let try_send srv sess resp = try send srv sess resp with Write_failed -> ()

(* ---------- query execution (on a scheduler worker domain) ---------- *)

(* The per-s store of a {e pinned} cell — lazily created against the
   cell's own graph, so a query that outlives a mutation keeps warming
   (and hitting) balls of the epoch it was admitted under. *)
let store_for srv entry cell s =
  Scoll.Sync.with_lock entry.ge_lock (fun () ->
      match Hashtbl.find_opt cell.ec_stores s with
      | Some st -> st
      | None ->
          let st =
            Neighborhood.Shared.create ~cache_capacity:srv.cache_capacity ~s
              cell.ec_graph
          in
          Hashtbl.add cell.ec_stores s st;
          st)

let cancelled_done id =
  Protocol.Done
    {
      d_id = id;
      d_outcome = Budget.Truncated Budget.Cancelled;
      d_emitted = 0;
      d_resume = None;
    }

(* The algorithm a query runs, and on how many domains: with
   [par_workers] > 1 every rooted query runs on the work-stealing engine;
   at 1 (the default) it stays in its scheduler domain, on the shared
   N^s cache *)
let engine srv (Protocol.Alg alg) =
  let rooted = String.equal (E.checkpoint_family alg) "roots" in
  (alg, if rooted && srv.par_workers > 1 then Some srv.par_workers else None)

let exec_query srv sess entry cell (q : Protocol.query) budget =
  let yield set = send srv sess (Protocol.Result (q.q_id, Stream.encode_set set)) in
  let alg, workers = engine srv q.q_engine in
  (* the brute oracle and the work-stealing workers never consult an N^s
     oracle; every other engine attaches to the shared warm cache *)
  let nh =
    match (alg, workers) with
    | E.Brute, _ | _, Some _ -> None
    | _ -> Some (Neighborhood.of_shared (store_for srv entry cell q.q_s))
  in
  let report =
    E.run ~min_size:q.q_min_size ?nh ~budget ?resume:q.q_resume ?workers alg
      cell.ec_graph ~s:q.q_s yield
  in
  (* unregister before the terminal frame: the moment the client reads
     Done, the id is free to reuse on this connection *)
  unregister sess q.q_id;
  send srv sess
    (Protocol.Done
       {
         d_id = q.q_id;
         d_outcome = report.E.outcome;
         d_emitted = report.E.emitted;
         d_resume = report.E.resumable;
       })

let run_job srv sess entry cell (q : Protocol.query) budget =
  Fun.protect
    ~finally:(fun () -> unregister sess q.q_id)
    (fun () ->
      match exec_query srv sess entry cell q budget with
      | () -> ()
      | exception Write_failed ->
          (* the session is dead and its budgets cancelled; nothing left
             to tell anyone *)
          ()
      | exception e ->
          (* engine failure (a Brute graph a reload grew past the size
             validation saw, an injected par.task fault): contained to
             this one query as a typed error response *)
          (let msg =
             match e with
             | Failure m | Invalid_argument m -> m
             | e -> Printexc.to_string e
           in
           try_send srv sess
             (Protocol.Error_resp
                { e_id = q.q_id; e_code = Protocol.Server_error; e_msg = msg }))
          [@lint.allow "exception-swallow"])

(* ---------- request dispatch (on the session thread) ---------- *)

(* Everything that would make [E.run] refuse the query is refused here,
   before it is billed or scheduled; [run]'s own refusal stays the
   fallback for a reload that changes the graph in between. *)
let validate srv sess (q : Protocol.query) =
  match Smap.find_opt srv.graphs q.q_graph with
  | None -> Error (Printf.sprintf "unknown graph %S" q.q_graph)
  | Some entry -> (
      let alg, workers = engine srv q.q_engine in
      let g = Scoll.Sync.with_lock entry.ge_lock (fun () -> entry.ge_cell.ec_graph) in
      match E.check ?workers alg g ~s:q.q_s with
      | exception Invalid_argument msg -> Error msg
      | () ->
          if q.q_min_size < 0 then Error "min-size must be >= 0"
          else if live_query sess q.q_id then
            Error (Printf.sprintf "query id %d is already in flight" q.q_id)
          else begin
            let family = E.checkpoint_family alg in
            match q.q_resume with
            | Some st when not (String.equal (Ckpt.family st) family) ->
                Error
                  (Printf.sprintf "resume token is %S but the engine needs %S"
                     (Ckpt.family st) family)
            | _ -> Ok entry
          end)

let handle_query srv sess (q : Protocol.query) =
  match validate srv sess q with
  | Error msg ->
      try_send srv sess
        (Protocol.Error_resp
           { e_id = q.q_id; e_code = Protocol.Bad_request; e_msg = msg })
  | Ok entry -> (
      match
        Budget.create ?deadline_s:q.q_deadline_s ?max_results:q.q_max_results
          ()
      with
      | exception Invalid_argument msg ->
          try_send srv sess
            (Protocol.Error_resp
               { e_id = q.q_id; e_code = Protocol.Bad_request; e_msg = msg })
      | budget -> (
          (* per-client quota first (a refusal is free and typed), then
             the scheduler's global backlog *)
          let squota = session_quota sess in
          let quota_ok =
            match squota with
            | None -> Ok ()
            | Some qt -> Quota.admit_query qt ~now:(now ())
          in
          match quota_ok with
          | Error wait ->
              try_send srv sess
                (Protocol.Retry_after { ra_id = q.q_id; ra_seconds = wait })
          | Ok () -> (
              let refund () =
                match squota with
                | None -> ()
                | Some qt -> Quota.refund_query qt
              in
              (* pin the serving epoch, then register — so a [Cancel] can
                 hit a query that is still queued, and the job's
                 run/abort paths release both through unregister *)
              let cell =
                Scoll.Sync.with_lock entry.ge_lock (fun () ->
                    entry.ge_pins <- entry.ge_pins + 1;
                    entry.ge_cell)
              in
              register sess q.q_id { aq_budget = budget; aq_entry = entry };
              let job =
                {
                  Scheduler.run =
                    (fun () -> run_job srv sess entry cell q budget);
                  abort =
                    (fun () ->
                      (* dropped before running: the pin and the quota
                         token both come back *)
                      unregister sess q.q_id;
                      refund ();
                      try_send srv sess (cancelled_done q.q_id));
                }
              in
              match Scheduler.submit srv.sched ~lane:sess.sid job with
              | `Accepted -> ()
              | `Busy (running, queued) ->
                  unregister sess q.q_id;
                  refund ();
                  try_send srv sess
                    (Protocol.Busy
                       { b_id = q.q_id; b_running = running; b_queued = queued })
              | `Shutdown ->
                  unregister sess q.q_id;
                  refund ();
                  try_send srv sess (cancelled_done q.q_id))))

(* ---------- mutation (on the session thread) ---------- *)

(* Append the accepted edits to the journal and fsync, with the
   [daemon.mutate.journal] / [daemon.mutate.flush] fault sites armed.
   On any failure the journal is truncated back to the last acked
   record, so the on-disk script is always exactly the acked prefix —
   the crash drill replays it to a well-defined epoch. *)
let journal_append srv entry edits =
  match entry.ge_persist with
  | None -> Ok ()
  | Some p -> (
      let image = String.concat "" (List.map Diff.encode_edit edits) in
      match
        Scoll.Fault.check srv.fault "daemon.mutate.journal";
        (* SAFETY: the append runs under [ge_lock] deliberately — the
           flush-before-ack ordering and the journal's "acked prefix"
           invariant need the tip, the journal and the epoch counters to
           move together; queries never block on [ge_lock] for longer
           than a store probe, and only mutations of this one graph wait *)
        (write_all p.p_journal image [@lint.allow "lock-order"]);
        Scoll.Fault.check srv.fault "daemon.mutate.flush";
        (Unix.fsync p.p_journal [@lint.allow "lock-order"])
      with
      | () ->
          p.p_journal_len <- p.p_journal_len + String.length image;
          Ok ()
      | exception ((Scoll.Fault.Injected _ | Unix.Unix_error _) as e) ->
          (try
             (* SAFETY: same critical section as the failed append; the
                truncate restores the acked-prefix invariant *)
             (Unix.ftruncate p.p_journal p.p_journal_len
             [@lint.allow "lock-order"]);
             ignore (Unix.lseek p.p_journal p.p_journal_len Unix.SEEK_SET)
           with Unix.Unix_error _ -> ());
          Error ("mutation journal append failed: " ^ Printexc.to_string e))

(* Fold the tip into a fresh generation once the delta grew past the
   threshold. Persist failure is not fatal: the current generation's
   journal keeps growing and the rebase retries at the next crossing. *)
(* SAFETY: called only from [apply_mutation], i.e. under [ge_lock] — the
   fact collector is per-call-site for held locks, so the ge_* field
   accesses below look unlocked to it *)
let[@lint.allow "atomicity"] try_rebase srv entry after =
  let epoch = entry.ge_offset + entry.ge_jcount in
  let ok =
    match entry.ge_persist with
    | None -> true
    | Some p -> (
        (* SAFETY: rebase I/O under [ge_lock] — see journal_append; it
           runs once per [compact_threshold] edits, not per mutation *)
        match
          (persist_rebase ~fault:srv.fault p after ~epoch
          [@lint.allow "lock-order"])
        with
        | () -> true
        | exception ((Sys_error _ | Unix.Unix_error _ | Scoll.Fault.Injected _) as e) ->
            prerr_endline
              (Printf.sprintf
                 "scliques-daemon: rebase of %S deferred (%s); journal keeps \
                  growing"
                 entry.ge_name (Printexc.to_string e));
            false)
  in
  if ok then begin
    entry.ge_tip <- Overlay.of_graph after;
    entry.ge_offset <- epoch;
    entry.ge_jcount <- 0
  end

(* The mutation body, under [ge_lock]: strict apply with inverse-edit
   rollback, flush-before-ack journaling, then a fresh epoch cell whose
   stores carry forward every ball the locality radius keeps valid. The
   old cell — and any query pinned to it — is untouched. *)
(* SAFETY: the single caller in [handle_mutate] holds [ge_lock] for the
   whole body; every ge_* access here is inside that critical section *)
let[@lint.allow "atomicity"] apply_mutation srv entry (header : Diff.header) edits =
  let tip = entry.ge_tip in
  if header.base_n <> Overlay.n tip || header.base_m <> Overlay.m tip then
    Error
      ( Protocol.Bad_request,
        Printf.sprintf
          "diff base mismatch: script against n=%d m=%d, graph %S is at n=%d \
           m=%d (epoch %d)"
          header.base_n header.base_m entry.ge_name (Overlay.n tip)
          (Overlay.m tip)
          (entry.ge_offset + entry.ge_jcount) )
  else begin
    (* [Overlay.apply] is strict but leaves a failed batch half-applied;
       the wire path must be atomic, so apply edit-by-edit and undo the
       applied prefix with inverse edits (guaranteed effective: each
       undoes an edit that just succeeded) on the first ineffective one *)
    let rollback applied =
      List.iter
        (fun e ->
          let undone =
            match e with
            | Overlay.Insert (u, v) -> Overlay.delete_edge tip u v
            | Overlay.Delete (u, v) -> Overlay.insert_edge tip u v
          in
          assert undone)
        applied
    in
    let rec apply_all applied = function
      | [] -> Ok applied
      | e :: rest ->
          let effective =
            match e with
            | Overlay.Insert (u, v) -> Overlay.insert_edge tip u v
            | Overlay.Delete (u, v) -> Overlay.delete_edge tip u v
          in
          if effective then apply_all (e :: applied) rest
          else begin
            rollback applied;
            Error
              (Format.asprintf
                 "ineffective edit %a (inserting a live edge, or deleting an \
                  absent one)"
                 Overlay.pp_edit e)
          end
    in
    match apply_all [] edits with
    | Error msg -> Error (Protocol.Bad_request, msg)
    | Ok applied_rev -> (
        match journal_append srv entry edits with
        | Error msg ->
            rollback applied_rev;
            Error (Protocol.Server_error, msg)
        | Ok () ->
            entry.ge_jcount <- entry.ge_jcount + List.length edits;
            let after = Overlay.compact tip in
            let touched = Overlay.touched edits in
            let stores = Hashtbl.create 4 in
            Hashtbl.iter
              (fun s st ->
                Hashtbl.replace stores s
                  (Neighborhood.Shared.advance st ~after ~touched))
              entry.ge_cell.ec_stores;
            let epoch = entry.ge_offset + entry.ge_jcount in
            entry.ge_cell <- { ec_epoch = epoch; ec_graph = after; ec_stores = stores };
            if Overlay.delta_size tip >= srv.compact_threshold then
              try_rebase srv entry after;
            Ok (epoch, Sgraph.Graph.n after, Sgraph.Graph.m after))
  end

let handle_mutate srv sess (m : Protocol.mutate) =
  let refuse code msg =
    try_send srv sess
      (Protocol.Error_resp { e_id = m.m_id; e_code = code; e_msg = msg })
  in
  match Smap.find_opt srv.graphs m.m_graph with
  | None -> refuse Protocol.Bad_request (Printf.sprintf "unknown graph %S" m.m_graph)
  | Some entry -> (
      if live_query sess m.m_id then
        refuse Protocol.Bad_request
          (Printf.sprintf "id %d is already in flight as a query" m.m_id)
      else
        let bytes = String.length m.m_script in
        let squota = session_quota sess in
        let quota_ok =
          match squota with
          | None -> Ok ()
          | Some qt -> Quota.admit_mutation qt ~now:(now ()) ~bytes
        in
        match quota_ok with
        | Error wait ->
            try_send srv sess
              (Protocol.Retry_after { ra_id = m.m_id; ra_seconds = wait })
        | Ok () -> (
            (* refusals below hand the bytes back: nothing was journaled,
               so the client should not stay charged for them *)
            let refund () =
              match squota with
              | None -> ()
              | Some qt -> Quota.refund_mutation qt ~bytes
            in
            match Diff.of_string ~file:"<wire>" m.m_script with
            | exception Sgraph.Io_error.Parse_error { msg; _ } ->
                refund ();
                refuse Protocol.Bad_request ("bad edit script: " ^ msg)
            | header, edits -> (
                match
                  Scoll.Sync.with_lock entry.ge_lock (fun () ->
                      (* SAFETY: flush-before-ack by design — the journal
                         write/fsync must share the critical section with
                         the tip and epoch update (see journal_append) *)
                      (apply_mutation srv entry header edits
                      [@lint.allow "lock-order"]))
                with
                | Ok (epoch, n, m_edges) ->
                    try_send srv sess
                      (Protocol.Mutated
                         {
                           mu_id = m.m_id;
                           mu_epoch = epoch;
                           mu_edits = List.length edits;
                           mu_n = n;
                           mu_m = m_edges;
                         })
                | Error (code, msg) ->
                    refund ();
                    refuse code msg)))

(* ---------- reload ---------- *)

(* Hot-swap one graph. With a source loader: re-read it and install a
   fresh epoch-0 cell with cold stores (the graph may be arbitrarily
   different). Without one: fold the journal into a new generation (a
   forced rebase) without changing the serving graph. Sessions survive
   either way, and queries already admitted finish on their pinned
   cell. *)
let reload srv ~graph =
  match Smap.find_opt srv.graphs graph with
  | None -> Error (Printf.sprintf "unknown graph %S" graph)
  | Some entry -> (
      (* file I/O outside the lock: loading must not stall admissions *)
      let loaded =
        match entry.ge_source with
        | None -> Ok None
        | Some load -> (
            match load () with
            | g -> Ok (Some g)
            | exception Sgraph.Io_error.Parse_error { file; line; msg } ->
                Error (Sgraph.Io_error.to_string ~file ~line msg)
            | exception Sys_error msg -> Error msg)
      in
      match loaded with
      | Error _ as e -> e
      | Ok source -> (
          match
            Scoll.Sync.with_lock entry.ge_lock (fun () ->
                Scoll.Fault.check srv.fault "daemon.reload";
                match source with
                | Some g ->
                    (match entry.ge_persist with
                    | None -> ()
                    | Some p ->
                        (* SAFETY: rebase I/O under ge_lock — reload is a
                           rare admin action; see journal_append *)
                        (persist_rebase ~fault:srv.fault p g ~epoch:0
                        [@lint.allow "lock-order"]));
                    entry.ge_tip <- Overlay.of_graph g;
                    entry.ge_offset <- 0;
                    entry.ge_jcount <- 0;
                    entry.ge_cell <-
                      {
                        ec_epoch = 0;
                        ec_graph = g;
                        ec_stores = Hashtbl.create 4;
                      };
                    (0, Sgraph.Graph.n g, Sgraph.Graph.m g)
                | None ->
                    let g = entry.ge_cell.ec_graph in
                    let epoch = entry.ge_offset + entry.ge_jcount in
                    (match entry.ge_persist with
                    | None -> ()
                    | Some p ->
                        (* SAFETY: see above *)
                        (persist_rebase ~fault:srv.fault p g ~epoch
                        [@lint.allow "lock-order"]));
                    entry.ge_tip <- Overlay.of_graph g;
                    entry.ge_offset <- epoch;
                    entry.ge_jcount <- 0;
                    (epoch, Sgraph.Graph.n g, Sgraph.Graph.m g))
          with
          | result -> Ok result
          | exception Scoll.Fault.Injected site ->
              Error ("injected fault at " ^ site)
          | exception ((Sys_error _ | Unix.Unix_error _) as e) ->
              Error ("reload failed: " ^ Printexc.to_string e)))

let handle_reload srv sess ~rl_id ~rl_graph =
  match reload srv ~graph:rl_graph with
  | Ok (epoch, n, m) ->
      try_send srv sess
        (Protocol.Reloaded { rl_id; rl_epoch = epoch; rl_n = n; rl_m = m })
  | Error msg ->
      try_send srv sess
        (Protocol.Error_resp
           { e_id = rl_id; e_code = Protocol.Server_error; e_msg = msg })

(* ---------- listing ---------- *)

let graph_infos srv =
  List.map
    (fun name ->
      let entry = Smap.find srv.graphs name in
      Scoll.Sync.with_lock entry.ge_lock (fun () ->
          {
            Protocol.g_name = name;
            g_n = Sgraph.Graph.n entry.ge_cell.ec_graph;
            g_m = Sgraph.Graph.m entry.ge_cell.ec_graph;
            g_epoch = entry.ge_cell.ec_epoch;
          }))
    srv.t_names

(* ---------- session loop ---------- *)

let session_loop srv sess =
  match
    Protocol.output_magic sess.oc;
    flush sess.oc;
    Protocol.input_magic sess.ic;
    let rec loop () =
      match Protocol.input_frame sess.ic with
      | None -> () (* clean EOF at a frame boundary: the client left *)
      | Some payload ->
          (match Protocol.decode_request payload with
          | Protocol.Ping -> try_send srv sess Protocol.Pong
          | Protocol.List_graphs ->
              try_send srv sess (Protocol.Graphs (graph_infos srv))
          | Protocol.Cancel id -> (
              match lookup sess id with
              | Some budget -> Budget.request_cancel budget
              | None -> () (* already answered, or never ours: a no-op *))
          | Protocol.Hello { h_token } -> (
              (* rebind the session to the token's shared bucket;
                 fire-and-forget like Cancel. An empty token names
                 nobody and keeps the connection's current identity. *)
              match srv.quota with
              | None -> ()
              | Some cfg ->
                  if not (String.equal h_token "") then begin
                    let qt = shared_quota srv cfg ("tok:" ^ h_token) in
                    Scoll.Sync.with_lock sess.slock (fun () ->
                        sess.squota <- Some qt)
                  end)
          | Protocol.Query q -> handle_query srv sess q
          | Protocol.Mutate m -> handle_mutate srv sess m
          | Protocol.Reload { rl_id; rl_graph } ->
              handle_reload srv sess ~rl_id ~rl_graph);
          loop ()
    in
    loop ()
  with
  | () -> ()
  | exception Protocol.Error e ->
      (* a malformed frame or payload: answer with the typed refusal,
         then drop the connection — after a framing error the byte
         stream cannot be trusted to resynchronize *)
      try_send srv sess
        (Protocol.Error_resp
           {
             e_id = 0;
             e_code = Protocol.Bad_request;
             e_msg = Protocol.error_to_string e;
           })
  | exception (End_of_file | Sys_error _ | Unix.Unix_error _ | Write_failed)
    ->
      ()

let session_thread srv sess () =
  Fun.protect
    ~finally:(fun () ->
      kill_session srv sess;
      (* SAFETY: only this thread closes the fds, and only with the session
         dead (workers check [alive] under [wlock] before touching [oc]);
         the close under [wlock] waits out at most one in-flight frame *)
      Scoll.Sync.with_lock sess.wlock (fun () ->
          (close_out_noerr sess.oc [@lint.allow "lock-order"]));
      (* [ic] shares the fd: closing it too would close a number another
         thread may already have reused *)
      Scoll.Sync.with_lock srv.lock (fun () ->
          srv.sessions <-
            List.filter (fun (s, _) -> s.sid <> sess.sid) srv.sessions))
    (fun () -> session_loop srv sess)

(* ---------- accept loop ---------- *)

let spawn_session srv fd =
  (* resolve the connection's initial quota identity before taking
     [srv.lock]: [shared_quota] takes [qlock], and the two locks are
     never held together *)
  let squota =
    match srv.quota with
    | None -> None
    | Some cfg -> (
        match peer_quota_key fd with
        | Some key -> Some (shared_quota srv cfg key)
        | None -> Some (Quota.create cfg ~now:(now ())))
  in
  Scoll.Sync.with_lock srv.lock (fun () ->
      if srv.stopping then raise Write_failed;
      let sess =
        {
          sid = srv.next_sid;
          fd;
          ic = Unix.in_channel_of_descr fd;
          oc = Unix.out_channel_of_descr fd;
          wlock = Mutex.create ();
          slock = Mutex.create ();
          squota;
          alive = true;
          queries = [];
        }
      in
      srv.next_sid <- srv.next_sid + 1;
      let th = Thread.create (session_thread srv sess) () in
      srv.sessions <- (sess, th) :: srv.sessions)

let accept_loop srv () =
  let rec loop () =
    let stop = Scoll.Sync.with_lock srv.lock (fun () -> srv.stopping) in
    if not stop then begin
      (match Unix.select [ srv.listen_fd ] [] [] 0.05 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept srv.listen_fd with
          | exception Unix.Unix_error _ -> () (* racing stop, or transient *)
          | fd, _ -> (
              match Scoll.Fault.check srv.fault "daemon.accept" with
              | () -> (
                  try spawn_session srv fd
                  with Write_failed ->
                    (* stop began between select and accept *)
                    (try Unix.close fd with Unix.Unix_error _ -> ()))
              | exception Scoll.Fault.Injected _ ->
                  (* injected accept failure: this one connection is
                     refused (the peer sees EOF instead of the magic);
                     the daemon keeps accepting *)
                  (try Unix.close fd with Unix.Unix_error _ -> ())))
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()

(* ---------- lifecycle ---------- *)

let addr t = t.t_addr

let port t =
  match Unix.getsockname t.listen_fd with
  | Unix.ADDR_INET (_, port) -> port
  | Unix.ADDR_UNIX _ -> 0

type stats = { running : int; queued : int; sessions : int; live_queries : int }

let stats srv =
  let sessions, live_queries =
    Scoll.Sync.with_lock srv.lock (fun () ->
        ( List.length srv.sessions,
          List.fold_left
            (fun acc (sess, _) ->
              acc
              + Scoll.Sync.with_lock sess.slock (fun () ->
                    List.length sess.queries))
            0 srv.sessions ))
  in
  {
    running = Scheduler.running srv.sched;
    queued = Scheduler.queued srv.sched;
    sessions;
    live_queries;
  }

let store srv ~graph ~s =
  match Smap.find_opt srv.graphs graph with
  | None -> None
  | Some entry ->
      Scoll.Sync.with_lock entry.ge_lock (fun () ->
          Hashtbl.find_opt entry.ge_cell.ec_stores s)

let graph_epoch srv ~graph =
  Option.map
    (fun entry ->
      Scoll.Sync.with_lock entry.ge_lock (fun () -> entry.ge_cell.ec_epoch))
    (Smap.find_opt srv.graphs graph)

let pinned srv ~graph =
  Option.map
    (fun entry -> Scoll.Sync.with_lock entry.ge_lock (fun () -> entry.ge_pins))
    (Smap.find_opt srv.graphs graph)

let reload_all srv =
  List.map (fun name -> (name, reload srv ~graph:name)) srv.t_names

let create ?(workers = 2) ?(max_queue = 16) ?(par_workers = 1)
    ?(cache_capacity = 65536) ?(compact_threshold = 1024) ?quota ?state_dir
    ?(sources = []) ?(fault = Scoll.Fault.none) ~graphs addr =
  if workers < 1 then invalid_arg "Server.create: workers must be >= 1";
  if max_queue < 0 then invalid_arg "Server.create: max_queue must be >= 0";
  if cache_capacity < 0 then
    invalid_arg "Server.create: cache_capacity must be >= 0";
  if par_workers < 1 then
    invalid_arg "Server.create: par_workers must be >= 1";
  (* the main domain, [workers] query domains, and up to [par_workers - 1]
     helpers under each of them: 1 + workers * par_workers, compared
     without the product so that no value overflows *)
  if workers > (Scliques_core.Parallel.max_domains - 1) / par_workers then
    invalid_arg
      (Printf.sprintf
         "Server.create: 1 + workers * par_workers must be <= %d (the \
          runtime's domain cap)"
         Scliques_core.Parallel.max_domains);
  if compact_threshold < 1 then
    invalid_arg "Server.create: compact_threshold must be >= 1";
  (match quota with
  | None -> ()
  | Some c -> (
      match Quota.config_ok c with
      | Ok () -> ()
      | Error msg -> invalid_arg ("Server.create: " ^ msg)));
  if List.is_empty graphs then invalid_arg "Server.create: no graphs to serve";
  (* a vanished client must surface as a write error, not kill the
     process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let table = Smap.create 8 in
  List.iter
    (fun (name, g) ->
      if String.length name > 0xFFFF then
        invalid_arg "Server.create: graph name exceeds the wire length field";
      if Smap.mem table name then
        invalid_arg (Printf.sprintf "Server.create: duplicate graph %S" name);
      (match state_dir with
      | Some _ when not (state_name_ok name) ->
          invalid_arg
            (Printf.sprintf
               "Server.create: graph name %S cannot be persisted (allowed: \
                letters, digits, '.', '_', '-')"
               name)
      | _ -> ());
      let tip, serving, offset, jcount, persist =
        match state_dir with
        | None -> (Overlay.of_graph g, g, 0, 0, None)
        | Some dir ->
            let tip, serving, offset, jcount, p = attach_state ~fault ~dir name g in
            (tip, serving, offset, jcount, Some p)
      in
      Smap.add table name
        {
          ge_name = name;
          ge_source = List.assoc_opt name sources;
          ge_lock = Mutex.create ();
          ge_tip = tip;
          ge_cell =
            {
              ec_epoch = offset + jcount;
              ec_graph = serving;
              ec_stores = Hashtbl.create 4;
            };
          ge_offset = offset;
          ge_jcount = jcount;
          ge_pins = 0;
          ge_persist = persist;
        })
    graphs;
  let listen_fd =
    match addr with
    | Unix_socket path ->
        if Sys.file_exists path then Sys.remove path;
        (* bind under a temp name and rename only after [listen]: the
           file at [path] appearing means a listener is behind it, so a
           watcher polling for the socket can never connect into the
           bind-to-listen window (real on single-core boxes, where the
           daemon may be preempted between the two syscalls) *)
        let tmp = Printf.sprintf "%s.%d.bind" path (Unix.getpid ()) in
        if Sys.file_exists tmp then Sys.remove tmp;
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (try
           Unix.bind fd (Unix.ADDR_UNIX tmp);
           Unix.listen fd 64;
           Unix.rename tmp path
         with e ->
           (try Unix.close fd with Unix.Unix_error _ -> ());
           (try Sys.remove tmp with Sys_error _ -> ());
           raise e);
        fd
    | Tcp (host, port) ->
        let ip =
          try Unix.inet_addr_of_string host
          with Failure _ -> (
            match Unix.gethostbyname host with
            | { Unix.h_addr_list = [||]; _ } ->
                invalid_arg
                  (Printf.sprintf "Server.create: host %S has no address" host)
            | { Unix.h_addr_list; _ } -> h_addr_list.(0)
            | exception Not_found ->
                invalid_arg
                  (Printf.sprintf "Server.create: unknown host %S" host))
        in
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        (try
           Unix.setsockopt fd Unix.SO_REUSEADDR true;
           Unix.bind fd (Unix.ADDR_INET (ip, port));
           Unix.listen fd 64
         with e ->
           (try Unix.close fd with Unix.Unix_error _ -> ());
           raise e);
        fd
  in
  let srv =
    {
      t_addr = addr;
      listen_fd;
      sched = Scheduler.create ~workers ~max_queue;
      fault;
      graphs = table;
      t_names = List.map fst graphs;
      par_workers;
      cache_capacity;
      compact_threshold;
      quota;
      qtable = Smap.create 8;
      qlock = Mutex.create ();
      lock = Mutex.create ();
      sessions = [];
      stopping = false;
      next_sid = 1;
      accept_thread = None;
    }
  in
  srv.accept_thread <- Some (Thread.create (accept_loop srv) ());
  srv

let stop ?(drain = true) srv =
  let first =
    Scoll.Sync.with_lock srv.lock (fun () ->
        if srv.stopping then false
        else begin
          srv.stopping <- true;
          true
        end)
  in
  if first then begin
    (match srv.accept_thread with Some th -> Thread.join th | None -> ());
    (try Unix.close srv.listen_fd with Unix.Unix_error _ -> ());
    (match srv.t_addr with
    | Unix_socket path -> ( try Sys.remove path with Sys_error _ -> ())
    | Tcp _ -> ());
    if not drain then
      (* truncate the in-flight queries: each answers Done (cancelled,
         with whatever resume token its engine can produce) promptly *)
      List.iter
        (fun (sess, _) ->
          List.iter
            (fun (_, aq) -> Budget.request_cancel aq.aq_budget)
            (Scoll.Sync.with_lock sess.slock (fun () -> sess.queries)))
        (Scoll.Sync.with_lock srv.lock (fun () -> srv.sessions));
    (* refuse new work, abort the backlog (each queued query is answered
       with a cancelled Done), wait for the running queries to finish
       streaming, and join the worker domains *)
    Scheduler.shutdown srv.sched;
    let sessions = Scoll.Sync.with_lock srv.lock (fun () -> srv.sessions) in
    List.iter
      (fun (sess, _) ->
        try Unix.shutdown sess.fd Unix.SHUTDOWN_ALL
        with Unix.Unix_error _ -> ())
      sessions;
    List.iter (fun (_, th) -> Thread.join th) sessions;
    (* every session is gone: the journals can close *)
    Smap.iter
      (fun _ entry ->
        match entry.ge_persist with
        | None -> ()
        | Some p -> ( try Unix.close p.p_journal with Unix.Unix_error _ -> ()))
      srv.graphs
  end
  else
    (* a concurrent stop owns the teardown; wait until it finished *)
    let rec wait () =
      let busy =
        Scoll.Sync.with_lock srv.lock (fun () ->
            not (List.is_empty srv.sessions))
      in
      if busy then begin
        Thread.yield ();
        wait ()
      end
    in
    wait ()
