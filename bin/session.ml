(* The budgeted session that [scliques enum] and [scliques client] share:
   the --checkpoint/--resume bookkeeping around one enumeration a budget
   may cut short. [start] loads the checkpoint to resume and refuses it
   unless it was written for this graph, these parameters and this
   algorithm family; [finish] turns the run's outcome into the exit
   code: 0 when complete (the checkpoint, now stale, is removed), 3 when
   truncated (the checkpoint is saved, its emitted count summed across
   resumes). *)

module Budget = Scliques_core.Budget
module Ckpt = Scliques_core.Checkpoint

type t = {
  algorithm : string; (* the checkpoint's provenance label *)
  s : int;
  n : int;
  m : int;
  min_size : int;
  resumed : (string * Ckpt.t) option; (* the file resumed from, loaded *)
  out : string option; (* --checkpoint, else the resumed file *)
}

(* @raise Failure on a checkpoint for another run, Sys_error on an
   unreadable one, Sgraph.Io_error.Parse_error on a corrupt one *)
let start ~algorithm ~family ~s ~n ~m ~min_size ~checkpoint ~resume =
  let load p =
    let c = Ckpt.load p in
    Ckpt.check_compat c ~s ~n ~m ~min_size;
    if not (String.equal (Ckpt.family c.Ckpt.state) family) then
      failwith
        (Printf.sprintf "checkpoint %s holds a %S state; algorithm %s needs %S" p
           (Ckpt.family c.Ckpt.state) algorithm family);
    (p, c)
  in
  {
    algorithm;
    s;
    n;
    m;
    min_size;
    resumed = Option.map load resume;
    out = (match checkpoint with Some _ -> checkpoint | None -> resume);
  }

let state t = Option.map (fun (_, c) -> c.Ckpt.state) t.resumed

let emitted t = match t.resumed with Some (_, c) -> c.Ckpt.emitted | None -> 0

(* --max-results counts across resumes: what is left of the cap *)
let remaining t = Option.map (fun k -> max 0 (k - emitted t))

(* [emitted]: the results this run delivered; [resumable]: its restart
   state, [Some] whenever it was truncated *)
let finish t outcome ~emitted:this_run ~resumable =
  match outcome with
  | Budget.Complete ->
      (* the run is whole: a leftover checkpoint would make a later
         --resume skip work that belongs in a fresh run *)
      (match t.out with Some p when Sys.file_exists p -> Sys.remove p | _ -> ());
      0
  | Budget.Truncated reason ->
      let reason = Budget.reason_to_string reason in
      (match (t.out, resumable) with
      | Some p, Some state ->
          Ckpt.save
            {
              Ckpt.algorithm = t.algorithm;
              s = t.s;
              n = t.n;
              m = t.m;
              min_size = t.min_size;
              emitted = emitted t + this_run;
              state;
            }
            p;
          Printf.eprintf "scliques: truncated (%s); checkpoint written to %s\n%!"
            reason p
      | _ ->
          Printf.eprintf "scliques: truncated (%s); no --checkpoint, progress lost\n%!"
            reason);
      3
