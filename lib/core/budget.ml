type reason = Deadline | Max_results | Max_cache_bytes | Cancelled

type outcome = Complete | Truncated of reason

let reason_to_string = function
  | Deadline -> "deadline"
  | Max_results -> "max-results"
  | Max_cache_bytes -> "max-cache-bytes"
  | Cancelled -> "cancelled"

type t = {
  deadline : float; (* absolute Clock.now time; [infinity] = none *)
  max_results : int; (* [max_int] = none *)
  max_cache_bytes : int; (* [max_int] = none *)
  cache_bytes : unit -> int;
  poll_every : int;
  cancel : bool Atomic.t;
  tripped : reason option Atomic.t; (* sticky: first writer wins *)
  results : int Atomic.t;
}

let create ?deadline_s ?max_results ?max_cache_bytes
    ?(cache_bytes = fun () -> 0) ?(poll_every = 1024) () =
  if poll_every < 1 then invalid_arg "Budget.create: poll_every must be >= 1";
  let nonneg name v =
    match v with
    | Some v when v < 0 -> invalid_arg ("Budget.create: negative " ^ name)
    | Some v -> v
    | None -> max_int
  in
  (* [not (d >= 0.)] also refuses NaN, which every comparison with the
     clock would treat as "not yet": an unbounded run *)
  (match deadline_s with
  | Some d when not (d >= 0.) -> invalid_arg "Budget.create: negative or NaN deadline_s"
  | _ -> ());
  {
    deadline =
      (match deadline_s with
      | None -> infinity
      | Some d -> Scliques_obs.Clock.now () +. d);
    max_results = nonneg "max_results" max_results;
    max_cache_bytes = nonneg "max_cache_bytes" max_cache_bytes;
    cache_bytes;
    poll_every;
    cancel = Atomic.make false;
    (* a zero cap is already reached: nothing may be emitted *)
    tripped = Atomic.make (match max_results with Some 0 -> Some Max_results | _ -> None);
    results = Atomic.make 0;
  }

let unlimited () = create ()

let trip t reason =
  ignore (Atomic.compare_and_set t.tripped None (Some reason) : bool)

let request_cancel t = Atomic.set t.cancel true

let live t = match Atomic.get t.tripped with None -> true | Some _ -> false

let status t =
  match Atomic.get t.tripped with None -> Complete | Some r -> Truncated r

let poll t =
  match Atomic.get t.tripped with
  | Some _ -> false
  | None ->
      if Atomic.get t.cancel then begin
        trip t Cancelled;
        false
      end
      else if t.deadline < infinity && Scliques_obs.Clock.now () >= t.deadline
      then begin
        trip t Deadline;
        false
      end
      else if t.max_cache_bytes < max_int && t.cache_bytes () > t.max_cache_bytes
      then begin
        trip t Max_cache_bytes;
        false
      end
      else true

let checker t =
  (* the countdown starts at 1 so the first call polls in full — a zero
     deadline then truncates before any work, deterministically *)
  let countdown = ref 1 in
  fun () ->
    match Atomic.get t.tripped with
    | Some _ -> false
    | None ->
        decr countdown;
        if !countdown <= 0 then begin
          countdown := t.poll_every;
          poll t
        end
        else true

let note_result t =
  let n = Atomic.fetch_and_add t.results 1 + 1 in
  if n >= t.max_results then trip t Max_results
