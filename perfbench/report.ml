type t = {
  mutable attempted : int;
  mutable errors : string list;
  mutable metrics : (string * float) list;
  mutable layers : (string * float) list;
  mutable detail : (string * (string * float)) list;
  mutable counters : (string * int) list;
  mutable info : (string * string) list;
}

let create () =
  {
    attempted = 0;
    errors = [];
    metrics = [];
    layers = [];
    detail = [];
    counters = [];
    info = [];
  }

let fail r fmt = Printf.ksprintf (fun msg -> r.errors <- msg :: r.errors) fmt

let metric r name v = r.metrics <- (name, v) :: r.metrics

let layer r name v = r.layers <- (name, v) :: r.layers

let detail r name ~unit v = r.detail <- (name, (unit, v)) :: r.detail

let counter r name v = r.counters <- (name, v) :: r.counters

let info r k v = r.info <- (k, v) :: r.info

let now = Scliques_obs.Clock.now

let json_string s = Scliques_obs.Sink.to_string (Scliques_obs.Sink.String s)

let obj fields render =
  "{"
  ^ String.concat ","
      (List.rev_map (fun (k, v) -> json_string k ^ ":" ^ render v) fields)
  ^ "}"

(* a non-finite value cannot be a measurement: it goes out as null and
   run.py refuses the run *)
let float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print r =
  Printf.printf
    "{\"attempted\":%d,\"failed\":%d,\"errors\":[%s],\"metrics\":%s,\"layers\":%s,\"detail\":%s,\"counters\":%s,\"info\":%s}\n%!"
    r.attempted (List.length r.errors)
    (String.concat "," (List.rev_map json_string r.errors))
    (obj r.metrics float) (obj r.layers float)
    (obj r.detail (fun (unit, v) ->
         Printf.sprintf "{\"value\":%s,\"unit\":%s}" (float v) (json_string unit)))
    (obj r.counters string_of_int) (obj r.info json_string)

let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> failwith "no VmHWM line"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan
