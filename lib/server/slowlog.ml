(* Tail-based trace sampling for the serving daemon: whether to keep a
   request is decided when it finishes, from its latency and typed outcome,
   and only a kept request's span tree is gathered from the span store's
   rings. Kept requests — incidents — land in a bounded ring exposed live
   at /slowlog and dumpable as one Perfetto file each, so "why was that
   query slow at 03:12" is answerable from a server up for weeks. *)

module Trace = Zkqac_telemetry.Trace
module Flight = Zkqac_telemetry.Flight
module Histogram = Zkqac_telemetry.Histogram
module Metrics = Zkqac_telemetry.Metrics
module Json = Zkqac_telemetry.Json

let m_sampled =
  Metrics.counter ~name:"zkqac_slowlog_sampled_total"
    ~help:"Requests kept by the tail sampler, by reason (slow | error)."

let m_observed =
  Metrics.counter ~name:"zkqac_slowlog_observed_total"
    ~help:"Requests observed by the tail sampler (sampled or not)."

type incident = {
  i_req_id : int64;
  i_minted : bool;  (** the server minted the id (the client sent none) *)
  i_conn : int;
  i_time : float;  (** Unix wall-clock time the request finished *)
  i_outcome : string;  (** typed response code *)
  i_reason : string;  (** why it was kept: "slow" or "error" *)
  i_total_ms : float;
  i_timing : Proto.timing option;
  i_spans : Flight.event list;  (** the request's span tree, root included *)
  i_complete : bool;  (** no ring can have overwritten part of the tree *)
}

type t = {
  cap : int;
  threshold_ms : float; (* > 0 fixed; 0 = dynamic p99 *)
  lock : Mutex.t;
  ring : incident option array;
  mutable next : int;
  mutable sampled : int; (* incidents ever kept *)
  mutable observed : int; (* requests ever observed *)
  lat : Histogram.t; (* request latencies, ns — feeds the dynamic threshold *)
}

(* Dynamic mode needs enough observations for a meaningful p99, and a floor
   keeps a microsecond-fast fixture server from flagging its own noise. *)
let dynamic_warmup = 64
let dynamic_floor_ms = 1.0

let create ?(cap = 64) ?(threshold_ms = 0.0) () =
  if cap < 1 then invalid_arg "Slowlog.create: cap < 1";
  {
    cap;
    threshold_ms;
    lock = Mutex.create ();
    ring = Array.make cap None;
    next = 0;
    sampled = 0;
    observed = 0;
    lat = Histogram.create ();
  }

(* Caller holds [t.lock]. *)
let threshold_now_locked t =
  if t.threshold_ms > 0.0 then t.threshold_ms
  else if t.observed < dynamic_warmup then infinity
  else Float.max dynamic_floor_ms (Histogram.quantile t.lat 0.99 /. 1e6)

let observe t ~root ~req_id ~minted ~conn ~outcome ~total_ms ?timing () =
  (* The decision threshold is computed before this request's latency joins
     the histogram, so one slow request cannot hide itself by dragging the
     p99 up in its own observation. *)
  Mutex.lock t.lock;
  let threshold = threshold_now_locked t in
  t.observed <- t.observed + 1;
  Histogram.record t.lat (int_of_float (total_ms *. 1e6));
  Mutex.unlock t.lock;
  Metrics.inc m_observed [];
  let reason =
    if outcome <> "ok" then Some "error"
    else if total_ms > threshold then Some "slow"
    else None
  in
  match reason with
  | None -> false
  | Some reason ->
    (* Outside the lock: gathering scans every ring. *)
    let spans, complete = if root = 0 then ([], true) else Flight.gather ~root in
    let inc =
      {
        i_req_id = req_id;
        i_minted = minted;
        i_conn = conn;
        i_time = Unix.gettimeofday ();
        i_outcome = outcome;
        i_reason = reason;
        i_total_ms = total_ms;
        i_timing = timing;
        i_spans = spans;
        i_complete = complete;
      }
    in
    Mutex.lock t.lock;
    t.ring.(t.next) <- Some inc;
    t.next <- (t.next + 1) mod t.cap;
    t.sampled <- t.sampled + 1;
    Mutex.unlock t.lock;
    Metrics.inc m_sampled [ ("reason", reason) ];
    true

let incidents t =
  Mutex.lock t.lock;
  (* Oldest first: the ring wraps at [next]. *)
  let out = ref [] in
  for k = t.cap - 1 downto 0 do
    match t.ring.((t.next + k) mod t.cap) with
    | Some inc -> out := inc :: !out
    | None -> ()
  done;
  let v = List.rev !out in
  Mutex.unlock t.lock;
  v

let sampled t =
  Mutex.lock t.lock;
  let v = t.sampled in
  Mutex.unlock t.lock;
  v

let observed t =
  Mutex.lock t.lock;
  let v = t.observed in
  Mutex.unlock t.lock;
  v

(* --- export --- *)

let span_json (s : Flight.event) =
  Json.Obj
    [ ("id", Json.Int s.seq);
      ("parent", Json.Int s.parent);
      ("root", Json.Int s.root);
      ("name", Json.Str s.name);
      ("tid", Json.Int s.domain);
      ("start_ns", Json.Float (float_of_int (Trace.start_ns s)));
      ("dur_ns", Json.Float (float_of_int s.v));
      ("attrs", Json.Obj (Trace.attrs_json s)) ]

let incident_json inc =
  Json.Obj
    ([ ("req_id", Json.Str (Proto.req_id_hex inc.i_req_id));
       ("minted", Json.Bool inc.i_minted);
       ("conn", Json.Int inc.i_conn);
       ("time", Json.Float inc.i_time);
       ("outcome", Json.Str inc.i_outcome);
       ("reason", Json.Str inc.i_reason);
       ("total_ms", Json.Float inc.i_total_ms) ]
    @ (match inc.i_timing with
      | Some tm -> [ ("timing", Proto.timing_json tm) ]
      | None -> [])
    @ [ ("complete", Json.Bool inc.i_complete);
        ("spans", Json.Arr (List.map span_json inc.i_spans)) ])

let to_json t =
  let incs = incidents t in
  Mutex.lock t.lock;
  let observed = t.observed and sampled = t.sampled in
  let threshold = threshold_now_locked t in
  Mutex.unlock t.lock;
  Json.Obj
    [ ("slowlog", Json.Int 1);
      ("observed", Json.Int observed);
      ("sampled", Json.Int sampled);
      ( "threshold_ms",
        if Float.is_finite threshold then Json.Float threshold
        else Json.Str "warming-up" );
      ("retained", Json.Int (List.length incs));
      ("incidents", Json.Arr (List.map incident_json incs)) ]

(* Per-incident Perfetto files are capped so a misbehaving hour cannot fill
   the disk with trace files; the newest incidents win. *)
let max_perfetto_dumps = 16

let dump t ~dir =
  let put path data =
    match Zkqac_durable.Durable.replace ~path data with
    | Ok () -> true
    | Error _ -> false
  in
  (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
   with Sys_error _ -> ());
  let written = ref 0 in
  let slowlog_path =
    Filename.concat dir (Printf.sprintf "slowlog-%d.json" (Unix.getpid ()))
  in
  if put slowlog_path (Json.to_string (to_json t) ^ "\n") then incr written;
  let incs = incidents t in
  let newest_first = List.rev incs in
  List.iteri
    (fun k inc ->
      if k < max_perfetto_dumps && inc.i_spans <> [] then begin
        let path =
          Filename.concat dir
            (Printf.sprintf "incident-%s.trace.json" (Proto.req_id_hex inc.i_req_id))
        in
        if put path (Json.to_string (Trace.chrome_json_of_spans inc.i_spans) ^ "\n")
        then incr written
      end)
    newest_first;
  !written
