(* Pull-based metrics registry: labelled counters, gauges and per-stage
   summaries over the signals the rest of the telemetry layer already
   collects. Nothing here samples on its own — [collect] pulls the current
   value of every registered source, so an exporter (the `zkqac metrics`
   subcommand, the BENCH.json "metrics" section) always sees one coherent
   snapshot in registration order, which keeps the Prometheus exposition
   byte-stable for golden tests. *)

type labels = (string * string) list
type kind = Counter | Gauge | Summary

type sample = { suffix : string; labels : labels; value : float }
type metric = { name : string; kind : kind; help : string; samples : sample list }

let sample ?(suffix = "") ?(labels = []) value = { suffix; labels; value }

(* --- mutable counter families (push side: rare events like rejections) ---

   Cells are floats so one family type serves both event counts and
   accumulated durations (e.g. fsync seconds), where an int cell would lose
   everything below the unit. Counts stay exact up to 2^53. *)

type family = {
  fname : string;
  fhelp : string;
  cells : (labels, float ref) Hashtbl.t;
  lock : Mutex.t;
}

let families : family list ref = ref []
let collectors : (unit -> metric list) list ref = ref []
let registry_lock = Mutex.create ()

let counter ~name ~help =
  let f = { fname = name; fhelp = help; cells = Hashtbl.create 8; lock = Mutex.create () } in
  Mutex.lock registry_lock;
  families := !families @ [ f ];
  let collect () =
    Mutex.lock f.lock;
    let cells = Hashtbl.fold (fun k v acc -> (k, !v) :: acc) f.cells [] in
    Mutex.unlock f.lock;
    [ {
        name = f.fname;
        kind = Counter;
        help = f.fhelp;
        samples =
          List.sort compare cells
          |> List.map (fun (labels, v) -> sample ~labels v);
      } ]
  in
  collectors := !collectors @ [ collect ];
  Mutex.unlock registry_lock;
  f

let finc ?(by = 1.0) f labels =
  let labels = List.sort compare labels in
  Mutex.lock f.lock;
  (match Hashtbl.find_opt f.cells labels with
   | Some r -> r := !r +. by
   | None -> Hashtbl.add f.cells labels (ref by));
  Mutex.unlock f.lock

let fget f labels =
  let labels = List.sort compare labels in
  Mutex.lock f.lock;
  let v = match Hashtbl.find_opt f.cells labels with Some r -> !r | None -> 0.0 in
  Mutex.unlock f.lock;
  v

let inc ?(by = 1) f labels = finc ~by:(float_of_int by) f labels
let get f labels = int_of_float (fget f labels)

(* --- pull collectors --- *)

let register collect =
  Mutex.lock registry_lock;
  collectors := !collectors @ [ collect ];
  Mutex.unlock registry_lock

let register_gauge ~name ~help f =
  register (fun () ->
      [ {
          name;
          kind = Gauge;
          help;
          samples = List.map (fun (labels, v) -> sample ~labels v) (f ());
        } ])

(* --- built-in sources --- *)

let rejections =
  counter ~name:"zkqac_verify_rejections_total"
    ~help:"Client-side verification rejections by typed Verify_error code."

let rejection code = inc rejections [ ("code", code) ]

let batch_fallbacks_f =
  counter ~name:"zkqac_batch_fallbacks_total"
    ~help:"Batched VO verifications that fell back to the sequential path."

let batch_fallback () = inc batch_fallbacks_f []
let batch_fallbacks () = get batch_fallbacks_f []

let recoveries =
  counter ~name:"zkqac_recoveries_total"
    ~help:
      "Crash-recovery operations by outcome (checkpoint-ok, \
       checkpoint-fallback, audit-clean, audit-truncated)."

let recovery outcome = inc recoveries [ ("outcome", outcome) ]

let () =
  (* Group/scheme operation counts at the PAIRING boundary. *)
  register (fun () ->
      [ {
          name = "zkqac_ops_total";
          kind = Counter;
          help = "Cryptographic operation counts at the PAIRING boundary.";
          samples =
            List.map
              (fun c ->
                sample
                  ~labels:[ ("op", Telemetry.counter_name c) ]
                  (float_of_int (Telemetry.get c)))
              Telemetry.all_counters;
        } ]);
  (* Per-stage latency, as a Prometheus summary per stage label. *)
  register (fun () ->
      let samples =
        List.concat_map
          (fun (stage, (c : Stage.cell)) ->
            let h = c.hist and s = [ ("stage", stage) ] in
            let sec ns = ns /. 1e9 in
            [ sample ~labels:(s @ [ ("quantile", "0.5") ])
                (sec (Histogram.quantile h 0.5));
              sample ~labels:(s @ [ ("quantile", "0.95") ])
                (sec (Histogram.quantile h 0.95));
              sample ~labels:(s @ [ ("quantile", "0.99") ])
                (sec (Histogram.quantile h 0.99));
              sample ~suffix:"_count" ~labels:s
                (float_of_int (Histogram.count h));
              sample ~suffix:"_sum" ~labels:s (sec (Histogram.sum_ns h));
            ])
          (Stage.snapshot ())
      in
      [ {
          name = "zkqac_stage_latency_seconds";
          kind = Summary;
          help = "Latency of every closed span, by stage name.";
          samples;
        } ]);
  (* Per-stage allocation attribution. *)
  register (fun () ->
      let samples =
        List.concat_map
          (fun (stage, (c : Stage.cell)) ->
            [ sample ~labels:[ ("stage", stage); ("heap", "minor") ] c.minor;
              sample ~labels:[ ("stage", stage); ("heap", "promoted") ] c.promoted;
              sample ~labels:[ ("stage", stage); ("heap", "major") ] c.major;
            ])
          (Stage.snapshot ())
      in
      [ {
          name = "zkqac_stage_alloc_words_total";
          kind = Counter;
          help = "GC words attributed to closed spans, by stage and heap.";
          samples;
        } ]);
  (* Per-domain allocation totals: the worker-domain breakdown of the
     Pool fan-out. *)
  register (fun () ->
      let samples =
        List.concat_map
          (fun (tid, (c : Stage.cell)) ->
            let d = [ ("domain", string_of_int tid) ] in
            [ sample ~labels:(d @ [ ("heap", "minor") ]) c.minor;
              sample ~labels:(d @ [ ("heap", "major") ]) c.major;
            ])
          (Stage.by_domain ())
      in
      [ {
          name = "zkqac_domain_alloc_words_total";
          kind = Counter;
          help = "GC words attributed to spans, by recording domain and heap.";
          samples;
        } ]);
  (* Trace health: silently dropped spans make traces look complete. *)
  register (fun () ->
      [ {
          name = "zkqac_trace_dropped_spans";
          kind = Gauge;
          help = "Spans discarded because the trace capacity bound was hit.";
          samples = [ sample (float_of_int (Trace.dropped ())) ];
        } ]);
  (* Flight-recorder health. Registered here rather than in Flight so the
     recorder itself stays dependency-free; samples are unconditional
     because the recorder is always on. *)
  register (fun () ->
      [ {
          name = "zkqac_flight_events_total";
          kind = Counter;
          help = "Structured events recorded by the always-on flight recorder.";
          samples = [ sample (float_of_int (Flight.recorded ())) ];
        };
        {
          name = "zkqac_flight_dropped_events_total";
          kind = Counter;
          help = "Flight-recorder events overwritten by ring-buffer wraparound.";
          samples = [ sample (float_of_int (Flight.dropped ())) ];
        };
        {
          name = "zkqac_flight_trips_total";
          kind = Counter;
          help = "Flight-recorder dump triggers (verify errors, pool failures, signals).";
          samples = [ sample (float_of_int (Flight.trips ())) ];
        } ]);
  (* GC pause attribution from the runtime-events bridge (per domain) and
     from the stage table (per stage). Registered here, not in Rte, because
     Rte cannot depend on Metrics: Metrics pulls from Trace, which samples
     Rte's pause marks. Samples appear only once Rte has read pauses, so
     expositions without Rte running are unchanged. *)
  register (fun () ->
      let doms = Rte.domain_snapshot () in
      let totals =
        List.concat_map
          (fun (d : Rte.dom_stats) ->
            let l = [ ("domain", d.Rte.label) ] in
            (if d.Rte.minor_n = 0 then []
             else [ sample ~labels:(l @ [ ("gc", "minor") ]) d.Rte.minor_s ])
            @
            if d.Rte.major_n = 0 then []
            else [ sample ~labels:(l @ [ ("gc", "major") ]) d.Rte.major_s ])
          doms
      and maxima =
        List.concat_map
          (fun (d : Rte.dom_stats) ->
            let l = [ ("domain", d.Rte.label) ] in
            (if d.Rte.minor_n = 0 then []
             else [ sample ~labels:(l @ [ ("gc", "minor") ]) d.Rte.minor_max_s ])
            @
            if d.Rte.major_n = 0 then []
            else [ sample ~labels:(l @ [ ("gc", "major") ]) d.Rte.major_max_s ])
          doms
      in
      [ {
          name = "zkqac_gc_pause_seconds_total";
          kind = Counter;
          help = "GC pause time observed via runtime events, by domain and collector.";
          samples = totals;
        };
        {
          name = "zkqac_gc_pause_seconds_max";
          kind = Gauge;
          help = "Longest single GC pause observed, by domain and collector.";
          samples = maxima;
        } ]);
  register (fun () ->
      let samples =
        List.concat_map
          (fun (stage, (c : Stage.cell)) ->
            let l = [ ("stage", stage) ] and sec ns = float_of_int ns /. 1e9 in
            (if c.gc_minor_ns = 0 then []
             else [ sample ~labels:(l @ [ ("gc", "minor") ]) (sec c.gc_minor_ns) ])
            @
            if c.gc_major_ns = 0 then []
            else [ sample ~labels:(l @ [ ("gc", "major") ]) (sec c.gc_major_ns) ])
          (Stage.snapshot ())
      in
      [ {
          name = "zkqac_stage_gc_pause_seconds_total";
          kind = Counter;
          help = "GC pause time absorbed by closed spans, by stage and collector.";
          samples;
        } ])

let reset () =
  Mutex.lock registry_lock;
  let fams = !families in
  Mutex.unlock registry_lock;
  List.iter
    (fun f ->
      Mutex.lock f.lock;
      Hashtbl.reset f.cells;
      Mutex.unlock f.lock)
    fams

let collect () =
  Mutex.lock registry_lock;
  let cs = !collectors in
  Mutex.unlock registry_lock;
  List.concat_map (fun c -> c ()) cs

(* --- Prometheus text exposition (version 0.0.4) --- *)

let escape_label v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun ch ->
      match ch with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let escape_help v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun ch ->
      match ch with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Summary -> "summary"

(* Metrics with nothing recorded are omitted entirely (no HELP/TYPE
   header): an exposition only shows families that have data. *)
let nonempty () = List.filter (fun m -> m.samples <> []) (collect ())

let to_prometheus () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun m ->
      Buffer.add_string buf
        (Printf.sprintf "# HELP %s %s\n" m.name (escape_help m.help));
      Buffer.add_string buf
        (Printf.sprintf "# TYPE %s %s\n" m.name (kind_name m.kind));
      List.iter
        (fun s ->
          let labels =
            if s.labels = [] then ""
            else
              "{"
              ^ String.concat ","
                  (List.map
                     (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v))
                     s.labels)
              ^ "}"
          in
          Buffer.add_string buf
            (Printf.sprintf "%s%s%s %s\n" m.name s.suffix labels
               (fmt_value s.value)))
        m.samples)
    (nonempty ());
  Buffer.contents buf

(* --- JSON export (the BENCH.json "metrics" section) --- *)

let to_json () =
  Json.Obj
    (List.map
       (fun m ->
         ( m.name,
           Json.Obj
             [ ("type", Json.Str (kind_name m.kind));
               ("help", Json.Str m.help);
               ( "samples",
                 Json.Arr
                   (List.map
                      (fun s ->
                        Json.Obj
                          ((if s.suffix = "" then []
                            else [ ("suffix", Json.Str s.suffix) ])
                          @ [ ( "labels",
                                Json.Obj
                                  (List.map
                                     (fun (k, v) -> (k, Json.Str v))
                                     s.labels) );
                              ("value", Json.Float s.value) ]))
                      m.samples) ) ] ))
       (nonempty ()))
