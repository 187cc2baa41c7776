(* Metrics registry: counter families, the golden Prometheus exposition
   (byte-stable given fixed inputs), histogram min/max accessors, and
   GC/allocation attribution across worker domains. *)

module T = Zkqac_telemetry.Telemetry
module Metrics = Zkqac_telemetry.Metrics
module Histogram = Zkqac_telemetry.Histogram
module Stage = Zkqac_telemetry.Stage
module Rte = Zkqac_telemetry.Rte
module Trace = Zkqac_telemetry.Trace
module Pool = Zkqac_parallel.Pool

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_counter_family () =
  let f = Metrics.counter ~name:"test_family_total" ~help:"test" in
  Alcotest.(check int) "fresh cell" 0 (Metrics.get f [ ("k", "a") ]);
  Metrics.inc f [ ("k", "a") ];
  Metrics.inc f ~by:4 [ ("k", "a") ];
  Metrics.inc f [ ("k", "b") ];
  Alcotest.(check int) "a" 5 (Metrics.get f [ ("k", "a") ]);
  Alcotest.(check int) "b" 1 (Metrics.get f [ ("k", "b") ]);
  (* Label order must not matter: the cell key is sorted. *)
  let g = Metrics.counter ~name:"test_family2_total" ~help:"test" in
  Metrics.inc g [ ("x", "1"); ("y", "2") ];
  Metrics.inc g [ ("y", "2"); ("x", "1") ];
  Alcotest.(check int) "sorted key" 2 (Metrics.get g [ ("x", "1"); ("y", "2") ])

(* Fractional increments on the same family type (fsync seconds and friends)
   accumulate, and the family is exported — but only once it has cells, so
   registering one never perturbs the golden exposition. *)
let test_float_counter_family () =
  let before = Metrics.to_prometheus () in
  let h = Metrics.counter ~name:"test_fseconds_total" ~help:"test" in
  Alcotest.(check bool) "empty family invisible" false
    (contains (Metrics.to_prometheus ()) "test_fseconds_total");
  Alcotest.(check string) "registration alone changes nothing" before
    (Metrics.to_prometheus ());
  Metrics.finc h ~by:0.25 [ ("k", "a") ];
  Metrics.finc h ~by:0.5 [ ("k", "a") ];
  Alcotest.(check bool) "exported once non-empty" true
    (contains (Metrics.to_prometheus ()) "test_fseconds_total{k=\"a\"} 0.75");
  Metrics.reset ();
  Alcotest.(check bool) "reset clears cells" false
    (contains (Metrics.to_prometheus ()) "test_fseconds_total")

(* The recovery-outcome counter exported by the crash-recovery paths. *)
let test_recovery_counter () =
  Metrics.reset ();
  Metrics.recovery "checkpoint-ok";
  Metrics.recovery "checkpoint-ok";
  Metrics.recovery "audit-truncated";
  let text = Metrics.to_prometheus () in
  Alcotest.(check bool) "checkpoint-ok cell" true
    (contains text "zkqac_recoveries_total{outcome=\"checkpoint-ok\"} 2");
  Alcotest.(check bool) "audit-truncated cell" true
    (contains text "zkqac_recoveries_total{outcome=\"audit-truncated\"} 1");
  Metrics.reset ()

let golden =
  "# HELP zkqac_verify_rejections_total Client-side verification rejections \
   by typed Verify_error code.\n\
   # TYPE zkqac_verify_rejections_total counter\n\
   zkqac_verify_rejections_total{code=\"bad-abs-signature\"} 2\n\
   zkqac_verify_rejections_total{code=\"malformed\"} 1\n\
   # HELP zkqac_ops_total Cryptographic operation counts at the PAIRING \
   boundary.\n\
   # TYPE zkqac_ops_total counter\n\
   zkqac_ops_total{op=\"pairing\"} 3\n\
   zkqac_ops_total{op=\"g_exp\"} 2\n\
   zkqac_ops_total{op=\"g_mul\"} 0\n\
   zkqac_ops_total{op=\"gt_exp\"} 0\n\
   zkqac_ops_total{op=\"gt_mul\"} 0\n\
   zkqac_ops_total{op=\"sha256_compress\"} 0\n\
   zkqac_ops_total{op=\"abs_sign\"} 0\n\
   zkqac_ops_total{op=\"abs_verify\"} 0\n\
   zkqac_ops_total{op=\"abs_relax\"} 0\n\
   zkqac_ops_total{op=\"cpabe_encrypt\"} 0\n\
   zkqac_ops_total{op=\"cpabe_decrypt\"} 0\n\
   zkqac_ops_total{op=\"multi_pairings\"} 0\n\
   zkqac_ops_total{op=\"multi_pairing_terms\"} 0\n\
   # HELP zkqac_stage_latency_seconds Latency of every closed span, by stage \
   name.\n\
   # TYPE zkqac_stage_latency_seconds summary\n\
   zkqac_stage_latency_seconds{stage=\"golden.stage\",quantile=\"0.5\"} \
   2.048e-06\n\
   zkqac_stage_latency_seconds{stage=\"golden.stage\",quantile=\"0.95\"} \
   4.096e-06\n\
   zkqac_stage_latency_seconds{stage=\"golden.stage\",quantile=\"0.99\"} \
   4.096e-06\n\
   zkqac_stage_latency_seconds_count{stage=\"golden.stage\"} 4\n\
   zkqac_stage_latency_seconds_sum{stage=\"golden.stage\"} 1.5e-05\n\
   # HELP zkqac_stage_alloc_words_total GC words attributed to closed spans, \
   by stage and heap.\n\
   # TYPE zkqac_stage_alloc_words_total counter\n\
   zkqac_stage_alloc_words_total{stage=\"golden.stage\",heap=\"minor\"} 1024\n\
   zkqac_stage_alloc_words_total{stage=\"golden.stage\",heap=\"promoted\"} 64\n\
   zkqac_stage_alloc_words_total{stage=\"golden.stage\",heap=\"major\"} 32\n\
   # HELP zkqac_domain_alloc_words_total GC words attributed to spans, by \
   recording domain and heap.\n\
   # TYPE zkqac_domain_alloc_words_total counter\n\
   zkqac_domain_alloc_words_total{domain=\"0\",heap=\"minor\"} 1024\n\
   zkqac_domain_alloc_words_total{domain=\"0\",heap=\"major\"} 32\n\
   # HELP zkqac_trace_dropped_spans Spans discarded because the trace \
   capacity bound was hit.\n\
   # TYPE zkqac_trace_dropped_spans gauge\n\
   zkqac_trace_dropped_spans 0\n\
   # HELP zkqac_flight_events_total Structured events recorded by the \
   always-on flight recorder.\n\
   # TYPE zkqac_flight_events_total counter\n\
   zkqac_flight_events_total 0\n\
   # HELP zkqac_flight_dropped_events_total Flight-recorder events \
   overwritten by ring-buffer wraparound.\n\
   # TYPE zkqac_flight_dropped_events_total counter\n\
   zkqac_flight_dropped_events_total 0\n\
   # HELP zkqac_flight_trips_total Flight-recorder dump triggers (verify \
   errors, pool failures, signals).\n\
   # TYPE zkqac_flight_trips_total counter\n\
   zkqac_flight_trips_total 0\n\
   # HELP zkqac_worker_domains Worker domains a parallel fan-out would use \
   (ZKQAC_DOMAINS or the scheduler's recommendation).\n\
   # TYPE zkqac_worker_domains gauge\n\
   zkqac_worker_domains 3\n"

let test_prometheus_golden () =
  Unix.putenv "ZKQAC_DOMAINS" "3";
  T.reset ();
  Metrics.reset ();
  Trace.reset ();
  (* Earlier suites leave flight events, possibly GC-pause totals, and a
     checkpoint-epoch gauge behind; the golden exposition expects all of
     them at their pristine state. *)
  Zkqac_telemetry.Flight.reset ();
  Zkqac_telemetry.Rte.reset ();
  Zkqac_core.Ads_io.reset_epoch_gauge ();
  T.bump_n T.Pairing 3;
  T.bump_n T.G_exp 2;
  List.iteri
    (fun i ns ->
      (* One cell takes both views: four latencies, and the words of the
         first span. *)
      let words w = if i = 0 then w else 0.0 in
      Stage.note "golden.stage" ~ns ~minor:(words 1024.0)
        ~promoted:(words 64.0) ~major:(words 32.0) ~gc_minor_ns:0
        ~gc_major_ns:0)
    [ 1000; 2000; 4000; 8000 ];
  Metrics.rejection "bad-abs-signature";
  Metrics.rejection "bad-abs-signature";
  Metrics.rejection "malformed";
  Alcotest.(check string) "exposition" golden (Metrics.to_prometheus ());
  (* Collecting is read-only: a second scrape is identical. *)
  Alcotest.(check string) "stable" golden (Metrics.to_prometheus ());
  Unix.putenv "ZKQAC_DOMAINS" "";
  T.reset ();
  Metrics.reset ()

let test_label_escaping () =
  let f = Metrics.counter ~name:"test_escape_total" ~help:"test" in
  Metrics.inc f [ ("k", "a\"b\\c\nd") ];
  let text = Metrics.to_prometheus () in
  let line = {|test_escape_total{k="a\"b\\c\nd"} 1|} in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "escaped line present" true (contains text line);
  Metrics.reset ()

let test_histogram_min_max () =
  let h = Histogram.create () in
  (* The minimum is exported only through [to_json], in milliseconds. *)
  let min_ns h =
    match Histogram.to_json h with
    | Zkqac_telemetry.Json.Obj f -> (
      match List.assoc_opt "min_ms" f with
      | Some (Zkqac_telemetry.Json.Float ms) -> ms *. 1e6
      | _ -> Alcotest.fail "min_ms missing")
    | _ -> Alcotest.fail "histogram json is not an object"
  in
  Alcotest.(check (float 0.0)) "empty min" 0.0 (min_ns h);
  Alcotest.(check (float 0.0)) "empty max" 0.0 (Histogram.max_ns h);
  List.iter (Histogram.record h) [ 100; 5_000; 1_000_000 ];
  let within v target = Float.abs (v -. target) /. target < 0.08 in
  Alcotest.(check bool) "min ~100" true (within (min_ns h) 100.0);
  Alcotest.(check bool) "max ~1ms" true (within (Histogram.max_ns h) 1e6);
  Alcotest.(check int) "count" 3 (Histogram.count h)

(* Allocation attribution across >= 2 worker domains: every job's words
   land in some domain's table, and the per-domain breakdown sees at least
   the two workers. *)
let test_alloc_multi_domain () =
  T.reset ();
  let allocate () =
    Trace.with_span "alloc.job" @@ fun _ ->
    let acc = ref [] in
    for i = 1 to 1000 do
      acc := (i, string_of_int i) :: !acc
    done;
    ignore (Sys.opaque_identity !acc)
  in
  ignore (Pool.map ~threads:2 (List.init 4 (fun _ -> allocate)));
  let snap = Stage.snapshot () in
  (match List.assoc_opt "alloc.job" snap with
   | None -> Alcotest.fail "alloc.job not attributed"
   | Some c ->
     Alcotest.(check int) "4 spans" 4 (Stage.count c);
     Alcotest.(check bool) "allocated minor words" true (c.Stage.minor > 0.0));
  let doms = Stage.by_domain () in
  Alcotest.(check bool)
    (Printf.sprintf "saw %d domain(s), want >= 2" (List.length doms))
    true
    (List.length doms >= 2);
  List.iter
    (fun (_, (c : Stage.cell)) ->
      Alcotest.(check bool) "domain allocated" true (c.Stage.minor > 0.0))
    doms;
  T.reset ()

let test_alloc_diff () =
  T.reset ();
  let note ~minor ~promoted ~major =
    Stage.note "diff.stage" ~ns:1000 ~minor ~promoted ~major ~gc_minor_ns:0
      ~gc_major_ns:0
  in
  note ~minor:100.0 ~promoted:10.0 ~major:1.0;
  let earlier = Stage.snapshot () in
  note ~minor:50.0 ~promoted:5.0 ~major:2.0;
  let d = Stage.diff ~earlier ~later:(Stage.snapshot ()) in
  (match List.assoc_opt "diff.stage" d with
   | None -> Alcotest.fail "stage missing from diff"
   | Some c ->
     Alcotest.(check int) "count delta" 1 (Stage.count c);
     Alcotest.(check (float 1e-9)) "minor delta" 50.0 c.Stage.minor;
     Alcotest.(check (float 1e-9)) "major delta" 2.0 c.Stage.major);
  T.reset ()

(* One span close feeds one cell: with tracing on, the runtime-events
   bridge running and the spans spread over two worker domains, N spans of
   one stage read back as N calls, N histogram observations and N
   allocation samples. [Telemetry.reset] clears the stage's GC-pause row
   along with everything else. *)
let test_one_stage_table () =
  T.reset ();
  Rte.reset ();
  Rte.start ();
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ();
      Rte.stop ();
      Rte.reset ();
      T.reset ())
  @@ fun () ->
  let n = 8 in
  let job () =
    Rte.announce ();
    Trace.with_span "one.table" ~parent:Trace.none @@ fun _ ->
    for _ = 1 to 20 do
      let acc = ref [] in
      for i = 1 to 20_000 do
        acc := (i, string_of_int i) :: !acc
      done;
      ignore (Sys.opaque_identity !acc);
      Gc.minor ()
    done
  in
  let gc_ns () =
    match List.assoc_opt "one.table" (Stage.snapshot ()) with
    | Some c -> c.Stage.gc_minor_ns + c.Stage.gc_major_ns
    | None -> 0
  in
  (* Repeat rounds of N spans until the stage has absorbed some pause
     time. *)
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rounds = ref 0 in
  let rec drive () =
    ignore (Pool.map ~threads:2 (List.init n (fun _ -> job)));
    incr rounds;
    if gc_ns () = 0 && Unix.gettimeofday () < deadline then drive ()
  in
  drive ();
  let spans = n * !rounds in
  let calls =
    match List.assoc_opt "one.table" (T.spans (T.snapshot ())) with
    | Some s -> s.T.calls
    | None -> 0
  in
  Alcotest.(check int) "telemetry calls" spans calls;
  (match List.assoc_opt "one.table" (Stage.snapshot ()) with
   | None -> Alcotest.fail "one.table missing from the stage table"
   | Some c ->
     Alcotest.(check int) "histogram count" spans (Histogram.count c.Stage.hist);
     Alcotest.(check int) "alloc count" spans (Stage.count c);
     Alcotest.(check bool) "allocated minor words" true (c.Stage.minor > 0.0));
  let text = Metrics.to_prometheus () in
  Alcotest.(check bool) "stage pause row" true
    (contains text "zkqac_stage_gc_pause_seconds_total{stage=\"one.table\"");
  T.reset ();
  Alcotest.(check bool) "pause row gone after reset" false
    (contains (Metrics.to_prometheus ())
       "zkqac_stage_gc_pause_seconds_total{stage=\"one.table\"");
  Alcotest.(check bool) "stage gone after reset" true
    (List.assoc_opt "one.table" (Stage.snapshot ()) = None)

let suite =
  [ ( "metrics",
      [ Alcotest.test_case "counter family" `Quick test_counter_family;
        Alcotest.test_case "float counter family" `Quick test_float_counter_family;
        Alcotest.test_case "recovery outcome counter" `Quick test_recovery_counter;
        Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden;
        Alcotest.test_case "label escaping" `Quick test_label_escaping;
        Alcotest.test_case "histogram min/max" `Quick test_histogram_min_max;
        Alcotest.test_case "alloc attribution across domains" `Quick
          test_alloc_multi_domain;
        Alcotest.test_case "alloc snapshot diff" `Quick test_alloc_diff;
        Alcotest.test_case "one stage table per span close" `Quick
          test_one_stage_table ] ) ]
