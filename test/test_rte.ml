(* Runtime-events bridge: with the monitor running, a >= 2-domain allocation
   storm must surface minor-GC pauses in all three views — per-domain
   totals (and their Metrics gauges), per-stage attribution, and raw slices
   that the Perfetto export renders as extra "gc" tracks. A stop and
   restart of the monitor counts no pause twice.

   Attribution is asynchronous (the monitor polls the runtime-events ring),
   so the workload repeats until pauses show up or a generous deadline
   passes; the assertions themselves are deterministic once data exists. *)

module Rte = Zkqac_telemetry.Rte
module Trace = Zkqac_telemetry.Trace
module Stage = Zkqac_telemetry.Stage
module Telemetry = Zkqac_telemetry.Telemetry
module Metrics = Zkqac_telemetry.Metrics
module Json = Zkqac_telemetry.Json
module Pool = Zkqac_parallel.Pool

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Enough short-lived allocation to force several minor collections. *)
let churn () =
  for _ = 1 to 50 do
    let acc = ref [] in
    for i = 1 to 20_000 do
      acc := (i, string_of_int i) :: !acc
    done;
    ignore (Sys.opaque_identity !acc);
    Gc.minor ()
  done

let job () =
  Rte.announce ();
  Trace.with_span "rte.job" ~parent:Trace.none @@ fun _ -> churn ()

let minor_domains () =
  List.length
    (List.filter (fun d -> d.Rte.minor_n > 0) (Rte.domain_snapshot ()))

(* The stage table's GC-pause rows, in the shape the runtime-events bridge
   used to report them: (stage, (spans, minor s, major s)) for every stage
   that absorbed pause time. *)
let stage_pause_rows () =
  List.filter_map
    (fun (name, (c : Stage.cell)) ->
      if c.Stage.gc_minor_ns = 0 && c.Stage.gc_major_ns = 0 then None
      else
        Some
          ( name,
            ( Stage.count c,
              float_of_int c.Stage.gc_minor_ns /. 1e9,
              float_of_int c.Stage.gc_major_ns /. 1e9 ) ))
    (Stage.snapshot ())

let test_gc_attribution () =
  Rte.reset ();
  Telemetry.reset ();
  Rte.start ();
  Alcotest.(check bool) "started" true (Rte.started ());
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ();
      Rte.stop ();
      Rte.reset ())
  @@ fun () ->
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec drive () =
    ignore (Pool.map ~threads:2 (List.init 2 (fun _ -> job)));
    (* Let the monitor's poll loop catch up with the ring. *)
    Unix.sleepf 0.05;
    if
      (minor_domains () < 2 || stage_pause_rows () = [])
      && Unix.gettimeofday () < deadline
    then drive ()
  in
  drive ();
  (* Per-domain view: both workers took minor pauses. *)
  let doms = Rte.domain_snapshot () in
  Alcotest.(check bool)
    (Printf.sprintf "saw %d domain(s) with minor pauses, want >= 2"
       (minor_domains ()))
    true
    (minor_domains () >= 2);
  List.iter
    (fun (d : Rte.dom_stats) ->
      if d.Rte.minor_n > 0 then begin
        Alcotest.(check bool) "pause total positive" true (d.Rte.minor_s > 0.0);
        Alcotest.(check bool) "max <= total" true
          (d.Rte.minor_max_s <= d.Rte.minor_s +. 1e-12)
      end)
    doms;
  (* Per-stage view: the span around the churn absorbed pause time. *)
  (match List.assoc_opt "rte.job" (stage_pause_rows ()) with
   | None -> Alcotest.fail "rte.job missing from stage snapshot"
   | Some (n, minor_s, _major_s) ->
     Alcotest.(check bool) "stage saw pauses" true (n > 0 && minor_s > 0.0));
  (* Raw slices: bounded, typed, and time-ordered per ring. *)
  let slices = Rte.slices () in
  Alcotest.(check bool) "slices observed" true (slices <> []);
  List.iter
    (fun (s : Rte.slice) ->
      Alcotest.(check bool) "slice kind" true
        (s.Rte.sl_gc = "minor" || s.Rte.sl_gc = "major");
      Alcotest.(check bool) "slice extent" true (s.Rte.sl_t1 >= s.Rte.sl_t0))
    slices;
  (* Perfetto export: GC slices become their own tracks. *)
  let chrome = Json.to_string (Trace.chrome_json ()) in
  Alcotest.(check bool) "gc.minor track event" true
    (contains chrome "gc.minor");
  Alcotest.(check bool) "gc thread metadata" true (contains chrome "\"gc (tid");
  (* Metrics: domain gauges and stage counters both sample. *)
  let text = Metrics.to_prometheus () in
  Alcotest.(check bool) "domain pause metric" true
    (contains text "zkqac_gc_pause_seconds_total{domain=");
  Alcotest.(check bool) "domain pause max metric" true
    (contains text "zkqac_gc_pause_seconds_max{domain=");
  Alcotest.(check bool) "stage pause metric" true
    (contains text "zkqac_stage_gc_pause_seconds_total{stage=\"rte.job\",gc=\"minor\"}");
  (* A restart reads on from where [stop] left off: the pauses already
     counted are not counted again (a fresh cursor would re-read them). *)
  let minor_total () =
    List.fold_left (fun acc (d : Rte.dom_stats) -> acc + d.Rte.minor_n) 0
      (Rte.domain_snapshot ())
  in
  Rte.stop ();
  let before = minor_total () in
  Rte.start ();
  Rte.stop ();
  let recounted = minor_total () - before in
  Alcotest.(check bool)
    (Printf.sprintf "restart recounted %d of %d minor pauses" recounted before)
    true
    (recounted < before / 2)

let test_stopped_is_inert () =
  Rte.reset ();
  Telemetry.reset ();
  Alcotest.(check bool) "not started" false (Rte.started ());
  (* All of these must be safe no-ops without a monitor. *)
  Rte.announce ();
  let mark = Rte.pause_mark () in
  Alcotest.(check bool) "zero mark" true (mark = (0L, 0L));
  (* What a span close does with two marks taken while stopped. *)
  let mark' = Rte.pause_mark () in
  Stage.note "inert.stage" ~ns:0 ~minor:0.0 ~promoted:0.0 ~major:0.0
    ~gc_minor_ns:(Int64.to_int (Int64.sub (fst mark') (fst mark)))
    ~gc_major_ns:(Int64.to_int (Int64.sub (snd mark') (snd mark)));
  Alcotest.(check (list (pair string (triple int (float 0.0) (float 0.0)))))
    "no stage rows" []
    (stage_pause_rows ());
  Telemetry.reset ();
  Alcotest.(check int) "no dropped slices" 0 (Rte.slices_dropped ())

let suite =
  [ ( "rte",
      [ Alcotest.test_case "gc pause attribution across domains" `Quick
          test_gc_attribution;
        Alcotest.test_case "inert when stopped" `Quick test_stopped_is_inert ] ) ]
