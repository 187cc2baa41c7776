(* Runtime-events bridge: with [Rte] started, a >= 2-domain allocation
   storm must surface minor-GC pauses in all three views — per-domain
   totals (and their Metrics gauges), per-stage attribution, and raw slices
   that the Perfetto export renders as extra "gc" tracks. A stop and
   restart counts no pause twice.

   Every reader drains the runtime-events ring first, so attribution is
   exact: a span that collects books its own pause, only the program's own
   domains show up, and what the ring overwrote unread is counted. *)

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
  let chrome = Json.to_string (Test_trace.chrome_json ()) in
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
  (* All of these must be safe no-ops while stopped. *)
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

(* The slice buffer keeps the newest pauses, so a trace taken late in a
   long run still has GC tracks. *)
let test_gc_slices_keep_newest () =
  Rte.reset ();
  Rte.start ();
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ();
      Rte.stop ();
      Rte.reset ())
  @@ fun () ->
  let minors () =
    List.fold_left (fun acc (d : Rte.dom_stats) -> acc + d.Rte.minor_n) 0
      (Rte.domain_snapshot ())
  in
  (* [n] more minor collections, read back every 100 so the runtime-events
     ring never overwrites one. *)
  let collect n =
    let target = minors () + n and deadline = Unix.gettimeofday () +. 30.0 in
    while minors () < target && Unix.gettimeofday () < deadline do
      for _ = 1 to 100 do
        Gc.minor ()
      done
    done
  in
  collect 16_500;
  Trace.reset ();
  collect 50;
  let gc_events =
    match Test_trace.chrome_json () with
    | Json.Obj fields -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (Json.Arr evs) ->
        List.filter
          (function
            | Json.Obj e -> List.assoc_opt "cat" e = Some (Json.Str "gc")
            | _ -> false)
          evs
      | _ -> [])
    | _ -> []
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d gc events after the reset, want >= 50" (List.length gc_events))
    true
    (List.length gc_events >= 50)

(* Run [f] from cleared [Rte], [Trace] and [Telemetry] state, with [Rte]
   and tracing off, and put back whichever of them the caller had on. *)
let isolated f =
  let rte = Rte.started () and tr = Trace.enabled () in
  let clear () =
    Rte.stop ();
    Rte.reset ();
    Trace.disable ();
    Trace.reset ();
    Telemetry.reset ()
  in
  clear ();
  Fun.protect f ~finally:(fun () ->
      clear ();
      if rte then Rte.start ();
      if tr then Trace.enable ())

(* Each span's closing mark drains the ring, so the minor collection a span
   forces is booked to that span's own stage, every time. *)
let test_exact_attribution () =
  isolated @@ fun () ->
  Rte.start ();
  let names = List.init 200 (Printf.sprintf "rte.exact.%03d") in
  List.iter
    (fun name -> Trace.with_span name ~parent:Trace.none (fun _ -> Gc.minor ()))
    names;
  let cells = Stage.snapshot () in
  let missed =
    List.filter
      (fun name ->
        match List.assoc_opt name cells with
        | Some c -> c.Stage.gc_minor_ns <= 0
        | None -> true)
      names
  in
  Alcotest.(check (list string)) "spans without their own pause" [] missed

(* Only domains the program runs take pauses: with no pool, the totals and
   the slices name the calling domain and nothing else. *)
let test_no_phantom_domain () =
  isolated @@ fun () ->
  Rte.start ();
  Trace.with_span "rte.solo" ~parent:Trace.none (fun _ -> churn ());
  let self = (Domain.self () :> int) in
  Alcotest.(check (list string))
    "domains with pauses" [ string_of_int self ]
    (List.map (fun (d : Rte.dom_stats) -> d.Rte.label) (Rte.domain_snapshot ()));
  Alcotest.(check (list int))
    "slice domains" [ self ]
    (List.sort_uniq compare
       (List.map (fun (s : Rte.slice) -> s.Rte.sl_domain) (Rte.slices ())))

(* More minor collections than the ring holds, with no reader in between:
   the overwritten events are counted and the trace export reports them.
   The storm runs on a fresh domain, so it also overwrites that domain's
   announcement; its first span announces again, and its second span
   books its own pause. *)
let test_lost_events_counted () =
  isolated @@ fun () ->
  Rte.start ();
  let storm () =
    Rte.announce ();
    for _ = 1 to 3_000 do
      Gc.minor ()
    done;
    let lost = Rte.lost_events () in
    List.iter
      (fun name -> Trace.with_span name ~parent:Trace.none (fun _ -> Gc.minor ()))
      [ "rte.after_loss.1"; "rte.after_loss.2" ];
    ((Domain.self () :> int), lost)
  in
  let dom, lost = Domain.join (Domain.spawn storm) in
  Alcotest.(check bool) (Printf.sprintf "lost %d events, want > 0" lost) true (lost > 0);
  (match List.assoc_opt "rte.after_loss.2" (Stage.snapshot ()) with
   | Some c -> Alcotest.(check bool) "pause booked after the loss" true (c.Stage.gc_minor_ns > 0)
   | None -> Alcotest.fail "rte.after_loss.2 missing from the stage table");
  Alcotest.(check bool) "storm domain mapped again" true
    (List.exists
       (fun (d : Rte.dom_stats) -> d.Rte.label = string_of_int dom)
       (Rte.domain_snapshot ()));
  let other =
    match Test_trace.chrome_json () with
    | Json.Obj fields -> List.assoc_opt "otherData" fields
    | _ -> None
  in
  match other with
  | Some (Json.Obj o) -> (
    match List.assoc_opt "lost_runtime_events" o with
    | Some (Json.Int n) ->
      Alcotest.(check bool) "trace reports the loss" true (n >= lost)
    | _ -> Alcotest.fail "otherData lacks lost_runtime_events")
  | _ -> Alcotest.fail "trace lacks otherData"

let suite =
  [ ( "rte",
      [ Alcotest.test_case "gc pause attribution across domains" `Quick
          test_gc_attribution;
        Alcotest.test_case "gc slices keep the newest" `Quick
          test_gc_slices_keep_newest;
        Alcotest.test_case "inert when stopped" `Quick test_stopped_is_inert;
        Alcotest.test_case "each span books its own pause" `Quick
          test_exact_attribution;
        Alcotest.test_case "no phantom domain" `Quick test_no_phantom_domain;
        Alcotest.test_case "lost events counted" `Quick test_lost_events_counted
      ] ) ]
