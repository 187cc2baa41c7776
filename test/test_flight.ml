(* Flight recorder: dump shape, multi-domain ring wraparound under a record
   storm, the dropped-events metric, trip/dump-file behaviour and the
   enable/disable switch. Every test starts and ends with [Flight.reset] so
   the global sequence/drop counters never leak across suites. *)

module Flight = Zkqac_telemetry.Flight
module Metrics = Zkqac_telemetry.Metrics
module Json = Zkqac_telemetry.Json

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let temp_dir () =
  let d = Filename.temp_file "zkqac-flight" "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

(* The JSON dump is the forensic artifact: its shape (top-level keys,
   event fields, ordering by sequence number) is part of the contract. *)
let test_dump_shape () =
  Flight.reset ();
  Flight.record ~cat:"verdict" ~detail:"ok" ~v:7 "system.open_and_verify";
  Flight.record ~cat:"wire" ~detail:"nesting depth" ~v:96 "wire.limit";
  let j = Flight.to_json ~reason:"unit-test" () in
  (match j with
   | Json.Obj fields ->
     let str k =
       match List.assoc_opt k fields with Some (Json.Str s) -> s | _ -> "?"
     in
     let int k =
       match List.assoc_opt k fields with Some (Json.Int n) -> n | _ -> -1
     in
     Alcotest.(check int) "format tag" 1 (int "flight");
     Alcotest.(check string) "reason" "unit-test" (str "reason");
     Alcotest.(check int) "recorded" 2 (int "recorded");
     Alcotest.(check int) "dropped" 0 (int "dropped");
     Alcotest.(check int) "trips" 0 (int "trips");
     (match List.assoc_opt "events" fields with
      | Some (Json.Arr [ Json.Obj e1; Json.Obj e2 ]) ->
        let get e k = List.assoc_opt k e in
        Alcotest.(check bool) "seq order" true
          (get e1 "seq" = Some (Json.Int 1) && get e2 "seq" = Some (Json.Int 2));
        Alcotest.(check bool) "first event fields" true
          (get e1 "cat" = Some (Json.Str "verdict")
           && get e1 "name" = Some (Json.Str "system.open_and_verify")
           && get e1 "detail" = Some (Json.Str "ok")
           && get e1 "v" = Some (Json.Int 7));
        Alcotest.(check bool) "second event fields" true
          (get e2 "cat" = Some (Json.Str "wire")
           && get e2 "v" = Some (Json.Int 96))
      | _ -> Alcotest.fail "events: expected a 2-element array of objects")
   | _ -> Alcotest.fail "dump is not a JSON object");
  (* The dump also serializes: round-trip through the printer. *)
  (match Json.of_string (Json.to_string j) with
   | Ok _ -> ()
   | Error e -> Alcotest.fail ("dump does not re-parse: " ^ e));
  Flight.reset ()

(* Four domains each overflow their ring by 500 events. Retention is
   per-domain (newest [capacity] events each), the drop counter accounts for
   every overwritten slot, and the merged view stays sequence-sorted. *)
let test_multi_domain_wraparound () =
  Flight.reset ();
  let cap = Flight.capacity () in
  let domains = 4 and extra = 500 in
  let storm () =
    for i = 1 to cap + extra do
      Flight.record ~cat:"storm" ~v:i "storm.event"
    done
  in
  let ds = List.init domains (fun _ -> Domain.spawn storm) in
  List.iter Domain.join ds;
  let evs = Flight.events () in
  Alcotest.(check int) "retained = domains * capacity" (domains * cap)
    (List.length evs);
  Alcotest.(check int) "recorded" (domains * (cap + extra)) (Flight.recorded ());
  Alcotest.(check int) "dropped" (domains * extra) (Flight.dropped ());
  let seqs = List.map (fun e -> e.Flight.seq) evs in
  Alcotest.(check bool) "sequence-sorted" true
    (List.for_all2 ( <= ) seqs (List.tl seqs @ [ max_int ]));
  Alcotest.(check bool) "newest event retained" true
    (List.exists (fun s -> s = Flight.recorded ()) seqs);
  (* All four domains contributed to the merged view. *)
  let doms = List.sort_uniq compare (List.map (fun e -> e.Flight.domain) evs) in
  Alcotest.(check int) "distinct domains" domains (List.length doms);
  (* The wraparound shows up on the metrics endpoint. *)
  let text = Metrics.to_prometheus () in
  Alcotest.(check bool) "dropped metric exported" true
    (contains text
       (Printf.sprintf "zkqac_flight_dropped_events_total %d" (domains * extra)));
  Alcotest.(check bool) "events metric exported" true
    (contains text
       (Printf.sprintf "zkqac_flight_events_total %d" (domains * (cap + extra))));
  Flight.reset ()

(* Trips write at most four dump pairs, each a parseable
   JSON file plus a text rendering that names the trip reason. *)
let test_trip_dumps () =
  Flight.reset ();
  let dir = temp_dir () in
  let saved = Flight.dump_dir () in
  Flight.set_dir (Some dir);
  Fun.protect ~finally:(fun () -> Flight.set_dir saved)
  @@ fun () ->
  Flight.record ~cat:"verdict" ~detail:"bad-abs-signature" "vo.verify";
  for i = 1 to 6 do
    Flight.trip ~reason:(Printf.sprintf "test-trip-%d" i)
  done;
  Alcotest.(check int) "trips counted" 6 (Flight.trips ());
  let files = Array.to_list (Sys.readdir dir) in
  let json_files = List.filter (fun f -> Filename.check_suffix f ".json") files in
  let text_files = List.filter (fun f -> Filename.check_suffix f ".txt") files in
  Alcotest.(check bool) "dump files capped" true (List.length json_files <= 4);
  Alcotest.(check bool) "at least one dump" true (json_files <> []);
  Alcotest.(check int) "one text file per json dump" (List.length json_files)
    (List.length text_files);
  List.iter
    (fun f ->
      let ic = open_in (Filename.concat dir f) in
      let n = in_channel_length ic in
      let body = really_input_string ic n in
      close_in ic;
      match Json.of_string body with
      | Ok (Json.Obj fields) ->
        Alcotest.(check bool)
          (f ^ " carries a reason") true
          (match List.assoc_opt "reason" fields with
           | Some (Json.Str r) -> contains r "test-trip-"
           | _ -> false)
      | Ok _ -> Alcotest.fail (f ^ ": expected a JSON object")
      | Error e -> Alcotest.fail (f ^ ": " ^ e))
    json_files;
  Flight.reset ()

(* Request-scoped events carry the correlation id into both dump formats;
   events without one stay exactly as before (no "req_id" key at all). *)
let test_req_id_field () =
  Flight.reset ();
  Flight.record ~cat:"serve" ~req_id:0x00c0ffee00c0ffeeL ~detail:"ok"
    "server.request";
  Flight.record ~cat:"serve" ~detail:"ok" "server.request";
  (match Flight.to_json ~reason:"unit-test" () with
   | Json.Obj fields ->
     (match List.assoc_opt "events" fields with
      | Some (Json.Arr [ Json.Obj e1; Json.Obj e2 ]) ->
        Alcotest.(check bool) "req_id emitted as 16-hex-digit string" true
          (List.assoc_opt "req_id" e1 = Some (Json.Str "00c0ffee00c0ffee"));
        Alcotest.(check bool) "id-less event has no req_id key" true
          (List.assoc_opt "req_id" e2 = None)
      | _ -> Alcotest.fail "events: expected a 2-element array of objects")
   | _ -> Alcotest.fail "dump is not a JSON object");
  (* The text rendering greps the same way: req=<hex> on tagged lines. *)
  let path = Filename.temp_file "zkqac-flight" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path)
  @@ fun () ->
  let oc = open_out path in
  Flight.print oc;
  close_out oc;
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  Alcotest.(check bool) "text dump carries req=<hex>" true
    (contains text "req=00c0ffee00c0ffee");
  Flight.reset ()

let test_disable () =
  Flight.reset ();
  Flight.disable ();
  Flight.record ~cat:"test" "should.not.appear";
  Alcotest.(check int) "disabled record is a no-op" 0 (Flight.recorded ());
  Alcotest.(check int) "no events retained" 0 (List.length (Flight.events ()));
  Flight.enable ();
  Flight.record ~cat:"test" "appears";
  Alcotest.(check int) "re-enabled record lands" 1 (Flight.recorded ());
  Flight.reset ()

let suite =
  [ ( "flight",
      [ Alcotest.test_case "dump shape" `Quick test_dump_shape;
        Alcotest.test_case "multi-domain wraparound storm" `Quick
          test_multi_domain_wraparound;
        Alcotest.test_case "trip dump files" `Quick test_trip_dumps;
        Alcotest.test_case "req_id in dumps" `Quick test_req_id_field;
        Alcotest.test_case "enable/disable" `Quick test_disable ] ) ]
