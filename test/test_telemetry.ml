(* Telemetry subsystem: counters count, snapshot/diff isolates a region,
   spans accumulate, and the instrumented backend wrapper attributes group
   ops correctly. *)

module T = Zkqac_telemetry.Telemetry
module Trace = Zkqac_telemetry.Trace
module Json = Zkqac_telemetry.Json
module Drbg = Zkqac_hashing.Drbg

let test_enabled_counts () =
  let before = T.snapshot () in
  T.bump T.G_exp;
  T.bump T.G_exp;
  T.bump_n T.Pairing 3;
  let cost = T.diff ~earlier:before ~later:(T.snapshot ()) in
  let count c = List.assoc c (T.ops cost) in
  Alcotest.(check int) "g_exp" 2 (count T.G_exp);
  Alcotest.(check int) "pairing" 3 (count T.Pairing);
  Alcotest.(check int) "untouched" 0 (count T.Cpabe_decrypt)

let test_span_accumulates () =
  let before = T.snapshot () in
  for _ = 1 to 4 do
    Trace.with_span "test.stage" (fun _ -> ignore (Sys.opaque_identity 42))
  done;
  let cost = T.diff ~earlier:before ~later:(T.snapshot ()) in
  match List.assoc_opt "test.stage" (T.spans cost) with
  | None -> Alcotest.fail "span not recorded"
  | Some st ->
    Alcotest.(check int) "calls" 4 st.T.calls;
    Alcotest.(check bool) "time >= 0" true (st.T.seconds >= 0.)

let test_span_on_exception () =
  let before = T.snapshot () in
  (try Trace.with_span "test.raise" (fun _ -> failwith "x") with Failure _ -> ());
  let cost = T.diff ~earlier:before ~later:(T.snapshot ()) in
  match List.assoc_opt "test.raise" (T.spans cost) with
  | None -> Alcotest.fail "span lost on exception"
  | Some st -> Alcotest.(check int) "calls" 1 st.T.calls

let test_instrumented_backend () =
  let module P =
    (val Zkqac_group.Backend.instantiate Zkqac_group.Backend.Mock)
  in
  let drbg = Drbg.create ~seed:"telemetry-test" in
  let a = P.rand_g drbg and b = P.rand_g drbg in
  let k = P.rand_scalar drbg in
  let before = T.snapshot () in
  ignore (P.e a b);
  ignore (P.G.pow a k);
  ignore (P.G.mul a b);
  let cost = T.diff ~earlier:before ~later:(T.snapshot ()) in
  let count c = List.assoc c (T.ops cost) in
  Alcotest.(check int) "pairing counted" 1 (count T.Pairing);
  (* pow may internally multiply; at least the op itself is counted. *)
  Alcotest.(check bool) "g_exp counted" true (count T.G_exp >= 1);
  Alcotest.(check bool) "g_mul counted" true (count T.G_mul >= 1)

let test_json_shape () =
  let before = T.snapshot () in
  T.bump T.Abs_sign;
  Trace.with_span "test.json" (fun _ -> ());
  let cost = T.diff ~earlier:before ~later:(T.snapshot ()) in
  match T.to_json cost with
  | Json.Obj [ ("ops", Json.Obj ops); ("spans", Json.Obj spans) ] ->
    Alcotest.(check bool) "ops has abs_sign" true (List.mem_assoc "abs_sign" ops);
    Alcotest.(check bool) "spans has test.json" true (List.mem_assoc "test.json" spans)
  | _ -> Alcotest.fail "unexpected to_json shape"

let test_json_encoding () =
  let j =
    Json.Obj
      [ ("s", Json.Str "a\"b\\c\n\t\x01");
        ("i", Json.Int (-3));
        ("f", Json.Float 1.5);
        ("nan", Json.Float Float.nan);
        ("arr", Json.Arr [ Json.Bool true; Json.Null ]) ]
  in
  Alcotest.(check string) "rfc8259 escaping"
    "{\"s\":\"a\\\"b\\\\c\\n\\t\\u0001\",\"i\":-3,\"f\":1.5,\"nan\":null,\"arr\":[true,null]}"
    (Json.to_string j)

let test_float_roundtrip () =
  (* Floats print in shortest exact form: parsing the text recovers the
     identical bits, and simple decimals stay human-readable. *)
  Alcotest.(check string) "0.1 stays short" "0.1" (Json.to_string (Json.Float 0.1));
  Alcotest.(check string) "integral float" "2" (Json.to_string (Json.Float 2.0));
  List.iter
    (fun f ->
      let printed = Json.to_string (Json.Float f) in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%s parses back exactly" printed)
        f (float_of_string printed))
    [ 0.1; 1. /. 3.; 1e-300; 1.7976931348623157e308; 4.9e-324;
      3.141592653589793; -0.0; 6.02214076e23 ]

let suite =
  [ ( "telemetry",
      [ Alcotest.test_case "enabled counts" `Quick test_enabled_counts;
        Alcotest.test_case "span accumulates" `Quick test_span_accumulates;
        Alcotest.test_case "span survives exception" `Quick test_span_on_exception;
        Alcotest.test_case "instrumented backend" `Quick test_instrumented_backend;
        Alcotest.test_case "to_json shape" `Quick test_json_shape;
        Alcotest.test_case "json encoding" `Quick test_json_encoding;
        Alcotest.test_case "float round-trip" `Quick test_float_roundtrip ] ) ]
