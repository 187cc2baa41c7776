(* The observability layer: histogram bucketing and quantiles, cross-domain
   merging, the JSON parser round-trip, ZKQAC_DOMAINS validation, and a
   golden end-to-end trace — a parallel range query must export valid
   Chrome trace-event JSON with properly nested spans on every domain and
   relax work attributed to at least two worker domains. *)

module Json = Zkqac_telemetry.Json
module Histogram = Zkqac_telemetry.Histogram
module Stage = Zkqac_telemetry.Stage
module Trace = Zkqac_telemetry.Trace
module Flight = Zkqac_telemetry.Flight
module Pool = Zkqac_parallel.Pool
module Drbg = Zkqac_hashing.Drbg
module Expr = Zkqac_policy.Expr
module Attr = Zkqac_policy.Attr
module Universe = Zkqac_policy.Universe
module Box = Zkqac_core.Box
module Keyspace = Zkqac_core.Keyspace
module Record = Zkqac_core.Record

(* --- histogram buckets --- *)

let test_bucket_boundaries () =
  (* Below 2^sub_bits the mapping is the identity (exact buckets). *)
  for ns = 0 to 15 do
    Alcotest.(check int)
      (Printf.sprintf "small bucket %d" ns)
      ns (Histogram.bucket_of_ns ns)
  done;
  (* Octave boundaries: 16 sub-buckets per power of two. *)
  Alcotest.(check int) "16" 16 (Histogram.bucket_of_ns 16);
  Alcotest.(check int) "31" 31 (Histogram.bucket_of_ns 31);
  Alcotest.(check int) "32" 32 (Histogram.bucket_of_ns 32);
  Alcotest.(check int) "33 shares bucket with 32" 32 (Histogram.bucket_of_ns 33);
  (* Every value must fall inside its bucket's bounds, and the bucket index
     must be monotone in the value. *)
  let prev = ref (-1) in
  List.iter
    (fun ns ->
      let b = Histogram.bucket_of_ns ns in
      let lo, hi = Histogram.bucket_bounds b in
      let v = float_of_int ns in
      if not (lo <= v && v < hi) then
        Alcotest.failf "ns=%d in bucket %d but bounds are [%g, %g)" ns b lo hi;
      if b < !prev then Alcotest.failf "bucket index not monotone at ns=%d" ns;
      prev := b)
    (* Values above 2^53 round when converted to float, so stay below it
       for the exact containment check. *)
    [ 0; 1; 15; 16; 17; 31; 32; 63; 64; 100; 1_000; 12_345; 1_000_000;
      999_999_937; 1 lsl 50 ]

let test_quantiles () =
  let h = Histogram.create () in
  Alcotest.(check (float 0.0)) "empty quantile" 0.0 (Histogram.quantile h 0.5);
  (* Uniform 1..1000 microseconds: quantiles must land within the ~6%
     bucket resolution of the true values. *)
  for i = 1 to 1000 do
    Histogram.record h (i * 1000)
  done;
  Alcotest.(check int) "count" 1000 (Histogram.count h);
  let check_q q expected =
    let v = Histogram.quantile h q in
    let err = Float.abs (v -. expected) /. expected in
    if err > 0.07 then
      Alcotest.failf "p%.0f = %g, expected ~%g (err %.1f%%)" (q *. 100.) v
        expected (err *. 100.)
  in
  check_q 0.5 500_000.;
  check_q 0.95 950_000.;
  check_q 0.99 990_000.;
  let lo = Histogram.quantile h 0.0 and hi = Histogram.quantile h 1.0 in
  if lo > 2_000. then Alcotest.failf "p0 = %g, expected ~1000" lo;
  if Float.abs (hi -. 1_000_000.) /. 1_000_000. > 0.07 then
    Alcotest.failf "p100 = %g, expected ~1000000" hi;
  (* A constant distribution: every quantile inside that value's bucket. *)
  let c = Histogram.create () in
  for _ = 1 to 50 do
    Histogram.record c 5_000
  done;
  let b_lo, b_hi = Histogram.bucket_bounds (Histogram.bucket_of_ns 5_000) in
  List.iter
    (fun q ->
      let v = Histogram.quantile c q in
      if not (b_lo <= v && v <= b_hi) then
        Alcotest.failf "constant q=%g gave %g outside [%g, %g]" q v b_lo b_hi)
    [ 0.0; 0.25; 0.5; 0.99; 1.0 ]

let test_merge_and_diff () =
  let a = Histogram.create () and b = Histogram.create () in
  for i = 1 to 100 do
    Histogram.record a (i * 10)
  done;
  for i = 1 to 50 do
    Histogram.record b (i * 1000)
  done;
  let m = Histogram.merge a b in
  Alcotest.(check int) "merged count" 150 (Histogram.count m);
  let sum_ab = (Histogram.mean_ns a *. 100.) +. (Histogram.mean_ns b *. 50.) in
  Alcotest.(check (float 1.0)) "merged mean"
    (sum_ab /. 150.) (Histogram.mean_ns m)

let test_cross_domain_registry () =
  let stage = "test.xdom" in
  let before = Stage.snapshot () in
  let worker () =
    for i = 1 to 100 do
      Stage.note stage ~ns:(i * 100) ~minor:0.0 ~promoted:0.0 ~major:0.0
        ~gc_minor_ns:0 ~gc_major_ns:0
    done
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  worker ();
  let d = Stage.diff ~earlier:before ~later:(Stage.snapshot ()) in
  match List.assoc_opt stage d with
  | None -> Alcotest.fail "stage missing after cross-domain recording"
  | Some c ->
    (* 4 worker domains + the main domain, 100 observations each. *)
    Alcotest.(check int) "cross-domain count" 500 (Histogram.count c.Stage.hist)

(* --- JSON parser --- *)

let json = Alcotest.testable (fun ppf j -> Format.pp_print_string ppf (Json.to_string j)) ( = )

let parse_ok s =
  match Json.of_string s with
  | Ok v -> v
  | Error e -> Alcotest.failf "parse %S: %s" s e

(* The trace as [Trace.write_chrome] writes it, read back. *)
let chrome_json () =
  let path = Filename.temp_file "zkqac-trace" ".json" in
  Trace.write_chrome path;
  let s = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  parse_ok s

let test_json_parse () =
  Alcotest.(check json) "null" Json.Null (parse_ok " null ");
  Alcotest.(check json) "int" (Json.Int (-42)) (parse_ok "-42");
  Alcotest.(check json) "float" (Json.Float 1.5) (parse_ok "1.5");
  Alcotest.(check json) "exp is float" (Json.Float 100.) (parse_ok "1e2");
  Alcotest.(check json) "escapes" (Json.Str "a\"b\\c\nd")
    (parse_ok {|"a\"b\\c\nd"|});
  Alcotest.(check json) "unicode escape" (Json.Str "A") (parse_ok {|"A"|});
  Alcotest.(check json) "surrogate pair" (Json.Str "\xf0\x9f\x98\x80")
    (parse_ok {|"😀"|});
  Alcotest.(check json) "nested"
    (Json.Obj [ ("a", Json.Arr [ Json.Int 1; Json.Bool true ]); ("b", Json.Obj []) ])
    (parse_ok {| {"a": [1, true], "b": {}} |});
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "expected parse error on %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "nul"; {|"unterminated|}; "1 2"; {|{"a" 1}|}; "--3" ]

let test_json_roundtrip () =
  let samples =
    [ Json.Null;
      Json.Bool false;
      Json.Int max_int;
      Json.Float 0.1;
      Json.Float 1.5;
      Json.Float (1. /. 3.);
      Json.Float 1e-300;
      Json.Float 6.02214076e23;
      Json.Str "sp\u{00e9}cial \"chars\" \t\n";
      Json.Arr [ Json.Int 1; Json.Float 2.5; Json.Str "x" ];
      Json.Obj
        [ ("nested", Json.Obj [ ("deep", Json.Arr [ Json.Null ]) ]);
          ("f", Json.Float 3.141592653589793) ] ]
  in
  List.iter
    (fun j ->
      Alcotest.(check json)
        (Printf.sprintf "round-trip %s" (Json.to_string j))
        j
        (parse_ok (Json.to_string j)))
    samples

(* --- ZKQAC_DOMAINS --- *)

let test_pool_size_env () =
  let set v = Unix.putenv "ZKQAC_DOMAINS" v in
  Fun.protect ~finally:(fun () -> set "")
  @@ fun () ->
  set "";
  Alcotest.(check int) "blank means default" (Pool.available_cores ())
    (Pool.size ());
  set "8";
  Alcotest.(check int) "explicit" 8 (Pool.size ());
  set " 3 ";
  Alcotest.(check int) "trimmed" 3 (Pool.size ());
  List.iter
    (fun bad ->
      set bad;
      match Pool.size () with
      | n -> Alcotest.failf "ZKQAC_DOMAINS=%S accepted as %d" bad n
      | exception Invalid_argument _ -> ())
    [ "0"; "-2"; "1025"; "four"; "3.5" ]

(* --- golden trace: parallel range query --- *)

module Backend = (val Zkqac_group.Backend.instantiate Zkqac_group.Backend.Mock)
module Abs = Zkqac_abs.Abs.Make (Backend)
module Ap2g = Zkqac_core.Ap2g.Make (Backend)

let test_query_trace () =
  let drbg = Drbg.create ~seed:"trace-test" in
  let msk, mvk = Abs.setup drbg in
  let universe = Universe.create [ "RoleA"; "RoleB" ] in
  let sk = Abs.keygen drbg msk (Universe.attrs universe) in
  let space = Keyspace.create ~dims:2 ~depth:2 in
  let records =
    [ ([| 0; 0 |], "RoleA"); ([| 1; 2 |], "RoleB"); ([| 2; 1 |], "RoleB");
      ([| 3; 3 |], "RoleA & RoleB") ]
    |> List.map (fun (key, p) ->
           Record.make ~key ~value:"v" ~policy:(Expr.of_string p))
  in
  let tree = Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"s" records in
  let user = Attr.set_of_list [ "RoleA" ] in
  let query = Box.of_range ~alpha:[| 0; 0 |] ~beta:[| 3; 3 |] in
  Trace.enable ();
  Fun.protect ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
  @@ fun () ->
  let vo, st =
    Ap2g.range_vo ~pmap:(Pool.map ~threads:4) drbg ~mvk tree ~user query
  in
  Alcotest.(check bool) "query relaxed something" true (st.Ap2g.relax_calls > 1);
  ignore vo;
  Trace.disable ();
  let spans = Trace.spans () in
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped ());
  let by_id = Hashtbl.create 64 in
  List.iter (fun (s : Flight.event) -> Hashtbl.replace by_id s.seq s) spans;
  (* The query root exists and relax spans reach it through parent links. *)
  let root =
    match List.filter (fun (s : Flight.event) -> s.Flight.name = "sp.query") spans with
    | [ r ] -> r
    | l -> Alcotest.failf "expected one sp.query root, got %d" (List.length l)
  in
  Alcotest.(check int) "root is a root" 0 root.Flight.parent;
  let relaxes =
    List.filter (fun (s : Flight.event) -> s.Flight.name = "abs.relax") spans
  in
  Alcotest.(check int) "one abs.relax per relax call" st.Ap2g.relax_calls
    (List.length relaxes);
  let rec root_of (s : Flight.event) =
    if s.Flight.parent = 0 then s
    else root_of (Hashtbl.find by_id s.Flight.parent)
  in
  List.iter
    (fun (s : Flight.event) ->
      Alcotest.(check int) "relax chains up to the query root"
        root.Flight.seq (root_of s).Flight.seq)
    relaxes;
  (* Relax work is attributed to at least two distinct worker domains. *)
  let relax_tids =
    List.sort_uniq compare (List.map (fun (s : Flight.event) -> s.Flight.domain) relaxes)
  in
  if List.length relax_tids < 2 then
    Alcotest.failf "relax spans on %d domain(s), expected >= 2"
      (List.length relax_tids);
  (* Spans on one domain must nest properly: no partial overlap. *)
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun (s : Flight.event) ->
      Hashtbl.replace by_tid s.Flight.domain
        (s :: (try Hashtbl.find by_tid s.Flight.domain with Not_found -> [])))
    spans;
  Hashtbl.iter
    (fun tid ss ->
      let ss =
        List.sort
          (fun (a : Flight.event) b -> compare a.Flight.t_ns b.Flight.t_ns)
          ss
      in
      let stack = ref [] in
      List.iter
        (fun (s : Flight.event) ->
          let e = s.Flight.t_ns + s.Flight.v in
          while !stack <> [] && compare (List.hd !stack) s.Flight.t_ns <= 0 do
            stack := List.tl !stack
          done;
          (match !stack with
           | top :: _ when compare e top > 0 ->
             Alcotest.failf "tid %d: span %s overlaps its enclosing span" tid
               s.Flight.name
           | _ -> ());
          stack := e :: !stack)
        ss)
    by_tid;
  (* The Chrome export is valid JSON with well-formed complete events. *)
  let exported = chrome_json () in
  let events =
    match exported with
    | Json.Obj fields ->
      (match List.assoc_opt "traceEvents" fields with
       | Some (Json.Arr evs) -> evs
       | _ -> Alcotest.fail "traceEvents missing")
    | _ -> Alcotest.fail "chrome trace is not an object"
  in
  let x_events =
    List.filter
      (fun e ->
        match e with
        | Json.Obj f -> List.assoc_opt "ph" f = Some (Json.Str "X")
        | _ -> false)
      events
  in
  Alcotest.(check int) "one X event per span" (List.length spans)
    (List.length x_events);
  List.iter
    (fun e ->
      match e with
      | Json.Obj f ->
        let has k = List.mem_assoc k f in
        if not (has "name" && has "ts" && has "dur" && has "pid" && has "tid")
        then Alcotest.fail "X event missing a required field";
        (match List.assoc "ts" f with
         | Json.Float ts when ts >= 0.0 -> ()
         | Json.Int ts when ts >= 0 -> ()
         | _ -> Alcotest.fail "X event ts is not a non-negative number")
      | _ -> Alcotest.fail "X event is not an object")
    x_events

let test_trace_capacity () =
  Trace.enable ~capacity:10 ();
  Fun.protect ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
  @@ fun () ->
  for _ = 1 to 25 do
    Trace.with_span "cap.test" (fun _ -> ())
  done;
  Alcotest.(check int) "capacity respected" 10 (Trace.span_count ());
  Alcotest.(check int) "overflow counted" 15 (Trace.dropped ());
  (match Trace.enable ~capacity:0 () with
   | () -> Alcotest.fail "capacity 0 accepted"
   | exception Invalid_argument _ -> ());
  Trace.enable ~capacity:10 ();
  Alcotest.(check int) "reset clears" 0 (Trace.span_count ())

(* The tail sampler gathers a request by its root id: every span knows its
   tree's root without walking parent links. *)
let test_span_root () =
  Trace.enable ();
  Fun.protect ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
  @@ fun () ->
  for _ = 1 to 3 do
    Trace.with_span "outer" (fun outer ->
        Trace.with_span ~parent:outer "inner" (fun _ -> ()))
  done;
  Trace.disable ();
  let spans = Trace.spans () in
  let outers = List.filter (fun s -> s.Flight.name = "outer") spans
  and inners = List.filter (fun s -> s.Flight.name = "inner") spans in
  Alcotest.(check int) "three outer closes" 3 (List.length outers);
  Alcotest.(check int) "three inner closes" 3 (List.length inners);
  List.iter
    (fun (o : Flight.event) ->
      Alcotest.(check int) "a root's span_root is itself" o.Flight.seq
        o.Flight.root)
    outers;
  List.iter
    (fun (i : Flight.event) ->
      (* Each inner's root is its own outer — join by parent id. *)
      let o =
        List.find (fun o -> o.Flight.seq = i.Flight.parent) outers
      in
      Alcotest.(check int) "child inherits its tree's root id"
        o.Flight.seq i.Flight.root)
    inners

(* --- the join's prover path --- *)

module Join = Zkqac_core.Join.Make (Backend)
module Telemetry = Zkqac_telemetry.Telemetry

let join_vo () =
  let drbg = Drbg.create ~seed:"trace-join" in
  let msk, mvk = Abs.setup drbg in
  let universe = Universe.create [ "RoleA"; "RoleB" ] in
  let sk = Abs.keygen drbg msk (Universe.attrs universe) in
  let space = Keyspace.create ~dims:1 ~depth:3 in
  let tree seed specs =
    Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:seed
      (List.map
         (fun (k, p) -> Record.make ~key:[| k |] ~value:"v" ~policy:(Expr.of_string p))
         specs)
  in
  let r = tree "r" [ (1, "RoleA"); (3, "RoleB"); (5, "RoleA") ] in
  let s = tree "s" [ (1, "RoleA"); (5, "RoleB") ] in
  Join.join_vo drbg ~mvk ~r ~s ~user:(Attr.set_of_list [ "RoleA" ]) (Keyspace.whole space)

(* A join relaxes inside one [sp.relax] under its [sp.query], like every
   other query type. *)
let test_join_relax_span () =
  Trace.enable ();
  Fun.protect ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
  @@ fun () ->
  let _, st = join_vo () in
  Trace.disable ();
  Alcotest.(check bool) "join relaxed something" true (st.Join.relax_calls > 0);
  let spans = Trace.spans () in
  let named name = List.filter (fun (s : Flight.event) -> s.Flight.name = name) spans in
  let query =
    match named "sp.query" with
    | [ q ] -> q
    | l -> Alcotest.failf "expected one sp.query, got %d" (List.length l)
  in
  let relax =
    match
      List.filter (fun (s : Flight.event) -> s.Flight.parent = query.Flight.seq)
        (named "sp.relax")
    with
    | [ r ] -> r
    | l -> Alcotest.failf "expected one sp.relax under sp.query, got %d" (List.length l)
  in
  let rec under (s : Flight.event) =
    s.Flight.parent = relax.Flight.seq
    || (s.Flight.parent <> 0
        && under
             (List.find (fun (p : Flight.event) -> p.Flight.seq = s.Flight.parent) spans))
  in
  Alcotest.(check (option int)) "relax_calls attribute" (Some st.Join.relax_calls)
    (match List.assoc_opt "relax_calls" query.Flight.attrs with
     | Some (Trace.Int n) -> Some n
     | _ -> None);
  Alcotest.(check int) "abs.relax spans under sp.relax" st.Join.relax_calls
    (List.length (List.filter under (named "abs.relax")))

(* Encoding or decoding a join VO is one [vo.encode] or [vo.decode], however
   many side entries it embeds. *)
let test_join_codec_one_span () =
  let vo, _ = join_vo () in
  let sides =
    List.length
      (List.filter (function Join.R_side _ | Join.S_side _ -> true | Join.Pair _ -> false) vo)
  in
  Alcotest.(check bool) "at least two side entries" true (sides >= 2);
  let calls name f =
    let before = Telemetry.snapshot () in
    let v = f () in
    let cost = Telemetry.diff ~earlier:before ~later:(Telemetry.snapshot ()) in
    ( v,
      match List.assoc_opt name (Telemetry.spans cost) with
      | Some st -> st.Telemetry.calls
      | None -> 0 )
  in
  let bytes, encodes = calls "vo.encode" (fun () -> Join.to_bytes vo) in
  Alcotest.(check int) "one vo.encode" 1 encodes;
  let decoded, decodes = calls "vo.decode" (fun () -> Join.decode bytes) in
  Alcotest.(check int) "one vo.decode" 1 decodes;
  match decoded with
  | Ok vo' -> Alcotest.(check string) "round trip" bytes (Join.to_bytes vo')
  | Error e -> Alcotest.failf "decode: %s" (Zkqac_util.Verify_error.to_string e)

let suite =
  [ ( "trace",
      [ Alcotest.test_case "histogram bucket boundaries" `Quick
          test_bucket_boundaries;
        Alcotest.test_case "histogram quantiles" `Quick test_quantiles;
        Alcotest.test_case "histogram merge/diff" `Quick test_merge_and_diff;
        Alcotest.test_case "cross-domain histogram registry" `Quick
          test_cross_domain_registry;
        Alcotest.test_case "json parser" `Quick test_json_parse;
        Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "ZKQAC_DOMAINS validation" `Quick test_pool_size_env;
        Alcotest.test_case "golden query trace" `Quick test_query_trace;
        Alcotest.test_case "join relaxes under one sp.relax" `Quick test_join_relax_span;
        Alcotest.test_case "join codec is one span" `Quick test_join_codec_one_span;
        Alcotest.test_case "trace capacity bound" `Quick test_trace_capacity;
        Alcotest.test_case "span_root" `Quick test_span_root ] )
  ]
