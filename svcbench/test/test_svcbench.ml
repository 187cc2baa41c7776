(* The served-query benchmark's own logic: inputs are a function of the
   seed, the run statistics behave on synthetic samples, and the run
   comparison gives each of its four verdicts. *)

module Json = Zkqac_telemetry.Json
module Gen = Svcbench.Gen
module Stats = Svcbench.Stats
module Compare = Svcbench.Compare

let cycle w ~seed = Gen.cycle w (Gen.inputs w ~seed) ~seed

let schedule ~seed = Gen.schedule ~seed ~qps:100.0 ~warmup_s:1.0 ~seconds:5.0

let test_same_seed () =
  List.iter
    (fun (w : Gen.workload) ->
      let a = Gen.inputs w ~seed:42 and b = Gen.inputs w ~seed:42 in
      Alcotest.(check bool) (w.Gen.name ^ " records") true (a.Gen.records = b.Gen.records);
      Alcotest.(check bool) (w.Gen.name ^ " user") true
        (Zkqac_policy.Attr.Set.equal a.Gen.user b.Gen.user);
      Alcotest.(check bool) (w.Gen.name ^ " query order") true
        (cycle w ~seed:42 = cycle w ~seed:42))
    Gen.workloads;
  Alcotest.(check bool) "schedule" true (schedule ~seed:42 = schedule ~seed:42)

let test_other_seed () =
  List.iter
    (fun (w : Gen.workload) ->
      let a = Gen.inputs w ~seed:42 and b = Gen.inputs w ~seed:43 in
      Alcotest.(check bool) (w.Gen.name ^ " records") false (a.Gen.records = b.Gen.records);
      Alcotest.(check bool) (w.Gen.name ^ " query order") false
        (cycle w ~seed:42 = cycle w ~seed:43))
    Gen.workloads;
  Alcotest.(check bool) "schedule" false (schedule ~seed:42 = schedule ~seed:43)

(* What keeps the measured mix apart from the seed: the same boxes in every
   run, and a typea-tiny record in every cell. *)
let test_fixed_mix () =
  List.iter
    (fun (w : Gen.workload) ->
      let a = Array.to_list (cycle w ~seed:42) and b = Array.to_list (cycle w ~seed:43) in
      Alcotest.(check int) (w.Gen.name ^ " distinct boxes") w.Gen.boxes
        (List.length (List.sort_uniq compare a));
      Alcotest.(check bool) (w.Gen.name ^ " same boxes for every seed") true
        (List.sort compare a = List.sort compare b))
    Gen.workloads;
  for seed = 1 to 20 do
    Alcotest.(check int)
      (Printf.sprintf "typea-tiny records, seed %d" seed)
      64
      (List.length (Gen.inputs Gen.typea_tiny ~seed).Gen.records)
  done

let test_schedule_shape () =
  let s = schedule ~seed:7 in
  Alcotest.(check int) "100 warm-up + 500 measured arrivals" 600 (Array.length s);
  let warm = Array.to_list s |> List.filter (fun t -> t < 1.0) |> List.length in
  Alcotest.(check int) "warm-up arrivals" 100 warm;
  Alcotest.(check bool) "sorted, within 6 s" true
    (Array.for_all (fun t -> t >= 0.0 && t < 6.0) s
    && Array.to_list s = List.sort Float.compare (Array.to_list s))

let sample ?(stream = 0) ?(seq = 0) ?(due_s = 0.0) ?(ok = true) latency_ms =
  { Stats.stream; seq; due_s; latency_ms; ok }

let test_percentile () =
  let sorted = Array.init 100 (fun i -> float_of_int (i + 1)) in
  (match Stats.percentile sorted 0.5 with
  | Ok v -> Alcotest.(check (float 0.0)) "p50 of 1..100" 50.0 v
  | Error e -> Alcotest.fail e);
  (match Stats.percentile sorted 0.9 with
  | Ok v -> Alcotest.(check (float 0.0)) "p90 of 1..100" 90.0 v
  | Error e -> Alcotest.fail e);
  (match Stats.percentile sorted 0.95 with
  | Ok _ -> Alcotest.fail "p95 of 100 samples has only 5 beyond it"
  | Error _ -> ());
  match Stats.percentile [||] 0.5 with
  | Ok _ -> Alcotest.fail "no samples"
  | Error _ -> ()

let test_warmup () =
  let closed = Gen.Closed { warmup = 3 } in
  let xs =
    List.concat_map
      (fun stream -> List.init 5 (fun seq -> sample ~stream ~seq 1.0))
      [ 0; 1 ]
  in
  Alcotest.(check int) "closed: first 3 per sender dropped" 4
    (List.length (Stats.measured closed Fun.id xs));
  let open_ = Gen.Open { qps = 10.0; warmup_s = 1.0 } in
  let ys = List.map (fun due_s -> sample ~due_s 1.0) [ 0.1; 0.99; 1.0; 1.5; 2.0 ] in
  Alcotest.(check int) "open: arrivals due before 1 s dropped" 3
    (List.length (Stats.measured open_ Fun.id ys))

let test_goodput () =
  let xs =
    [ sample 10.0; sample 49.0; sample 51.0; sample ~ok:false 5.0; sample 50.0 ]
  in
  Alcotest.(check (float 1e-9)) "3 good answers in 2 s" 1.5
    (Stats.goodput ~limit_ms:50.0 ~window_s:2.0 xs)

let test_quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let xs = List.init 10 (fun i -> float_of_int (i + 1)) in
  let q1, q3 = Stats.quartiles xs in
  Alcotest.(check (float 1e-12)) "q1" 2.75 q1;
  Alcotest.(check (float 1e-12)) "q3" 8.25 q3;
  Alcotest.(check (float 1e-12)) "median" 5.5 (Stats.median xs);
  Alcotest.(check (float 1e-12)) "spread = (q3 - q1) / median" 1.0 (Stats.spread xs)

(* --- compare --- *)

let spec =
  Json.Obj
    [ ( "end_to_end",
        Json.Arr
          [ Json.Obj
              [ ("name", Json.Str "latency_p50_ms"); ("unit", Json.Str "ms");
                ("better", Json.Str "lower"); ("bound", Json.Float 0.1) ];
            Json.Obj
              [ ("name", Json.Str "goodput_qps"); ("unit", Json.Str "1/s");
                ("better", Json.Str "higher"); ("bound", Json.Float 0.1) ] ] ) ]

let runs ?set ~workload metric values =
  Json.Obj
    [ ("schema", Json.Str Compare.schema);
      ( "runs",
        Json.Arr
          (List.mapi
             (fun i v ->
               Json.Obj
                 ([ ("workload", Json.Str workload); ("seed", Json.Int i) ]
                 @ (match set with Some s -> [ ("set", Json.Str s) ] | None -> [])
                 @ [ ( "metrics",
                       Json.Obj
                         [ (metric, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str "") ])
                         ] ) ]))
             values) ) ]

let verdict metric base next =
  match
    Compare.rows ~spec
      ~base:(Compare.values (runs ~workload:"w" metric base))
      ~next:(Compare.values (runs ~workload:"w" metric next))
  with
  | [ r ] -> Compare.verdict_to_string r.Compare.verdict
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

let steady = [ 10.0; 10.1; 9.9; 10.0; 10.05 ]

let test_verdicts () =
  let check name expected metric base next =
    Alcotest.(check string) name expected (verdict metric base next)
  in
  check "same runs" "unchanged" "latency_p50_ms" steady steady;
  check "within the bound" "unchanged" "latency_p50_ms" steady
    (List.map (fun v -> v *. 1.05) steady);
  check "latency 20% worse" "regressed" "latency_p50_ms" steady
    (List.map (fun v -> v *. 1.2) steady);
  check "goodput 20% lower" "regressed" "goodput_qps" steady
    (List.map (fun v -> v *. 0.8) steady);
  check "latency 20% better" "improved" "latency_p50_ms" steady
    (List.map (fun v -> v *. 0.8) steady);
  check "spread wider than the bound" "unresolved" "latency_p50_ms"
    [ 5.0; 10.0; 15.0; 8.0; 12.0 ] steady

(* Writes [json] to a fresh temporary file and returns its path. *)
let write json =
  let path = Filename.temp_file "svcbench-test" ".json" in
  Json.to_file path json;
  path

let test_main_files () =
  let spec = write spec in
  let base = write (runs ~workload:"w" "latency_p50_ms" steady) in
  let slow = write (runs ~workload:"w" "latency_p50_ms" (List.map (fun v -> v *. 1.3) steady)) in
  let sets =
    match
      ( runs ~set:"A" ~workload:"w" "latency_p50_ms" steady,
        runs ~set:"B" ~workload:"w" "latency_p50_ms" (List.map (fun v -> v *. 1.3) steady) )
    with
    | Json.Obj [ s; ("runs", Json.Arr a) ], Json.Obj [ _; ("runs", Json.Arr b) ] ->
      write (Json.Obj [ s; ("runs", Json.Arr (a @ b)) ])
    | _ -> assert false
  in
  Fun.protect ~finally:(fun () -> List.iter Sys.remove [ spec; base; slow; sets ])
  @@ fun () ->
  Alcotest.(check int) "no regression" 0 (Compare.main [ "--spec"; spec; base; base ]);
  Alcotest.(check int) "regression exits 1" 1 (Compare.main [ "--spec"; spec; base; slow ]);
  Alcotest.(check int) "sets of one file" 1
    (Compare.main [ "--spec"; spec; sets ^ "#A"; sets ^ "#B" ]);
  Alcotest.(check int) "a set against itself" 0
    (Compare.main [ "--spec"; spec; sets ^ "#B"; sets ^ "#B" ])

let () =
  Alcotest.run "svcbench"
    [ ( "svcbench gen",
        [ Alcotest.test_case "same seed, same inputs" `Quick test_same_seed;
          Alcotest.test_case "other seed, other inputs" `Quick test_other_seed;
          Alcotest.test_case "same mix for every seed" `Quick test_fixed_mix;
          Alcotest.test_case "schedule shape" `Quick test_schedule_shape ] );
      ( "svcbench stats",
        [ Alcotest.test_case "percentile support" `Quick test_percentile;
          Alcotest.test_case "warm-up exclusion" `Quick test_warmup;
          Alcotest.test_case "goodput counts failures as misses" `Quick test_goodput;
          Alcotest.test_case "quartiles as Python's" `Quick test_quartiles ] );
      ( "svcbench compare",
        [ Alcotest.test_case "verdicts" `Quick test_verdicts;
          Alcotest.test_case "result files" `Quick test_main_files ] ) ]
