(* Failure propagation in the domain pool: the first (lowest-index) job
   failure must be reported deterministically, wrapped in Job_failed, even
   when several jobs on different domains fail. *)

module Pool = Zkqac_parallel.Pool

let expect_failure name expected f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Job_failed" name
  | exception Pool.Job_failed (Failure msg) ->
    Alcotest.(check string) name expected msg
  | exception e ->
    Alcotest.failf "%s: expected Job_failed (Failure _), got %s" name
      (Printexc.to_string e)

let ok v () = v
let fail msg () = failwith msg

let test_single_failure () =
  (* The original exception is preserved inside Job_failed. *)
  expect_failure "inline single" "solo" (fun () ->
      Pool.map ~threads:1 [ ok 1; fail "solo"; ok 3 ]);
  expect_failure "parallel single" "solo" (fun () ->
      Pool.map ~threads:2 [ ok 1; fail "solo"; ok 3; ok 4 ])

let test_multi_failure_deterministic () =
  (* Two failing jobs land on different domains (static block partition of
     4 jobs over 2 domains puts job 1 on domain 0 and job 3 on domain 1).
     The lowest job index must win every time, regardless of which domain
     finishes first. *)
  for _ = 1 to 50 do
    expect_failure "two failures, two domains" "boom-1" (fun () ->
        Pool.map ~threads:2 [ ok 0; fail "boom-1"; ok 2; fail "boom-3" ])
  done;
  (* Same with every job failing, across more domains. *)
  for _ = 1 to 20 do
    expect_failure "all failing" "boom-0" (fun () ->
        Pool.map ~threads:4
          (List.init 8 (fun i -> fail (Printf.sprintf "boom-%d" i))))
  done

let test_not_found_is_wrapped () =
  (* A job raising Not_found must surface as Job_failed Not_found, not be
     confused with any internal lookup. *)
  match Pool.map ~threads:2 [ ok 1; (fun () -> raise Not_found); ok 3; ok 4 ] with
  | _ -> Alcotest.fail "expected Job_failed Not_found"
  | exception Pool.Job_failed Not_found -> ()
  | exception e ->
    Alcotest.failf "expected Job_failed Not_found, got %s" (Printexc.to_string e)

let test_success_order () =
  let jobs = List.init 17 (fun i () -> i * i) in
  Alcotest.(check (list int))
    "results in input order"
    (List.init 17 (fun i -> i * i))
    (Pool.map ~threads:4 jobs)

(* --- persistent pool: futures, respawn-on-exception, shutdown --- *)

let test_persistent_basic () =
  let pool = Pool.create ~threads:2 () in
  (match Pool.run pool (fun () -> 21 * 2) with
  | Ok 42 -> ()
  | Ok v -> Alcotest.failf "got %d" v
  | Error (e, _) -> Alcotest.failf "job failed: %s" (Printexc.to_string e));
  Alcotest.(check int) "no respawns" 0 (Pool.respawns pool);
  Pool.shutdown pool

let test_persistent_storm () =
  (* A worker-exception storm across >= 2 domains: every raising job must
     retire its worker (counted), every future must be fulfilled with a
     deterministic result, and the pool must still answer afterwards. *)
  let pool = Pool.create ~threads:3 () in
  let futs =
    List.init 24 (fun i ->
        ( i,
          Pool.submit pool (fun () ->
              if i mod 2 = 1 then failwith (Printf.sprintf "storm-%d" i)
              else i * 10) ))
  in
  List.iter
    (fun (i, fut) ->
      match Pool.await fut with
      | Ok v ->
        if i mod 2 = 1 then Alcotest.failf "job %d should have failed" i;
        Alcotest.(check int) (Printf.sprintf "job %d value" i) (i * 10) v
      | Error (Failure msg, _) ->
        if i mod 2 = 0 then Alcotest.failf "job %d should have succeeded" i;
        Alcotest.(check string)
          (Printf.sprintf "job %d message" i)
          (Printf.sprintf "storm-%d" i)
          msg
      | Error (e, _) ->
        Alcotest.failf "job %d: unexpected %s" i (Printexc.to_string e))
    futs;
  (* The pool survived the storm at full strength. *)
  (match Pool.run pool (fun () -> "alive") with
  | Ok "alive" -> ()
  | _ -> Alcotest.fail "pool dead after storm");
  (* A retirement is counted by the dying worker after it fulfills the
     job's future, so only the post-shutdown count (every domain joined)
     is exact. *)
  Pool.shutdown pool;
  Alcotest.(check int) "one respawn per raising job" 12 (Pool.respawns pool)

let test_persistent_shutdown () =
  let pool = Pool.create ~threads:1 () in
  let futs =
    List.init 8 (fun i -> Pool.submit pool (fun () -> Thread.delay 0.005; i))
  in
  Pool.shutdown pool;
  (* Every future submitted before shutdown is fulfilled... *)
  List.iteri
    (fun i fut ->
      match Pool.peek fut with
      | Some (Ok v) -> Alcotest.(check int) "queued job ran" i v
      | Some (Error (e, _)) ->
        Alcotest.failf "queued job failed: %s" (Printexc.to_string e)
      | None -> Alcotest.fail "future unfulfilled after shutdown")
    futs;
  (* ...and later submits are refused, not silently dropped. *)
  (match Pool.submit pool (fun () -> 0) with
  | _ -> Alcotest.fail "submit after shutdown should raise"
  | exception Invalid_argument _ -> ());
  (* Idempotent. *)
  Pool.shutdown pool

let test_submit_ctx_span () =
  (* A job submitted with the caller's trace context must show up as a
     pool.worker span inside the caller's tree — same root, explicit
     parent link across the domain boundary — carrying the given attrs. *)
  let module Trace = Zkqac_telemetry.Trace in
  Trace.enable ();
  Fun.protect ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
  @@ fun () ->
  let pool = Pool.create ~threads:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool)
  @@ fun () ->
  let result =
    Trace.with_span "request.root" (fun root ->
        Pool.await
          (Pool.submit ~ctx:root
             ~attrs:[ ("req_id", Trace.Str "00000000000000ab") ]
             pool
             (fun () -> 6 * 7)))
  in
  (match result with
  | Ok 42 -> ()
  | Ok v -> Alcotest.failf "job returned %d" v
  | Error (e, _) -> Alcotest.failf "job failed: %s" (Printexc.to_string e));
  Trace.disable ();
  let spans = Trace.spans () in
  let root =
    match
      List.filter (fun s -> s.Zkqac_telemetry.Flight.name = "request.root") spans
    with
    | [ r ] -> r
    | l -> Alcotest.failf "expected one request.root, got %d" (List.length l)
  in
  match List.filter (fun s -> s.Zkqac_telemetry.Flight.name = "pool.worker") spans with
  | [ w ] ->
    Alcotest.(check int) "worker's parent is the caller's span"
      root.Zkqac_telemetry.Flight.seq w.Zkqac_telemetry.Flight.parent;
    Alcotest.(check int) "worker joins the caller's tree root"
      root.Zkqac_telemetry.Flight.seq w.Zkqac_telemetry.Flight.root;
    Alcotest.(check bool) "worker ran on a different domain" true
      (w.Zkqac_telemetry.Flight.domain <> root.Zkqac_telemetry.Flight.domain);
    Alcotest.(check bool) "attrs carried across the boundary" true
      (List.assoc_opt "req_id" w.Zkqac_telemetry.Flight.attrs
      = Some (Trace.Str "00000000000000ab"))
  | l -> Alcotest.failf "expected one pool.worker span, got %d" (List.length l)

let suite =
  [ ( "pool",
      [ Alcotest.test_case "single failure" `Quick test_single_failure;
        Alcotest.test_case "multi failure deterministic" `Quick
          test_multi_failure_deterministic;
        Alcotest.test_case "Not_found wrapped" `Quick test_not_found_is_wrapped;
        Alcotest.test_case "success order" `Quick test_success_order;
        Alcotest.test_case "persistent basic" `Quick test_persistent_basic;
        Alcotest.test_case "persistent exception storm" `Quick
          test_persistent_storm;
        Alcotest.test_case "persistent shutdown fulfills queue" `Quick
          test_persistent_shutdown;
        Alcotest.test_case "submit carries trace context" `Quick
          test_submit_ctx_span ] ) ]
