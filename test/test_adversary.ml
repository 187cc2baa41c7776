(* Adversarial robustness: the fault-injection matrix must reject every
   applicable tampered response with the typed error its attack class
   predicts; every single-byte mutation of an honest response must be
   rejected (exhaustive sweep); reader limits must stop hostile inputs
   before they allocate; and the error taxonomy must round-trip into
   telemetry attributes and distinct CLI exit codes. *)

module VE = Zkqac_util.Verify_error
module Wire = Zkqac_util.Wire
module Trace = Zkqac_telemetry.Trace
module Pool = Zkqac_parallel.Pool
module Monotonic_clock = Zkqac_parallel.Monotonic_clock
module Scenario = Zkqac_adversary.Scenario

module Mock_backend =
  (val Zkqac_group.Backend.instantiate Zkqac_group.Backend.Mock)

module Harness = Zkqac_adversary.Harness.Make (Mock_backend)
module Vo = Zkqac_core.Vo.Make (Mock_backend)

(* --- the full attack matrix --- *)

let cell_label (c : Harness.cell) =
  Printf.sprintf "%s x %s" c.scenario.Scenario.name
    (Harness.kind_name c.kind)

(* Every query type the harness builds a fixture for. *)
let all_kinds = Harness.[ Equality_q; Range_q; Kd_q; Join_q; Envelope_q ]

let test_attack_matrix () =
  let report = Harness.run ~seed:7 () in
  List.iter
    (fun (c : Harness.cell) ->
      match c.outcome with
      | Harness.Rejected _ | Harness.Not_applicable -> ()
      | Harness.Misclassified e ->
        Alcotest.failf "%s: rejected by unrelated check %s" (cell_label c)
          (VE.code e)
      | Harness.Accepted ->
        Alcotest.failf "%s: tampered response ACCEPTED" (cell_label c))
    report.cells;
  Alcotest.(check bool) "report.ok" true report.ok;
  (* The registry must exercise well more than the 12-scenario floor, and
     every query type must face at least 12 applicable scenarios. *)
  let rejected_names kind =
    List.filter_map
      (fun (c : Harness.cell) ->
        match c.outcome with
        | Harness.Rejected _ when c.kind = kind ->
          Some c.scenario.Scenario.name
        | _ -> None)
      report.cells
    |> List.sort_uniq compare
  in
  List.iter
    (fun kind ->
      (* The envelope fixture is a single sealed blob, not a VO: only the
         Gt-subgroup and wire-format scenarios have a target in it. *)
      let floor = if kind = Harness.Envelope_q then 1 else 12 in
      let n = List.length (rejected_names kind) in
      if n < floor then
        Alcotest.failf "%s: only %d applicable scenarios (need >= %d)"
          (Harness.kind_name kind) n floor)
    all_kinds;
  (* Regression for the Gt subgroup-membership fix: the non-subgroup
     c_tilde substitution must actually land (not Not_applicable) and be
     caught by the decoder. *)
  match
    List.find_opt
      (fun (c : Harness.cell) ->
        c.kind = Harness.Envelope_q && c.scenario.Scenario.name = "gt-subgroup")
      report.cells
  with
  | Some { outcome = Harness.Rejected _; _ } -> ()
  | Some _ -> Alcotest.fail "gt-subgroup x envelope: not rejected as expected"
  | None -> Alcotest.fail "gt-subgroup x envelope cell missing"

let digest (r : Harness.report) =
  List.map
    (fun (c : Harness.cell) ->
      ( cell_label c,
        match c.outcome with
        | Harness.Rejected e -> "ok:" ^ VE.code e
        | Harness.Misclassified e -> "wrong:" ^ VE.code e
        | Harness.Accepted -> "accepted"
        | Harness.Not_applicable -> "n/a" ))
    r.cells

let test_attack_matrix_deterministic () =
  let a = digest (Harness.run ~seed:42 ()) in
  let b = digest (Harness.run ~seed:42 ()) in
  Alcotest.(check (list (pair string string))) "same seed, same matrix" a b

(* Batched and sequential verification must reach identical verdicts —
   typed error included — on every cell of the matrix: the batched path's
   contract is "same accept set, same errors" (any batch rejection falls
   back to a full sequential pass). Honest fixtures are covered too, via
   the harness self-check, which also runs batched here. *)
let test_batch_sequential_equivalence () =
  let sequential = Harness.run ~seed:23 () in
  let batched = Harness.run ~batched:true ~seed:23 () in
  Alcotest.(check (list (pair string string)))
    "batched matrix == sequential matrix" (digest sequential) (digest batched);
  Alcotest.(check bool) "batched report ok" true batched.ok

let test_single_scenario_filter () =
  let report = Harness.run ~scenario:"truncate" ~seed:1 () in
  Alcotest.(check int)
    "one row only" (List.length all_kinds)
    (List.length report.cells);
  Alcotest.(check bool) "row ok" true report.ok;
  (match Harness.run ~scenario:"no-such-attack" ~seed:1 () with
  | _ -> Alcotest.fail "unknown scenario must be rejected"
  | exception Invalid_argument _ -> ())

(* --- exhaustive single-byte mutation sweep --- *)

let test_every_byte_mutation_rejected () =
  List.iter
    (fun (kind, bytes, verify) ->
      let name = Harness.kind_name kind in
      (match verify bytes with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "%s: honest response rejected: %s" name (VE.code e));
      let b = Bytes.of_string bytes in
      for i = 0 to Bytes.length b - 1 do
        let orig = Char.code (Bytes.get b i) in
        List.iter
          (fun m ->
            if m <> orig then begin
              Bytes.set b i (Char.chr m);
              match verify (Bytes.to_string b) with
              | Error _ -> ()
              | Ok () ->
                Alcotest.failf "%s: byte %d set to %#x still verifies" name
                  i m
            end)
          [ orig lxor 0x01; orig lxor 0x80; 0x00; 0xff ];
        Bytes.set b i (Char.chr orig)
      done)
    (Harness.fixtures ())

(* --- reader limits on hostile input --- *)

let expect_verify_error label want = function
  | Error e when want e -> ()
  | Error e -> Alcotest.failf "%s: wrong error %s" label (VE.code e)
  | Ok _ -> Alcotest.failf "%s: accepted" label

let test_limit_input_bytes () =
  let limits = { Wire.default_limits with max_bytes = 64 } in
  expect_verify_error "oversized input"
    (function VE.Limit_exceeded _ -> true | _ -> false)
    (Vo.decode ~limits (String.make 1024 '\x00'))

let test_limit_collection_count () =
  (* A hostile count field must be rejected up front — before the decoder
     allocates anything of that size. Both the huge-count attack (4G
     entries against default limits) and a modest count against a small
     limit go through the same guard. *)
  let patch_count bytes n =
    let b = Bytes.of_string bytes in
    for i = 0 to 3 do
      Bytes.set b i (Char.chr ((n lsr (8 * (3 - i))) land 0xff))
    done;
    Bytes.to_string b
  in
  let _, bytes, _ =
    List.find (fun (k, _, _) -> k = Harness.Range_q) (Harness.fixtures ())
  in
  expect_verify_error "4G-entry count"
    (function VE.Limit_exceeded _ -> true | _ -> false)
    (Vo.decode (patch_count bytes 0xffff_ffff));
  let limits = { Wire.default_limits with max_collection = 4 } in
  expect_verify_error "count above small limit"
    (function VE.Limit_exceeded _ -> true | _ -> false)
    (Vo.decode ~limits (patch_count bytes 1000));
  (* A count that passes the collection bound but exceeds the remaining
     input must fail as malformed, again before allocation. *)
  expect_verify_error "count above remaining input"
    (function VE.Malformed _ -> true | _ -> false)
    (Vo.decode (patch_count bytes 0x000f_ffff))

let test_limit_nesting_depth () =
  let limits = { Wire.default_limits with max_depth = 8 } in
  let r = Wire.reader ~limits "" in
  let rec go n = if n = 0 then () else Wire.nested r (fun () -> go (n - 1)) in
  go 8;
  match go 9 with
  | () -> Alcotest.fail "nesting beyond max_depth must raise"
  | exception Wire.Limit { what; limit } ->
    Alcotest.(check string) "what" "nesting depth" what;
    Alcotest.(check int) "limit" 8 limit

(* --- Verify_error taxonomy: codes, exit codes, telemetry --- *)

let all_errors =
  [
    VE.Completeness_gap;
    VE.Bad_abs_signature "w";
    VE.Bad_aps_signature "w";
    VE.Bad_aps_policy "w";
    VE.Record_outside_query [| 1 |];
    VE.Policy_not_satisfied [| 1 |];
    VE.Malformed { offset = 3 };
    VE.Limit_exceeded { what = "x"; limit = 1 };
    VE.Digest_mismatch "d";
    VE.Envelope_open_failed "e";
    VE.Query_mismatch;
    VE.Invalid_shape "s";
  ]

let test_codes_distinct_and_complete () =
  let codes = List.map VE.code all_errors in
  Alcotest.(check int)
    "codes are distinct" (List.length codes)
    (List.length (List.sort_uniq compare codes))

let test_exit_codes_distinct () =
  let exits = List.map VE.exit_code all_errors in
  Alcotest.(check int)
    "exit codes are distinct"
    (List.length exits)
    (List.length (List.sort_uniq compare exits));
  List.iter
    (fun c ->
      if c < 10 || c > 21 then
        Alcotest.failf "exit code %d outside the reserved [10, 21] band" c)
    exits

let test_as_aps () =
  Alcotest.(check string)
    "abs failure reattributed" "bad-aps-signature"
    (VE.code (VE.as_aps (VE.Bad_abs_signature "w")));
  Alcotest.(check string)
    "other errors pass through" "completeness-gap"
    (VE.code (VE.as_aps VE.Completeness_gap))

let test_verify_error_telemetry_attr () =
  Trace.reset ();
  Trace.enable ();
  Fun.protect ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
  @@ fun () ->
  let report = Harness.run ~scenario:"flip-value" ~seed:3 () in
  Alcotest.(check bool) "flip-value row ok" true report.ok;
  let recorded =
    List.concat_map (fun (i : Zkqac_telemetry.Flight.event) -> i.attrs) (Trace.spans ())
    |> List.filter_map (function
         | "verify_error", Trace.Str s -> Some s
         | _ -> None)
  in
  Alcotest.(check bool)
    "rejection recorded as verify_error span attribute" true
    (List.mem "bad-abs-signature" recorded)

(* --- Pool.map and the monotonic clock --- *)

let test_map_runs_every_job () =
  List.iter
    (fun threads ->
      let ran = Atomic.make 0 in
      let job f () = Atomic.incr ran; f () in
      let jobs =
        List.map job
          [
            (fun () -> 10);
            (fun () -> failwith "boom-1");
            (fun () -> 30);
            (fun () -> failwith "boom-3");
            (fun () -> 50);
          ]
      in
      (match Pool.map ~threads jobs with
       | _ -> Alcotest.fail "expected Job_failed"
       | exception Pool.Job_failed (Failure msg) ->
         Alcotest.(check string) (Printf.sprintf "threads=%d failure" threads)
           "boom-1" msg);
      Alcotest.(check int) (Printf.sprintf "threads=%d jobs run" threads) 5
        (Atomic.get ran))
    [ 1; 2; 4 ]

let test_map_still_raises_lowest () =
  (* The wrapper keeps the old contract: lowest-index failure wins even
     though every job now runs to an outcome. *)
  match
    Pool.map ~threads:2
      [ (fun () -> 1); (fun () -> failwith "first"); (fun () -> failwith "second") ]
  with
  | _ -> Alcotest.fail "expected Job_failed"
  | exception Pool.Job_failed (Failure msg) ->
    Alcotest.(check string) "lowest index re-raised" "first" msg

let test_monotonic_clock () =
  let t0 = Monotonic_clock.now_ns () in
  let t1 = Monotonic_clock.now_ns () in
  Alcotest.(check bool) "non-decreasing" true (Int64.compare t1 t0 >= 0);
  Alcotest.(check bool)
    "elapsed_since non-negative" true
    (Monotonic_clock.elapsed_since t0 >= 0.0);
  let v, dt = Pool.time (fun () -> 6 * 7) in
  Alcotest.(check int) "Pool.time result" 42 v;
  Alcotest.(check bool) "Pool.time duration non-negative" true (dt >= 0.0)

let suite =
  [
    ( "adversary",
      [
        Alcotest.test_case "attack matrix all rejected" `Quick
          test_attack_matrix;
        Alcotest.test_case "matrix deterministic in seed" `Quick
          test_attack_matrix_deterministic;
        Alcotest.test_case "batched verdicts match sequential" `Quick
          test_batch_sequential_equivalence;
        Alcotest.test_case "single-scenario filter" `Quick
          test_single_scenario_filter;
        Alcotest.test_case "every single-byte mutation rejected" `Slow
          test_every_byte_mutation_rejected;
        Alcotest.test_case "limit: input bytes" `Quick test_limit_input_bytes;
        Alcotest.test_case "limit: collection count" `Quick
          test_limit_collection_count;
        Alcotest.test_case "limit: nesting depth" `Quick
          test_limit_nesting_depth;
        Alcotest.test_case "error codes distinct and complete" `Quick
          test_codes_distinct_and_complete;
        Alcotest.test_case "exit codes distinct in [10,21]" `Quick
          test_exit_codes_distinct;
        Alcotest.test_case "as_aps reattribution" `Quick test_as_aps;
        Alcotest.test_case "verify_error telemetry attribute" `Quick
          test_verify_error_telemetry_attr;
        Alcotest.test_case "map runs every job past a failure" `Quick
          test_map_runs_every_job;
        Alcotest.test_case "map re-raises lowest index" `Quick
          test_map_still_raises_lowest;
        Alcotest.test_case "monotonic clock" `Quick test_monotonic_clock;
      ] );
  ]
