(* Hash-chained audit log: write/verify round-trip, resumed appends, and —
   the property the chain exists for — an exhaustive single-byte tamper
   sweep: flipping ANY byte of a recorded log must break verification. *)

module Audit = Zkqac_audit.Audit
module Json = Zkqac_telemetry.Json

let temp_log () =
  let p = Filename.temp_file "zkqac-audit" ".log" in
  Sys.remove p;
  p

let read_file p =
  let ic = open_in_bin p in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file p s =
  let oc = open_out_bin p in
  output_string oc s;
  close_out oc

let with_sink path f =
  (match Audit.enable ~path () with
   | Ok () -> ()
   | Error e -> Alcotest.fail ("enable: " ^ e));
  Fun.protect ~finally:Audit.disable f

let sample_entries =
  [ ("verify", Json.Obj [ ("query", Json.Str "(0,0)-(8,8)"); ("outcome", Json.Str "ok") ]);
    ("verify", Json.Obj [ ("outcome", Json.Str "bad-abs-signature") ]);
    ("attack", Json.Obj [ ("scenario", Json.Str "gt-subgroup"); ("n", Json.Int 3) ]);
    ("attack", Json.Obj [ ("detail", Json.Str "quote \" slash \\ done") ]);
    ("attack-summary", Json.Obj [ ("cells", Json.Int 80) ]) ]

let record_all () =
  List.iteri
    (fun i (kind, body) -> Audit.record ~time:(1000.0 +. float_of_int i) ~kind body)
    sample_entries

let test_roundtrip () =
  let path = temp_log () in
  with_sink path (fun () ->
      Alcotest.(check bool) "enabled" true (Audit.enabled ());
      Alcotest.(check (option string)) "path" (Some path) (Audit.path ());
      record_all ());
  Alcotest.(check bool) "disabled after" false (Audit.enabled ());
  match Audit.verify_file path with
  | Error b -> Alcotest.fail (Printf.sprintf "broken at %d: %s" b.Audit.entry b.Audit.reason)
  | Ok entries ->
    Alcotest.(check int) "entry count" (List.length sample_entries)
      (List.length entries);
    List.iteri
      (fun i (e : Audit.entry) ->
        Alcotest.(check int) "seq" i e.Audit.seq;
        Alcotest.(check string) "kind" (fst (List.nth sample_entries i)) e.Audit.kind;
        Alcotest.(check int) "hash length" 64 (String.length e.Audit.hash))
      entries

(* Re-enabling an existing log resumes the chain from its tail: the combined
   file still verifies as one unbroken chain. *)
let test_resume_append () =
  let path = temp_log () in
  with_sink path (fun () -> record_all ());
  with_sink path (fun () ->
      Audit.record ~time:2000.0 ~kind:"verify"
        (Json.Obj [ ("outcome", Json.Str "second-session") ]));
  (match Audit.verify_file path with
   | Error b -> Alcotest.fail (Printf.sprintf "broken at %d: %s" b.Audit.entry b.Audit.reason)
   | Ok entries ->
     Alcotest.(check int) "combined count" (List.length sample_entries + 1)
       (List.length entries);
     let last = List.nth entries (List.length entries - 1) in
     Alcotest.(check int) "resumed seq" (List.length sample_entries)
       last.Audit.seq)

(* The tamper sweep: for every byte position in the log, flip one bit and
   demand that verification fails. This covers hashes, payload bytes, the
   separator spaces, newlines and the header alike. *)
let test_tamper_sweep () =
  let path = temp_log () in
  with_sink path (fun () -> record_all ());
  let original = read_file path in
  let n = String.length original in
  let tampered = temp_log () in
  let survived = ref [] in
  for i = 0 to n - 1 do
    let b = Bytes.of_string original in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
    write_file tampered (Bytes.to_string b);
    match Audit.verify_file tampered with
    | Error _ -> ()
    | Ok _ -> survived := i :: !survived
  done;
  Sys.remove tampered;
  Alcotest.(check (list int))
    (Printf.sprintf "every one of %d byte flips detected" n)
    [] (List.rev !survived)

(* A corrupted log must be refused at enable time, not silently extended. *)
let test_enable_refuses_corrupt () =
  let path = temp_log () in
  with_sink path (fun () -> record_all ());
  let original = read_file path in
  let b = Bytes.of_string original in
  let mid = Bytes.length b / 2 in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x01));
  write_file path (Bytes.to_string b);
  match Audit.enable ~path () with
  | Ok () ->
    Audit.disable ();
    Alcotest.fail "enable accepted a corrupted log"
  | Error _ -> Alcotest.(check bool) "stays disabled" false (Audit.enabled ())

let test_verify_missing_header () =
  let path = temp_log () in
  write_file path "not an audit log\n";
  match Audit.verify_file path with
  | Ok _ -> Alcotest.fail "verified a non-audit file"
  | Error b -> Alcotest.(check int) "blames the header" 0 b.Audit.entry

(* --- crash recovery (Audit.recover) --- *)

(* A crash mid-append leaves a prefix of the final line with no newline:
   recover must drop exactly that line, nothing else, and the repaired log
   must verify. *)
let test_recover_truncates_torn_tail () =
  let path = temp_log () in
  with_sink path (fun () -> record_all ());
  let original = read_file path in
  (* Tear the final line: keep everything up to its midpoint. *)
  let last_nl = String.rindex_from original (String.length original - 2) '\n' in
  let tail_len = String.length original - last_nl - 1 in
  let torn = String.sub original 0 (last_nl + 1 + (tail_len / 2)) in
  write_file path torn;
  (match Audit.recover ~path with
  | Error b -> Alcotest.failf "refused torn tail at %d: %s" b.Audit.entry b.Audit.reason
  | Ok { Audit.kept; dropped } ->
    Alcotest.(check int) "kept all complete entries" (List.length sample_entries - 1) kept;
    Alcotest.(check bool) "reports the dropped line" true (dropped <> None));
  match Audit.verify_file path with
  | Error b -> Alcotest.failf "repaired log broken at %d: %s" b.Audit.entry b.Audit.reason
  | Ok entries ->
    Alcotest.(check int) "one entry dropped" (List.length sample_entries - 1)
      (List.length entries)

(* A final line that is complete and valid but lost only its newline is not
   dropped: recover re-terminates it. *)
let test_recover_reappends_missing_newline () =
  let path = temp_log () in
  with_sink path (fun () -> record_all ());
  let original = read_file path in
  write_file path (String.sub original 0 (String.length original - 1));
  (match Audit.recover ~path with
  | Error b -> Alcotest.failf "refused at %d: %s" b.Audit.entry b.Audit.reason
  | Ok { Audit.kept; dropped } ->
    Alcotest.(check int) "kept everything" (List.length sample_entries) kept;
    Alcotest.(check (option string)) "nothing dropped" None dropped);
  match Audit.verify_file path with
  | Error b -> Alcotest.failf "broken at %d: %s" b.Audit.entry b.Audit.reason
  | Ok entries ->
    Alcotest.(check int) "all entries survive" (List.length sample_entries)
      (List.length entries)

(* Damage before the final line is tampering, not a crash artifact: recover
   must refuse, naming the broken entry like verify_file does. *)
let test_recover_refuses_midlog_damage () =
  let path = temp_log () in
  with_sink path (fun () -> record_all ());
  let original = read_file path in
  let b = Bytes.of_string original in
  let mid = Bytes.length b / 2 in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x01));
  write_file path (Bytes.to_string b);
  match Audit.recover ~path with
  | Ok _ -> Alcotest.fail "repaired mid-log damage"
  | Error _ ->
    (* The file must be untouched by the refused repair. *)
    Alcotest.(check string) "log untouched" (Bytes.to_string b) (read_file path)

let test_recover_missing_file () =
  let path = temp_log () in
  match Audit.recover ~path with
  | Ok { Audit.kept = 0; dropped = None } -> ()
  | Ok _ -> Alcotest.fail "phantom entries recovered from a missing file"
  | Error b -> Alcotest.failf "refused at %d: %s" b.Audit.entry b.Audit.reason

(* --- durability modes --- *)

let test_durability_parse () =
  let ok s d =
    match Audit.durability_of_string s with
    | Ok got ->
      Alcotest.(check string) s (Audit.durability_to_string d)
        (Audit.durability_to_string got)
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  ok "always" Audit.Always;
  ok "never" Audit.Never;
  ok "interval" (Audit.Interval 0.05);
  ok "interval:0.5" (Audit.Interval 0.5);
  (match Audit.durability_of_string "sometimes" with
  | Ok _ -> Alcotest.fail "parsed nonsense durability"
  | Error _ -> ());
  match Audit.durability_of_string "interval:banana" with
  | Ok _ -> Alcotest.fail "parsed non-numeric interval"
  | Error _ -> ()

(* The writer's durability mode lands in each entry's "dur" field, so an
   auditor reading the log offline knows how much a power cut could have
   dropped at each point. *)
let test_dur_field_recorded () =
  let path = temp_log () in
  (match Audit.enable ~durability:Audit.Never ~path () with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check (option string)) "mode reported" (Some "never")
    (Option.map Audit.durability_to_string (Audit.durability ()));
  Audit.record ~time:1.0 ~kind:"verify" (Json.Obj []);
  Audit.disable ();
  (match Audit.enable ~durability:(Audit.Interval 0.2) ~path () with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Audit.record ~time:2.0 ~kind:"verify" (Json.Obj []);
  Audit.disable ();
  match Audit.verify_file path with
  | Error b -> Alcotest.failf "broken at %d: %s" b.Audit.entry b.Audit.reason
  | Ok entries ->
    Alcotest.(check (list string)) "dur per entry" [ "never"; "interval" ]
      (List.map (fun (e : Audit.entry) -> e.Audit.dur) entries)

(* fsync time spent on the audit log is accounted in a float counter — an
   int-seconds cell would round every call to zero. *)
let test_fsync_metric () =
  let module Metrics = Zkqac_telemetry.Metrics in
  Metrics.reset ();
  let path = temp_log () in
  with_sink path (fun () -> record_all ());
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "fsync seconds exported" true
    (contains (Metrics.to_prometheus ()) "zkqac_audit_fsync_seconds_total");
  Metrics.reset ()

(* The CLI's `zkqac verify` and System.open_and_verify make the same
   decision through one entry point, so their audit entries share one
   shape: the same keys, with only the envelope-open stage extra on the
   System side, and a batch path on every entry, rejections included. *)
module Backend = (val Zkqac_group.Backend.instantiate Zkqac_group.Backend.Mock)
module System = Zkqac_core.System.Make (Backend)

let zkqac_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/zkqac.exe"

let run_zkqac args =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process zkqac_exe
      (Array.of_list (zkqac_exe :: args))
      Unix.stdin null null
  in
  Unix.close null;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> code
  | _ -> Alcotest.fail "zkqac killed by a signal"

let verify_bodies path =
  match Audit.verify_file path with
  | Error b -> Alcotest.failf "broken at %d: %s" b.Audit.entry b.Audit.reason
  | Ok entries ->
    List.filter_map
      (fun (e : Audit.entry) ->
        match e.Audit.body with
        | Json.Obj fields when e.Audit.kind = "verify" -> Some fields
        | _ -> None)
      entries

let stage_keys fields =
  match List.assoc_opt "stages_ms" fields with
  | Some (Json.Obj stages) -> List.sort compare (List.map fst stages)
  | _ -> Alcotest.fail "verify entry without stages_ms"

let test_verify_entry_shape () =
  let dir = Filename.temp_file "zkqac-verify-shape" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let file name = Filename.concat dir name in
  write_file (file "recs.txt") "1,2|alpha|RoleA\n3,4|bravo|RoleA & RoleB\n";
  let query = [ "--user"; "RoleA"; "--range"; "0,0:7,7" ] in
  let ok code what = Alcotest.(check int) what 0 code in
  ok (run_zkqac [ "setup"; "--records"; file "recs.txt"; "--roles"; "RoleA,RoleB";
                  "-o"; file "ads" ]) "setup";
  ok (run_zkqac ([ "query"; file "ads" ] @ query @ [ "-o"; file "vo" ])) "query";
  let vo = read_file (file "vo") in
  write_file (file "short") (String.sub vo 0 (String.length vo / 2));
  let cli_log = file "cli.log" in
  let verify vo =
    run_zkqac ([ "verify"; file "ads"; "--vo"; vo; "--audit"; cli_log ] @ query)
  in
  ok (verify (file "vo")) "cli verify";
  Alcotest.(check bool) "truncated VO rejected" true (verify (file "short") <> 0);
  let roles = Zkqac_policy.Attr.set_of_list [ "RoleA" ] in
  let owner, server =
    System.setup ~seed:"verify-shape"
      ~space:(Zkqac_core.Keyspace.create ~dims:2 ~depth:3)
      ~roles:[ "RoleA"; "RoleB" ]
      [ { System.key = [| 1; 2 |]; content = "alpha";
          policy = Zkqac_policy.Expr.of_string "RoleA" } ]
  in
  let alice = System.register_user owner roles in
  let box = Zkqac_core.Box.of_range ~alpha:[| 0; 0 |] ~beta:[| 7; 7 |] in
  let resp = System.range_query server ~claimed_roles:roles box in
  let sys_log = file "system.log" in
  with_sink sys_log (fun () ->
      Alcotest.(check bool) "system accepts" true
        (Result.is_ok (System.open_and_verify alice ~query:box resp));
      Alcotest.(check bool) "system rejects a mismatched query" true
        (Result.is_error
           (System.open_and_verify alice
              ~query:(Zkqac_core.Box.of_range ~alpha:[| 0; 0 |] ~beta:[| 1; 1 |])
              resp)));
  let cli = verify_bodies cli_log and sys = verify_bodies sys_log in
  Alcotest.(check int) "two CLI entries" 2 (List.length cli);
  Alcotest.(check int) "two System entries" 2 (List.length sys);
  let keys fields = List.sort compare (List.map fst fields) in
  let expected = keys (List.hd sys) in
  List.iter
    (fun fields ->
      Alcotest.(check (list string)) "same keys" expected (keys fields);
      Alcotest.(check bool) "batch path" true
        (List.mem (List.assoc "path" fields)
           [ Json.Str "batch"; Json.Str "batch-fallback" ]))
    (cli @ sys);
  List.iter
    (fun fields ->
      Alcotest.(check (list string)) "CLI stages" [ "total"; "vo_decode"; "vo_verify" ]
        (stage_keys fields))
    cli;
  List.iter
    (fun fields ->
      Alcotest.(check (list string)) "System stages"
        [ "envelope_open"; "total"; "vo_decode"; "vo_verify" ] (stage_keys fields))
    sys;
  Alcotest.(check (list string)) "outcomes" [ "ok"; "malformed"; "ok"; "query-mismatch" ]
    (List.map
       (fun fields ->
         match List.assoc "outcome" fields with Json.Str s -> s | _ -> "?")
       (cli @ sys))

(* `zkqac query --audit` records the SP side of the exchange, so a query
   and the verify of its VO leave one two-entry chain. *)
let test_cli_query_entry () =
  let dir = Filename.temp_file "zkqac-query-audit" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let file name = Filename.concat dir name in
  write_file (file "recs.txt") "1,2|alpha|RoleA\n3,4|bravo|RoleA & RoleB\n";
  let query = [ "--user"; "RoleA"; "--range"; "0,0:7,7"; "--audit"; file "log" ] in
  let ok code what = Alcotest.(check int) what 0 code in
  ok (run_zkqac [ "setup"; "--records"; file "recs.txt"; "--roles"; "RoleA,RoleB";
                  "-o"; file "ads" ]) "setup";
  ok (run_zkqac ([ "query"; file "ads" ] @ query @ [ "-o"; file "vo" ])) "query";
  ok (run_zkqac ([ "verify"; file "ads"; "--vo"; file "vo" ] @ query)) "verify";
  match Audit.verify_file (file "log") with
  | Error b -> Alcotest.failf "broken at %d: %s" b.Audit.entry b.Audit.reason
  | Ok entries ->
    Alcotest.(check (list string)) "kinds" [ "query"; "verify" ]
      (List.map (fun (e : Audit.entry) -> e.Audit.kind) entries);
    (match (List.hd entries).Audit.body with
     | Json.Obj fields ->
       Alcotest.(check (list string)) "query keys"
         [ "query"; "relax_calls"; "roles"; "vo_bytes"; "vo_entries" ]
         (List.sort compare (List.map fst fields));
       Alcotest.(check bool) "roles" true
         (List.assoc "roles" fields = Json.Arr [ Json.Str "RoleA" ]);
       Alcotest.(check bool) "vo bytes" true
         (List.assoc "vo_bytes" fields
          = Json.Int (String.length (read_file (file "vo"))))
     | _ -> Alcotest.fail "query entry body is not an object")

let suite =
  [ ( "audit",
      [ Alcotest.test_case "roundtrip" `Quick test_roundtrip;
        Alcotest.test_case "resume append" `Quick test_resume_append;
        Alcotest.test_case "single-byte tamper sweep" `Quick test_tamper_sweep;
        Alcotest.test_case "enable refuses corrupt log" `Quick
          test_enable_refuses_corrupt;
        Alcotest.test_case "missing header" `Quick test_verify_missing_header;
        Alcotest.test_case "recover truncates torn tail" `Quick
          test_recover_truncates_torn_tail;
        Alcotest.test_case "recover re-appends missing newline" `Quick
          test_recover_reappends_missing_newline;
        Alcotest.test_case "recover refuses mid-log damage" `Quick
          test_recover_refuses_midlog_damage;
        Alcotest.test_case "recover missing file" `Quick test_recover_missing_file;
        Alcotest.test_case "durability parse" `Quick test_durability_parse;
        Alcotest.test_case "dur field recorded" `Quick test_dur_field_recorded;
        Alcotest.test_case "fsync seconds metric" `Quick test_fsync_metric;
        Alcotest.test_case "CLI and System verify entries share one shape" `Quick
          test_verify_entry_shape;
        Alcotest.test_case "CLI query and verify share one chain" `Quick
          test_cli_query_entry ] ) ]
