(* The crash-injection harness: a real server in a separate process,
   SIGKILLed at randomized points and restarted, many times.

   Four scenario families (Scenario.crash):

   - crash-mid-checkpoint: ZKQAC_CRASH_POINT=durable-{mid-write,pre-rename,
     post-rename} makes the child SIGKILL itself inside Durable.replace
     while writing an epoch checkpoint;
   - crash-torn-audit: ZKQAC_CRASH_POINT=audit-torn:N makes it die after
     flushing half of its Nth audit line, leaving a torn tail;
   - crash-mid-request: ZKQAC_CRASH_POINT=serve-request:N makes it die
     between decoding a request and answering it;
   - crash-random: the harness SIGKILLs it from outside at a uniformly
     random moment under client load.

   State (the ADS file, its epoch siblings, the audit log) is deliberately
   REUSED across a scenario's iterations: every spawn is a real recovery of
   whatever the previous kill left behind. After every kill the harness
   asserts the recovery invariants in-process — the audit chain repairs to
   a verifying log (at most the final line dropped), and checkpoint-epoch
   selection yields a valid tree — and any client that got [Ok] during the
   kill window holds a VO that verified; faults are typed, never an
   accepted tamper. Each scenario ends with a clean child that serves one
   verified query and drains to exit 0.

   ~200 kills total (4 scenarios x iters); override with ZKQAC_CRASH_ITERS. *)

module Expr = Zkqac_policy.Expr
module Attr = Zkqac_policy.Attr
module Universe = Zkqac_policy.Universe
module Drbg = Zkqac_hashing.Drbg
module Box = Zkqac_core.Box
module Keyspace = Zkqac_core.Keyspace
module Record = Zkqac_core.Record
module Prng = Zkqac_rng.Prng
module Audit = Zkqac_audit.Audit
module Scenario = Zkqac_adversary.Scenario

module Backend = (val Zkqac_group.Backend.instantiate Zkqac_group.Backend.Mock)
module Abs = Zkqac_abs.Abs.Make (Backend)
module Ap2g = Zkqac_core.Ap2g.Make (Backend)
module Ads_io = Zkqac_core.Ads_io.Make (Backend)
module Client = Zkqac_server.Client
module Cl = Zkqac_server.Client.Make (Backend)

let iters_per_scenario =
  match Sys.getenv_opt "ZKQAC_CRASH_ITERS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 50)
  | None -> 50

(* --- fixture: a small signed database, saved once, copied per scenario --- *)

let fixture =
  lazy
    (let drbg = Drbg.create ~seed:"test-crash" in
     let msk, mvk = Abs.setup drbg in
     let universe = Universe.create [ "RoleA"; "RoleB" ] in
     let sk = Abs.keygen drbg msk (Universe.attrs universe) in
     let space = Keyspace.create ~dims:2 ~depth:2 in
     let records =
       [
         Record.make ~key:[| 0; 1 |] ~value:"a" ~policy:(Expr.of_string "RoleA");
         Record.make ~key:[| 2; 3 |] ~value:"b" ~policy:(Expr.of_string "RoleB");
         Record.make ~key:[| 3; 0 |] ~value:"c"
           ~policy:(Expr.of_string "RoleA & RoleB");
       ]
     in
     let tree =
       Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"crash" records
     in
     let path = Filename.temp_file "zkqac-crash-fixture" ".zkqac" in
     Ads_io.save ~path ~mvk tree;
     (path, mvk, tree))

let whole_box = Box.make ~lo:[| 0; 0 |] ~hi:[| 3; 3 |]
let user_a = Attr.set_of_list [ "RoleA" ]

let read_all path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_all path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* --- child process management --- *)

(* Built beside this test binary (see test/dune's deps). Resolving against
   the executable works both under `dune runtest` (cwd = build dir) and
   `dune exec` (cwd = workspace root). *)
let child_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "crash_child.exe"

type dirs = { ads : string; port_file : string; audit : string }

let fresh_dirs name =
  let dir = Filename.temp_file ("zkqac-crash-" ^ name) "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let ads = Filename.concat dir "ads.zkqac" in
  let src, _, _ = Lazy.force fixture in
  write_all ads (read_all src);
  {
    ads;
    port_file = Filename.concat dir "port";
    audit = Filename.concat dir "audit.log";
  }

let spawn ?crash_point d =
  if Sys.file_exists d.port_file then Sys.remove d.port_file;
  let env =
    match crash_point with
    | None -> Unix.environment ()
    | Some p ->
      Array.append (Unix.environment ()) [| "ZKQAC_CRASH_POINT=" ^ p |]
  in
  Unix.create_process_env child_exe
    [| child_exe; d.ads; d.port_file; d.audit; "0.02" |]
    env Unix.stdin Unix.stdout Unix.stderr

(* NB: a non-blocking waitpid that learns of the death also reaps it, so a
   later call sees ECHILD — treat both as "dead"; [reap] tolerates the
   already-reaped case the same way. *)
let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false

(* Wait until the child has published its port, or died first (a crash
   point can fire before the listener is up — that is a valid kill too). *)
let await_port d pid =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    if Sys.file_exists d.port_file then
      Some (int_of_string (String.trim (read_all d.port_file)))
    else if not (alive pid) then None
    else if Unix.gettimeofday () > deadline then None
    else begin
      Thread.delay 0.005;
      go ()
    end
  in
  go ()

let rec reap pid =
  match Unix.waitpid [] pid with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Unix.WEXITED 0
  | _, status -> status

(* Block until the self-armed crash point fires; if it never does (the
   randomized count overshot what the run produced), kill from outside so
   the iteration still ends in a SIGKILL. *)
let await_death pid =
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec go () =
    if not (alive pid) then ()
    else if Unix.gettimeofday () > deadline then
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    else begin
      Thread.delay 0.005;
      go ()
    end
  in
  go ();
  reap pid

(* --- the per-kill invariants --- *)

let client_cfg port =
  {
    Client.default_config with
    Client.host = "127.0.0.1";
    port;
    connect_timeout = 2.0;
    read_deadline = 2.0;
    write_deadline = 2.0;
    retries = 0;
  }

let fixture_mvk =
  lazy
    (let _, mvk, _ = Lazy.force fixture in
     mvk)

let fixture_tree =
  lazy
    (let _, _, tree = Lazy.force fixture in
     tree)

(* One client query against a possibly-dying server. [Ok] means the VO
   verified locally; any transport fault is fine (the server may die under
   us); a typed verification rejection means the crash made the server emit
   bytes that parse as a VO but fail the checks — the one outcome a crash
   must never produce. *)
let query_once port =
  let mvk = Lazy.force fixture_mvk in
  let tree = Lazy.force fixture_tree in
  match
    Cl.query (client_cfg port) ~mvk ~universe:(Ap2g.universe tree)
      ?hierarchy:(Ap2g.hierarchy tree) ~user:user_a ~query:whole_box ()
  with
  | Ok _ -> `Verified
  | Error (Client.Exhausted _) -> `Fault
  | Error (Client.Bad_request m) -> Alcotest.failf "server refused request: %s" m
  | Error (Client.Rejected e) ->
    Alcotest.failf "crashing server produced a VO that FAILED verification: %s"
      (Zkqac_util.Verify_error.to_string e)

let assert_recovers d =
  (* The audit chain must repair: at most the torn final line dropped,
     everything kept verifying. This is the same code path the restarting
     child runs. *)
  let dropped =
    match Audit.recover ~path:d.audit with
    | Ok { Audit.dropped; _ } -> dropped <> None
    | Error b ->
      Alcotest.failf "audit recover refused after kill (entry %d): %s"
        b.Audit.entry b.Audit.reason
  in
  (if Sys.file_exists d.audit then
     match Audit.verify_file d.audit with
     | Ok _ -> ()
     | Error b ->
       Alcotest.failf "audit chain broken after recovery (entry %d): %s"
         b.Audit.entry b.Audit.reason);
  (* Checkpoint-epoch selection must yield a valid tree whatever torn
     siblings the kill left behind. *)
  match Ads_io.load_recover ~path:d.ads with
  | Error e -> Alcotest.failf "checkpoint recovery failed after kill: %s" e
  | Ok r -> (r.Ads_io.r_epoch, dropped)

(* End a scenario with a clean child: recovery must reach a serving state
   that answers one verified query and drains to exit 0. *)
let assert_clean_restart d =
  let pid = spawn d in
  match await_port d pid with
  | None ->
    ignore (reap pid);
    Alcotest.fail "clean restart never published a port"
  | Some port ->
    let rec settled tries =
      match query_once port with
      | `Verified -> ()
      | `Fault when tries > 0 ->
        Thread.delay 0.05;
        settled (tries - 1)
      | `Fault -> Alcotest.fail "clean restart refused to serve"
    in
    settled 20;
    Unix.kill pid Sys.sigterm;
    (match reap pid with
    | Unix.WEXITED 0 -> ()
    | Unix.WEXITED n -> Alcotest.failf "clean child exited %d" n
    | Unix.WSIGNALED s -> Alcotest.failf "clean child killed by signal %d" s
    | Unix.WSTOPPED s -> Alcotest.failf "clean child stopped by signal %d" s)

(* --- the scenarios --- *)

type driver =
  | Self_kill of (Prng.t -> string)  (** ZKQAC_CRASH_POINT armed in the child *)
  | External_kill  (** harness SIGKILLs at a random moment under load *)

let run_scenario name driver () =
  let d = fresh_dirs name in
  let prng = Prng.create (Hashtbl.hash name) in
  let torn_tails = ref 0 in
  let max_epoch = ref 0 in
  for i = 1 to iters_per_scenario do
    let crash_point =
      match driver with
      | Self_kill pick -> Some (pick prng)
      | External_kill -> None
    in
    let pid = spawn ?crash_point d in
    (match await_port d pid with
    | None ->
      (* Died before the listener was up — a valid early kill. *)
      ignore (reap pid)
    | Some port -> (
      match driver with
      | Self_kill _ ->
        (* Poke it with queries while the armed point counts down; dying
           mid-request must surface as a typed fault, never a rejection. *)
        let rec poke n =
          if n > 0 && alive pid then begin
            ignore (query_once port);
            poke (n - 1)
          end
        in
        poke 10;
        ignore (await_death pid)
      | External_kill ->
        (* Kill from outside at a uniformly random moment under load. *)
        let kill_after = 0.005 +. (float_of_int (Prng.bits prng 6) /. 1000.0) in
        let killer =
          Thread.create
            (fun () ->
              Thread.delay kill_after;
              try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
            ()
        in
        let rec poke n =
          if n > 0 && alive pid then begin
            ignore (query_once port);
            poke (n - 1)
          end
        in
        poke 50;
        Thread.join killer;
        ignore (reap pid)));
    let epoch, dropped = assert_recovers d in
    if dropped then incr torn_tails;
    if epoch > !max_epoch then max_epoch := epoch;
    ignore i
  done;
  assert_clean_restart d;
  (* The scenario must have actually exercised its failure mode. *)
  (match name with
  | "crash-torn-audit" ->
    if !torn_tails = 0 then
      Alcotest.fail "no kill ever left a torn audit tail — points not firing"
  | "crash-mid-checkpoint" ->
    if !max_epoch = 0 then
      Alcotest.fail "no checkpoint epoch ever committed across the kills"
  | _ -> ());
  Printf.printf "%s: %d kills, %d torn tails repaired, max epoch %d\n%!" name
    iters_per_scenario !torn_tails !max_epoch

let pick_checkpoint_point prng =
  match Prng.int prng 4 with
  | 0 -> "durable-mid-write"
  | 1 -> "durable-pre-rename"
  | 2 -> "durable-post-rename"
  | _ -> Printf.sprintf "durable-pre-rename:%d" (2 + Prng.int prng 2)

let pick_torn_audit_point prng =
  Printf.sprintf "audit-torn:%d" (1 + Prng.bits prng 2)

let pick_mid_request_point prng =
  Printf.sprintf "serve-request:%d" (1 + Prng.bits prng 2)

let registry_is_complete () =
  let names = List.map (fun s -> s.Scenario.name) Scenario.crash in
  Alcotest.(check (list string))
    "crash scenario registry"
    [
      "crash-mid-checkpoint"; "crash-torn-audit"; "crash-mid-request";
      "crash-random";
    ]
    names;
  List.iter
    (fun n ->
      match Scenario.find n with
      | Some s ->
        Alcotest.(check bool)
          "category is crash" true
          (s.Scenario.category = Scenario.Crash)
      | None -> Alcotest.failf "Scenario.find %s = None" n)
    names

let suite =
  [
    ( "crash",
      [
        Alcotest.test_case "scenario registry" `Quick registry_is_complete;
        Alcotest.test_case "crash-mid-checkpoint" `Slow
          (run_scenario "crash-mid-checkpoint"
             (Self_kill pick_checkpoint_point));
        Alcotest.test_case "crash-torn-audit" `Slow
          (run_scenario "crash-torn-audit" (Self_kill pick_torn_audit_point));
        Alcotest.test_case "crash-mid-request" `Slow
          (run_scenario "crash-mid-request" (Self_kill pick_mid_request_point));
        Alcotest.test_case "crash-random" `Slow
          (run_scenario "crash-random" External_kill);
      ] );
  ]
