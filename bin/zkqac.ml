(* zkqac: command-line front end for the authenticated query system.

     zkqac setup   -- data-owner side: sign a database into an ADS file
     zkqac inspect -- show what an ADS file contains
     zkqac query   -- service-provider side: answer a range query with a VO
     zkqac verify  -- user side: check soundness + completeness of a VO
     zkqac attack  -- fault-injection harness: tamper VOs, assert rejection
     zkqac metrics -- run an instrumented workload, print the metrics registry
     zkqac serve   -- long-lived SP daemon: deadlines, shedding, graceful drain
     zkqac client  -- verifying client with transient-fault retry/backoff
     zkqac chaos   -- socket-level fault-injection proxy
     zkqac loadgen -- replay the TPC-H query mix against a running server
     zkqac demo    -- self-contained end-to-end run

   Records are read from a simple line format:  k1,k2,...|value|policy
   e.g.  3,5|secret payload|RoleA & (RoleB | RoleC)                      *)

open Cmdliner
module Expr = Zkqac_policy.Expr
module Attr = Zkqac_policy.Attr
module Universe = Zkqac_policy.Universe
module Drbg = Zkqac_hashing.Drbg
module Box = Zkqac_core.Box
module Keyspace = Zkqac_core.Keyspace
module Record = Zkqac_core.Record

module Backend = (val Zkqac_group.Backend.instantiate Zkqac_group.Backend.Mock)
module Abs = Zkqac_abs.Abs.Make (Backend)
module Ap2g = Zkqac_core.Ap2g.Make (Backend)
module Vo = Zkqac_core.Vo.Make (Backend)
module Ads_io = Zkqac_core.Ads_io.Make (Backend)

module Flight = Zkqac_telemetry.Flight
module Rte = Zkqac_telemetry.Rte
module Audit = Zkqac_audit.Audit
module Json = Zkqac_telemetry.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("zkqac: " ^ s); exit 1) fmt

(* Verification failures exit with the error's own code (10..21, one per
   Verify_error constructor) so scripts can tell a completeness gap from a
   bad signature without parsing stderr. *)
let die_verify (e : Zkqac_util.Verify_error.t) =
  Flight.trip ~reason:("verify-error:" ^ Zkqac_util.Verify_error.code e);
  prerr_endline
    (Printf.sprintf "zkqac: verification FAILED [%s]: %s"
       (Zkqac_util.Verify_error.code e)
       (Zkqac_util.Verify_error.to_string e));
  exit (Zkqac_util.Verify_error.exit_code e)

(* SIGTERM/SIGINT land here for every subcommand. By default they flush the
   flight recorder and the audit tail and exit with the conventional
   128+signal code; long-running subcommands (serve, chaos) install a
   graceful teardown instead, and a second signal forces the default. *)
let graceful_terminate : (string -> unit) option ref = ref None

let terminate name code _ =
  match !graceful_terminate with
  | Some drain ->
    graceful_terminate := None;
    drain name
  | None ->
    Flight.emergency ~reason:name;
    Zkqac_audit.Audit.disable ();
    exit code

(* The flight recorder's last-resort dump paths: SIGUSR1 asks a live process
   for its recent history; an uncaught exception dumps on the way down.
   SIGTERM/SIGINT flush both the flight recorder and the audit tail so an
   interrupted run still leaves its evidence behind. *)
let () =
  (match Sys.os_type with
  | "Unix" ->
    (try
       Sys.set_signal Sys.sigusr1
         (Sys.Signal_handle (fun _ -> Flight.emergency ~reason:"sigusr1"));
       Sys.set_signal Sys.sigterm (Sys.Signal_handle (terminate "sigterm" 143));
       Sys.set_signal Sys.sigint (Sys.Signal_handle (terminate "sigint" 130));
       Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ())
  | _ -> ());
  Printexc.set_uncaught_exception_handler (fun exn bt ->
      Flight.emergency ~reason:("uncaught:" ^ Printexc.to_string exn);
      Printf.eprintf "Fatal error: exception %s\n%s%!" (Printexc.to_string exn)
        (Printexc.raw_backtrace_to_string bt))

(* Observability flags, shared by every subcommand:
     --stats       print op counts + stage timings on exit
     --trace FILE  record a hierarchical trace, write Chrome trace-event
                   JSON (open in https://ui.perfetto.dev)
     --trace-tree  print the span tree to stdout on exit *)

module Trace = Zkqac_telemetry.Trace
module Pool = Zkqac_parallel.Pool

let stats_arg =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:"Print telemetry (group-operation counts and stage timings) on exit.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record a hierarchical trace and write it to $(docv) as Chrome \
                 trace-event JSON, viewable in Perfetto (ui.perfetto.dev).")

let trace_tree_arg =
  Arg.(value & flag
       & info [ "trace-tree" ]
           ~doc:"Record a hierarchical trace and print the span tree on exit.")

let audit_arg =
  Arg.(value & opt (some string) None
       & info [ "audit" ] ~docv:"FILE"
           ~doc:"Append every verification decision to a hash-chained audit \
                 log at $(docv) (created if missing; an existing log is \
                 re-verified and extended). Check it later with $(b,zkqac \
                 audit verify).")

let durability_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Audit.durability_of_string s) in
  let print ppf d = Format.pp_print_string ppf (Audit.durability_to_string d) in
  Arg.conv (parse, print)

let audit_durability_arg =
  Arg.(value & opt durability_conv Audit.Always
       & info [ "audit-durability" ] ~docv:"MODE"
           ~doc:"fsync policy for the audit log: $(b,always) (fsync each \
                 append, the default), $(b,interval)[:SECONDS] (group \
                 commit, bounding how much acknowledged history a power cut \
                 can drop), or $(b,never) (flush only). The mode is recorded \
                 in every entry.")

let audit_recover_arg =
  Arg.(value & flag
       & info [ "audit-recover" ]
           ~doc:"Before opening the audit log, truncate a torn tail line \
                 left by a crash (at most one line; damage anywhere earlier \
                 still refuses). What a restarting server wants; off by \
                 default so an unexpected torn log is loud.")

type obs = {
  stats : bool;
  trace : string option;
  trace_tree : bool;
  audit : string option;
  audit_durability : Audit.durability;
  audit_recover : bool;
}

let with_obs { stats; trace; trace_tree; audit; audit_durability; audit_recover } f =
  let module T = Zkqac_telemetry.Telemetry in
  if stats then T.enable ();
  if trace <> None || trace_tree then Trace.enable ();
  (* GC pause attribution wants the runtime-events monitor; it only runs
     when some observer (stats, trace) will report what it collects. *)
  if stats || trace <> None || trace_tree then Rte.start ();
  (match audit with
  | Some path ->
    if audit_recover then begin
      match Audit.recover ~path with
      | Ok { Audit.kept; dropped = Some line } ->
        Printf.eprintf
          "zkqac: audit recover: dropped torn tail line (%d bytes), %d \
           entr%s kept\n%!"
          (String.length line) kept
          (if kept = 1 then "y" else "ies")
      | Ok _ -> ()
      | Error b -> die "audit recover: entry %d: %s" b.Audit.entry b.Audit.reason
    end;
    (match Audit.enable ~durability:audit_durability ~path () with
    | Ok () -> ()
    | Error e -> die "%s" e)
  | None -> ());
  let before = if stats then Some (T.snapshot ()) else None in
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Rte.stop ();
      Audit.disable ();
      (match trace with
       | Some path ->
         Trace.write_chrome path;
         Printf.printf "trace written to %s: %d span(s)%s\n" path
           (Trace.span_count ())
           (if Trace.dropped () > 0 then
              Printf.sprintf " (%d dropped)" (Trace.dropped ())
            else "")
       | None -> ());
      if trace_tree then Trace.print_tree stdout;
      (match before with
      | Some before -> T.print stdout (T.diff ~earlier:before ~later:(T.snapshot ()))
      | None -> ());
      if stats then
        Printf.printf
          "flight recorder: %d event(s) recorded, %d dropped, %d trip(s)\n"
          (Flight.recorded ()) (Flight.dropped ()) (Flight.trips ()))
    f

let obs_term =
  Term.(const (fun stats trace trace_tree audit audit_durability audit_recover ->
            { stats; trace; trace_tree; audit; audit_durability; audit_recover })
        $ stats_arg $ trace_arg $ trace_tree_arg $ audit_arg
        $ audit_durability_arg $ audit_recover_arg)

(* Query flags shared by the subcommands that read an ADS and ask it a
   range query; each caller keeps its own help text. *)
let ads_arg ?doc () =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"ADS" ?doc)

let user_arg ?doc () =
  Arg.(required & opt (some string) None & info [ "user" ] ~docv:"R1,R2" ?doc)

let range_arg ?doc () =
  Arg.(required & opt (some string) None & info [ "range" ] ~docv:"a1,a2:b1,b2" ?doc)

let batch_arg ~no_batch_doc =
  Arg.(value & vflag true
         [ (true, info [ "batch" ] ~doc:"Batch signature verification (default).");
           (false, info [ "no-batch" ] ~doc:no_batch_doc) ])

(* Every field a record line carries, or the reason it is unusable. *)
let parse_record line =
  (* Split on the first two '|' only: the policy itself may contain '|'. *)
  let bad = Error "bad record line (expected k1,k2|value|policy)" in
  match String.index_opt line '|' with
  | None -> bad
  | Some i -> (
    match String.index_from_opt line (i + 1) '|' with
    | None -> bad
    | Some j -> (
      let keys = String.sub line 0 i in
      let value = String.sub line (i + 1) (j - i - 1) in
      let policy = String.sub line (j + 1) (String.length line - j - 1) in
      let key =
        String.split_on_char ',' keys
        |> List.map (fun s -> int_of_string_opt (String.trim s))
      in
      if List.mem None key then Error (Printf.sprintf "bad key %S" keys)
      else
        match Expr.of_string policy with
        | exception Invalid_argument msg -> Error (Printf.sprintf "bad policy: %s" msg)
        | policy ->
          Ok
            (Record.make
               ~key:(Array.of_list (List.map Option.get key))
               ~value ~policy)))

(* The records of [path], each checked against the space and the role
   universe it will be signed under; the first unusable line ends the run
   with [path:line: reason]. *)
let read_records ~space ~universe path =
  let roles = Universe.attrs universe in
  let seen = Hashtbl.create 64 in
  let check (r : Record.t) =
    if not (Keyspace.valid_key space r.Record.key) then
      Error
        (Printf.sprintf "key %s is outside the %d-dim %d^%d space"
           (String.concat "," (Array.to_list (Array.map string_of_int r.Record.key)))
           (Keyspace.dims space) (Keyspace.side space) (Keyspace.dims space))
    else if Hashtbl.mem seen r.Record.key then
      Error
        (Printf.sprintf "duplicate key (first on line %d)"
           (Hashtbl.find seen r.Record.key))
    else if not (Expr.eval r.Record.policy roles) then
      Error
        (Printf.sprintf "policy %s cannot be satisfied by roles %s"
           (Expr.to_string r.Record.policy)
           (Universe.to_list universe
           |> List.filter (fun a -> a <> Attr.pseudo_role)
           |> String.concat ","))
    else Ok r
  in
  In_channel.with_open_text path @@ fun ic ->
  let rec go n acc =
    match In_channel.input_line ic with
    | None -> List.rev acc
    | Some line ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then go (n + 1) acc
      else (
        match Result.bind (parse_record line) check with
        | Error reason -> die "%s:%d: %s" path n reason
        | Ok r ->
          Hashtbl.replace seen r.Record.key n;
          go (n + 1) (r :: acc))
  in
  go 1 []

let parse_roles s =
  String.split_on_char ',' s |> List.map String.trim |> List.filter (( <> ) "")

(* A query range inside the ADS key space, or a [zkqac:] error: a range
   the space does not contain could only produce a VO that verify rejects
   (the server answers it [query-outside-space]). *)
let parse_range ~space s =
  let dims = Keyspace.dims space in
  let bad () = die "bad range (expected a1,a2:b1,b2): %s" s in
  match String.split_on_char ':' s with
  | [ a; b ] ->
    let point p =
      p |> String.split_on_char ','
      |> List.map (fun x ->
             match int_of_string_opt (String.trim x) with
             | Some v -> v
             | None -> bad ())
      |> Array.of_list
    in
    let alpha = point a and beta = point b in
    if Array.length alpha <> dims || Array.length beta <> dims then
      die "range has %d dims, ADS has %d" (Array.length alpha) dims;
    if Array.exists2 ( > ) alpha beta then
      die "range %s has a lower corner above its upper corner" s;
    let box = Box.of_range ~alpha ~beta in
    if not (Box.contains_box (Keyspace.whole space) box) then
      die "range %s is outside the ADS key space %s" s
        (Box.to_string (Keyspace.whole space));
    box
  | _ -> bad ()

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  data

let load_ads path =
  match Ads_io.load ~path with Error e -> die "%s" e | Ok loaded -> loaded

(* The ADS at [path], the claimed roles, and the range as a box inside the
   ADS key space. *)
let load_query path roles range =
  let mvk, tree = load_ads path in
  let user = Attr.set_of_list (parse_roles roles) in
  (mvk, tree, user, parse_range ~space:(Ap2g.space tree) range)

let print_records =
  List.iter (fun (r : Record.t) ->
      Printf.printf "  %s | %s | %s\n"
        (String.concat "," (Array.to_list (Array.map string_of_int r.Record.key)))
        r.Record.value
        (Expr.to_string r.Record.policy))

(* --- setup --- *)

let setup records_file roles dims depth seed out =
  let universe = Universe.create (parse_roles roles) in
  let space = Keyspace.create ~dims ~depth in
  let records = read_records ~space ~universe records_file in
  let drbg = Drbg.create ~seed:("zkqac-cli:" ^ seed) in
  let msk, mvk = Abs.setup drbg in
  let sk = Abs.keygen drbg msk (Universe.attrs universe) in
  let tree =
    Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:("cli:" ^ seed) records
  in
  Ads_io.save ~path:out ~mvk tree;
  let st = Ap2g.stats tree in
  Printf.printf
    "ADS written to %s: %d records over a %d^%d space, %d signatures (%d KB)\n" out
    (Ap2g.num_records tree) (Keyspace.side space) dims
    (st.Ap2g.leaf_signatures + st.Ap2g.node_signatures)
    ((st.Ap2g.structure_bytes + st.Ap2g.signature_bytes) / 1024)

let setup_cmd =
  let records =
    Arg.(required & opt (some file) None & info [ "records" ] ~docv:"FILE"
           ~doc:"Record file, one 'k1,k2|value|policy' per line.")
  in
  let roles =
    Arg.(required & opt (some string) None & info [ "roles" ] ~docv:"R1,R2,..."
           ~doc:"The access role universe (the pseudo role is implicit).")
  in
  let dims = Arg.(value & opt int 2 & info [ "dims" ] ~doc:"Key dimensions.") in
  let depth = Arg.(value & opt int 3 & info [ "depth" ] ~doc:"Grid depth (side = 2^depth).") in
  let seed = Arg.(value & opt string "default" & info [ "seed" ] ~doc:"Deterministic key seed.") in
  let out = Arg.(value & opt string "ads.zkqac" & info [ "o"; "out" ] ~doc:"Output ADS file.") in
  Cmd.v
    (Cmd.info "setup" ~doc:"Data-owner setup: sign a database into an ADS file.")
    Term.(const (fun obs records roles dims depth seed out ->
              with_obs obs (fun () ->
                  setup records roles dims depth seed out))
          $ obs_term
          $ records $ roles $ dims $ depth $ seed $ out)

(* --- inspect --- *)

let inspect path =
  let _mvk, tree = load_ads path in
  let st = Ap2g.stats tree in
  let space = Ap2g.space tree in
  Printf.printf "space: %d dims, depth %d (%d cells)\n" (Keyspace.dims space)
    (Keyspace.depth space) (Keyspace.num_leaves space);
  Printf.printf "records: %d real, %d leaves total\n" (Ap2g.num_records tree)
    st.Ap2g.leaf_signatures;
  Printf.printf "signatures: %d leaf + %d internal (%d KB)\n"
    st.Ap2g.leaf_signatures st.Ap2g.node_signatures (st.Ap2g.signature_bytes / 1024);
  Printf.printf "roles: %s\n"
    (String.concat ", " (Universe.to_list (Ap2g.universe tree)))

let inspect_cmd =
  Cmd.v (Cmd.info "inspect" ~doc:"Describe an ADS file.")
    Term.(const (fun obs path ->
              with_obs obs (fun () -> inspect path))
          $ obs_term $ ads_arg ())

(* --- query (SP side) --- *)

let query path roles range out =
  let mvk, tree, user, box = load_query path roles range in
  let drbg = Drbg.create ~seed:"zkqac-sp" in
  (* Fan the relax jobs out over worker domains, like a real SP would
     (domain count from ZKQAC_DOMAINS, default the machine's cores). *)
  let pmap = Pool.map ~threads:(Pool.size ()) in
  let vo, st = Ap2g.range_vo ~pmap drbg ~mvk tree ~user box in
  write_file out (Vo.to_bytes vo);
  Printf.printf "VO written to %s: %d entries, %d bytes, %d relaxations, %.1f ms\n"
    out (List.length vo) (Vo.size vo) st.Ap2g.relax_calls (st.Ap2g.sp_time *. 1000.)

let query_cmd =
  let out = Arg.(value & opt string "vo.zkqac" & info [ "o"; "out" ] ~doc:"Output VO file.") in
  Cmd.v
    (Cmd.info "query" ~doc:"Service-provider side: answer a range query with a VO.")
    Term.(const (fun obs path roles range out ->
              with_obs obs (fun () ->
                  query path roles range out))
          $ obs_term $ ads_arg ()
          $ user_arg ~doc:"The querying user's claimed roles." ()
          $ range_arg ~doc:"Inclusive query range corners." ()
          $ out)

(* --- verify (user side) --- *)

let verify ?(batch = true) path vo_path roles range =
  let mvk, tree, user, box = load_query path roles range in
  let vo_bytes = read_file vo_path in
  let fallbacks0 = Zkqac_telemetry.Metrics.batch_fallbacks () in
  (* Mirrors the audit entry System.open_and_verify writes: the CLI path
     verifies raw VO bytes without an envelope, but an auditor still gets
     query, digest, path and outcome for every decision. *)
  let record_audit ~outcome ~rows =
    if Audit.enabled () then
      Audit.record ~kind:"verify"
        (Json.Obj
           [ ("query", Json.Str (Box.to_string box));
             ("vo_digest", Json.Str (Zkqac_hashing.Sha256.hex vo_bytes));
             ("vo_bytes", Json.Int (String.length vo_bytes));
             ( "path",
               Json.Str
                 (if not batch then "sequential"
                  else if Zkqac_telemetry.Metrics.batch_fallbacks () > fallbacks0
                  then "batch-fallback"
                  else "batch") );
             ("outcome", Json.Str outcome);
             ("rows", Json.Int rows) ])
  in
  let fail e =
    record_audit ~outcome:(Zkqac_util.Verify_error.code e) ~rows:0;
    die_verify e
  in
  (* Batch weights derived from the VO bytes: whoever produced the VO
     committed to it before the weights existed. *)
  let batch_drbg =
    if batch then
      Some (Zkqac_hashing.Drbg.create ~seed:("zkqac-cli-batch:" ^ vo_bytes))
    else None
  in
  match Vo.decode vo_bytes with
  | Error e -> fail e
  | Ok vo -> (
    match
      Ap2g.verify ?batch:batch_drbg ~mvk ~t_universe:(Ap2g.universe tree)
        ?hierarchy:(Ap2g.hierarchy tree) ~user ~query:box vo
    with
    | Error e -> fail e
    | Ok results ->
      record_audit ~outcome:"ok" ~rows:(List.length results);
      Printf.printf "verification OK: %d accessible record(s)\n" (List.length results);
      print_records results)

let verify_cmd =
  let vo = Arg.(required & opt (some file) None & info [ "vo" ] ~doc:"VO file to check.") in
  let batch =
    batch_arg
      ~no_batch_doc:"Verify every signature individually (one pairing equation at a time)."
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"User side: check a VO for soundness and completeness.")
    Term.(const (fun obs batch path vo roles range ->
              with_obs obs (fun () ->
                  verify ~batch path vo roles range))
          $ obs_term $ batch $ ads_arg ()
          $ vo $ user_arg () $ range_arg ())

(* --- attack (fault-injection harness) --- *)

module Harness = Zkqac_adversary.Harness.Make (Backend)

let attack seed scenario out =
  let report =
    try Harness.run ?scenario ~seed ()
    with Invalid_argument msg -> die "%s" msg
  in
  let matrix = Harness.render report in
  print_string matrix;
  (match out with
   | Some path ->
     write_file path matrix;
     Printf.printf "matrix written to %s\n" path
   | None -> ());
  if not report.Harness.ok then exit 1

let attack_cmd =
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N"
           ~doc:"PRNG seed; the same seed reproduces the same tampers.")
  in
  let scenario =
    Arg.(value & opt (some string) None & info [ "scenario" ] ~docv:"NAME"
           ~doc:"Run a single scenario instead of the full registry. Known \
                 scenarios: $(b,zkqac attack --scenario help) lists them on \
                 error.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE"
           ~doc:"Also write the rejection matrix to $(docv).")
  in
  Cmd.v
    (Cmd.info "attack"
       ~doc:"Simulate a malicious service provider: apply every registered \
             tamper scenario to equality, range, kd and join query responses \
             and assert the client rejects each with the expected typed \
             error. Exits non-zero if any attack survives.")
    Term.(const (fun obs seed scenario out ->
              with_obs obs (fun () ->
                  attack seed scenario out))
          $ obs_term $ seed $ scenario
          $ out)

(* --- metrics --- *)

let metrics fmt seed out =
  let module T = Zkqac_telemetry.Telemetry in
  let module Metrics = Zkqac_telemetry.Metrics in
  T.enable ();
  Rte.start ();
  (* One adversarial sweep touches every metric family: PAIRING-boundary op
     counts, per-stage latency and allocation attribution, and typed
     verifier rejections. *)
  let (_ : Harness.report) =
    try Harness.run ~seed () with Invalid_argument msg -> die "%s" msg
  in
  (* Quiesce the runtime-events monitor so the exposition includes every GC
     pause the sweep caused. *)
  Rte.stop ();
  let text =
    match fmt with
    | `Prometheus -> Metrics.to_prometheus ()
    | `Json -> Zkqac_telemetry.Json.to_string (Metrics.to_json ()) ^ "\n"
  in
  match out with
  | None -> print_string text
  | Some path ->
    write_file path text;
    Printf.printf "metrics written to %s\n" path

let metrics_cmd =
  let fmt =
    Arg.(value
         & opt (enum [ ("prometheus", `Prometheus); ("json", `Json) ]) `Prometheus
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Output format: $(b,prometheus) text exposition or $(b,json).")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N"
           ~doc:"Seed for the instrumented workload.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE"
           ~doc:"Write the exposition to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Run an instrumented workload (the fault-injection sweep) and \
             print the full metrics registry: operation counts, per-stage \
             latency summaries, GC/allocation attribution, trace health and \
             verifier rejection counts.")
    Term.(const metrics $ fmt $ seed $ out)

(* --- audit (hash-chained log tooling) --- *)

let audit_verify path quiet repair =
  if repair then begin
    match Audit.recover ~path with
    | Ok { Audit.kept = _; dropped = Some line } ->
      Printf.printf "repaired: dropped torn tail line (%d bytes): %s\n"
        (String.length line) line
    | Ok _ -> ()
    | Error b ->
      prerr_endline
        (Printf.sprintf
           "zkqac: audit repair refused at entry %d: %s" b.Audit.entry
           b.Audit.reason);
      exit 1
  end;
  match Audit.verify_file path with
  | Error b ->
    prerr_endline
      (Printf.sprintf "zkqac: audit chain BROKEN at entry %d: %s" b.Audit.entry
         b.Audit.reason);
    exit 1
  | Ok entries ->
    let n = List.length entries in
    let kinds = Hashtbl.create 8 in
    List.iter
      (fun (e : Audit.entry) ->
        Hashtbl.replace kinds e.Audit.kind
          (1 + Option.value ~default:0 (Hashtbl.find_opt kinds e.Audit.kind)))
      entries;
    let head =
      match List.rev entries with
      | e :: _ -> String.sub e.Audit.hash 0 12
      | [] -> "(empty)"
    in
    Printf.printf "audit chain OK: %d entr%s, head %s\n" n
      (if n = 1 then "y" else "ies")
      head;
    if not quiet then
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) kinds []
      |> List.sort compare
      |> List.iter (fun (k, v) -> Printf.printf "  %-16s %d\n" k v)

let audit_show path =
  match Audit.verify_file path with
  | Error b ->
    prerr_endline
      (Printf.sprintf "zkqac: audit chain BROKEN at entry %d: %s" b.Audit.entry
         b.Audit.reason);
    exit 1
  | Ok entries ->
    List.iter
      (fun (e : Audit.entry) ->
        Printf.printf "#%-5d %s  %-14s %s  %s\n" e.Audit.seq
          (Audit.pp_time e.Audit.time) e.Audit.kind
          (String.sub e.Audit.hash 0 12)
          (Json.to_string e.Audit.body))
      entries

let audit_path_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"LOG"
         ~doc:"Audit log produced with --audit.")

let audit_verify_cmd =
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Only print the verdict line.")
  in
  let repair =
    Arg.(value & flag
         & info [ "repair" ]
             ~doc:"First truncate a torn tail line left by a crash, printing \
                   what was dropped. At most the final line is ever removed; \
                   a chain broken anywhere earlier is tampering and the \
                   repair is refused.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Re-derive every hash link of an audit log from the bytes on \
             disk. Exits 1 naming the first broken entry if any byte of the \
             log was altered.")
    Term.(const audit_verify $ audit_path_arg $ quiet $ repair)

let audit_show_cmd =
  Cmd.v
    (Cmd.info "show"
       ~doc:"Verify the chain, then print every entry (sequence, UTC time, \
             kind, chain-hash prefix, body).")
    Term.(const audit_show $ audit_path_arg)

let audit_cmd =
  Cmd.group
    (Cmd.info "audit"
       ~doc:"Tamper-evident audit-log tooling: every entry is hash-chained \
             to its predecessor, so any modification of a recorded log is \
             detectable offline.")
    [ audit_show_cmd; audit_verify_cmd ]

(* --- serve / client / chaos / loadgen (the resilience layer) --- *)

module Server = Zkqac_server.Server.Make (Backend)
module Client = Zkqac_server.Client
module Cl = Zkqac_server.Client.Make (Backend)
module Chaos = Zkqac_server.Chaos
module Loadgen = Zkqac_server.Loadgen
module Lg = Zkqac_server.Loadgen.Make (Backend)
module Metrics_http = Zkqac_server.Metrics_http

let serve ads host port metrics_port threads max_in_flight read_dl write_dl
    query_dl drain_dl checkpoint_every slow_threshold_ms slowlog_cap =
  let cfg =
    {
      Zkqac_server.Server.host;
      port;
      metrics_port;
      threads;
      max_in_flight;
      read_deadline = read_dl;
      write_deadline = write_dl;
      query_deadline = query_dl;
      drain_deadline = drain_dl;
      checkpoint_every;
      slow_threshold_ms;
      slowlog_cap;
      slow_inject = Zkqac_server.Server.slow_inject_of_env ();
    }
  in
  match Server.start cfg ~ads with
  | Error e -> die "%s" e
  | Ok t ->
    Printf.printf "serving %s on %s:%d (pool=%d, max_in_flight=%d, epoch=%d)\n%!"
      ads host (Server.port t) threads max_in_flight (Server.recovered_epoch t);
    (match Server.metrics_port t with
    | Some p ->
      Printf.printf "metrics on http://%s:%d/metrics, slowlog on http://%s:%d/slowlog\n%!"
        host p host p
    | None -> ());
    (* SIGUSR1 on the daemon dumps the slowlog (JSON + per-incident
       Perfetto files) next to the flight recorder's emergency dump, into
       ZKQAC_FLIGHT_DIR — one signal, one joined forensic snapshot. *)
    (try
       Sys.set_signal Sys.sigusr1
         (Sys.Signal_handle
            (fun _ ->
              Flight.emergency ~reason:"sigusr1";
              ignore (Server.dump_slowlog t : int)))
     with Invalid_argument _ | Sys_error _ -> ());
    (* First SIGTERM/SIGINT: graceful drain — stop accepting, finish
       in-flight queries within their deadlines, flush audit + flight.
       A second signal falls back to the flush-and-exit default. *)
    graceful_terminate :=
      Some
        (fun name ->
          Printf.eprintf "zkqac: %s received, draining\n%!" name;
          Server.begin_drain t);
    Server.wait t;
    Printf.printf "drained: %d quer(ies) served over %d connection(s)\n"
      (Server.served t) (Server.connections t)

let host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR"
         ~doc:"Address to bind or connect to.")

let port_arg ~doc default = Arg.(value & opt int default & info [ "port" ] ~docv:"PORT" ~doc)

let serve_cmd =
  let metrics_port =
    Arg.(value & opt (some int) None & info [ "metrics-port" ] ~docv:"PORT"
           ~doc:"Also expose GET /metrics (Prometheus text) on $(docv).")
  in
  let threads =
    Arg.(value & opt int Zkqac_server.Server.default_config.Zkqac_server.Server.threads
         & info [ "threads" ] ~docv:"N" ~doc:"Worker domains in the persistent query pool.")
  in
  let max_in_flight =
    Arg.(value & opt int Zkqac_server.Server.default_config.Zkqac_server.Server.max_in_flight
         & info [ "max-in-flight" ] ~docv:"N"
             ~doc:"Concurrent connections before load shedding answers \
                   Overloaded instead of queueing without bound.")
  in
  let deadline names default doc =
    Arg.(value & opt float default & info names ~docv:"SECONDS" ~doc)
  in
  let slow_threshold_ms =
    Arg.(value & opt float 0.0 & info [ "slow-threshold-ms" ] ~docv:"MS"
           ~doc:"Tail-sampling slow threshold: requests slower than $(docv) \
                 milliseconds keep their full span tree in /slowlog. 0 \
                 (default) tracks the live p99 instead.")
  in
  let slowlog_cap =
    Arg.(value & opt int 64 & info [ "slowlog-cap" ] ~docv:"N"
           ~doc:"Incidents retained by the tail sampler (oldest evicted).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Service-provider daemon: answer range queries over TCP with \
             per-connection deadlines, bounded in-flight load shedding, a \
             persistent worker-domain pool, tail-sampled request tracing \
             (GET /slowlog next to /metrics; SIGUSR1 dumps it with \
             per-incident Perfetto files), and graceful drain on SIGTERM.")
    Term.(const (fun obs ads host port metrics_port
                     threads max_in_flight read_dl write_dl query_dl drain_dl
                     checkpoint_every slow_threshold_ms slowlog_cap ->
              with_obs obs (fun () ->
                  serve ads host port metrics_port threads max_in_flight
                    read_dl write_dl query_dl drain_dl checkpoint_every
                    slow_threshold_ms slowlog_cap))
          $ obs_term $ ads_arg () $ host_arg
          $ port_arg ~doc:"Port to listen on (0 picks one)." 7499
          $ metrics_port $ threads $ max_in_flight
          $ deadline [ "read-deadline" ] 5.0 "Budget for reading one request frame."
          $ deadline [ "write-deadline" ] 5.0 "Budget for writing one response frame."
          $ deadline [ "query-deadline" ] 30.0 "Budget for executing one query."
          $ deadline [ "drain-deadline" ] 45.0 "Budget for the whole graceful drain."
          $ deadline [ "checkpoint-every" ] 0.0
              "Write an epoch-stamped checkpoint sibling of the ADS file \
               every $(docv) seconds (atomic replace; the newest two epochs \
               are kept). 0 disables."
          $ slow_threshold_ms $ slowlog_cap)

(* --- supervise (restart loop around serve) --- *)

module Supervise = Zkqac_server.Supervise

let supervise max_restarts base_backoff max_backoff pid_file serve_args =
  let argv =
    Array.of_list (Sys.executable_name :: "serve" :: serve_args)
  in
  let sup =
    Supervise.create
      { Supervise.max_restarts; base_backoff; max_backoff; pid_file }
  in
  (* First SIGTERM/SIGINT forwards to the child so it drains; the
     supervisor then ends with the child's clean exit. *)
  graceful_terminate :=
    Some
      (fun name ->
        Printf.eprintf "zkqac: %s received, stopping supervised child\n%!" name;
        Supervise.stop sup);
  let code = Supervise.run sup ~argv in
  Printf.printf "supervise: done after %d restart(s)\n" (Supervise.restarts sup);
  exit code

let supervise_cmd =
  let max_restarts =
    Arg.(value & opt int Supervise.default_config.Supervise.max_restarts
         & info [ "max-restarts" ] ~docv:"N"
             ~doc:"Give up (exit non-zero) after $(docv) restarts.")
  in
  let base_backoff =
    Arg.(value & opt float Supervise.default_config.Supervise.base_backoff
         & info [ "base-backoff" ] ~docv:"SECONDS"
             ~doc:"Delay before the first restart; doubles each crash.")
  in
  let max_backoff =
    Arg.(value & opt float Supervise.default_config.Supervise.max_backoff
         & info [ "max-backoff" ] ~docv:"SECONDS" ~doc:"Backoff ceiling.")
  in
  let pid_file =
    Arg.(value & opt (some string) None & info [ "pid-file" ] ~docv:"FILE"
           ~doc:"Publish the child server pid to $(docv) (written \
                 atomically) after each (re)start, so a harness can kill \
                 the server rather than the supervisor.")
  in
  let serve_args =
    Arg.(value & pos_all string [] & info [] ~docv:"SERVE_ARG"
           ~doc:"Arguments passed to $(b,zkqac serve), after $(b,--).")
  in
  Cmd.v
    (Cmd.info "supervise"
       ~doc:"Run $(b,zkqac serve) under a restart loop: when the server \
             dies without being asked to (crash, SIGKILL), restart it with \
             exponential backoff and count it in \
             zkqac_supervisor_restarts_total. The restarted server recovers \
             its newest valid checkpoint epoch and repairs the audit tail \
             before flipping /readyz. Example: $(b,zkqac supervise \
             --pid-file srv.pid -- ads.zkqac --port 7499 --audit a.log \
             --audit-recover).")
    Term.(const supervise $ max_restarts $ base_backoff $ max_backoff
          $ pid_file $ serve_args)

let client ads host port roles range retries batch =
  let mvk, tree, user, box = load_query ads roles range in
  let cfg = { Client.default_config with Client.host; port; retries; batch } in
  match
    Cl.query cfg ~mvk ~universe:(Ap2g.universe tree)
      ?hierarchy:(Ap2g.hierarchy tree) ~user ~query:box ()
  with
  | Ok s ->
    Printf.printf
      "verification OK: %d accessible record(s), %d VO bytes, %d attempt(s)\n"
      (List.length s.Cl.records) s.Cl.vo_bytes s.Cl.attempts;
    (* The correlation line: this id greps into the server's audit log,
       /slowlog, and flight dump. The split separates who to blame. *)
    Option.iter
      (fun (tm : Zkqac_server.Proto.timing) ->
        let ms us = float_of_int us /. 1e3 in
        let server_ms = ms tm.Zkqac_server.Proto.total_us in
        Printf.printf
          "req %s: server %.2f ms (queue %.2f, relax %.2f, prove %.2f, \
           encode %.2f), network %.2f ms, verify %.2f ms\n"
          (Zkqac_server.Proto.req_id_hex s.Cl.req_id)
          server_ms
          (ms tm.Zkqac_server.Proto.queue_us)
          (ms tm.Zkqac_server.Proto.relax_us)
          (ms tm.Zkqac_server.Proto.prove_us)
          (ms tm.Zkqac_server.Proto.encode_us)
          (Float.max 0.0 (s.Cl.attempt_ms -. server_ms))
          s.Cl.verify_ms)
      s.Cl.server;
    print_records s.Cl.records
  | Error (Client.Rejected e) -> die_verify e
  | Error f -> die "%s" (Client.failure_to_string f)

let client_cmd =
  let ads =
    ads_arg
      ~doc:"The client's trusted copy of the ADS checkpoint (public key \
            and role universe); the VO is verified against it locally."
      ()
  in
  let retries =
    Arg.(value & opt int Client.default_config.Client.retries
         & info [ "retries" ] ~docv:"N"
             ~doc:"Retry budget for transient faults (transport errors, \
                   Overloaded, Deadline). Typed verification rejections are \
                   never retried.")
  in
  let batch = batch_arg ~no_batch_doc:"Verify signatures individually." in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Query a running server and verify the returned VO locally, \
             retrying transient faults with full-jitter backoff. Exits with \
             the typed verification code on rejection.")
    Term.(const (fun obs ads host port roles range
                     retries batch ->
              with_obs obs (fun () ->
                  client ads host port roles range retries batch))
          $ obs_term $ ads $ host_arg
          $ port_arg ~doc:"Server port." 7499 $ user_arg () $ range_arg ()
          $ retries $ batch)

let chaos listen_port upstream_host upstream_port scenario faults stall
    trickle_delay cut_after seed =
  let cfg =
    {
      Chaos.listen_host = "127.0.0.1";
      listen_port;
      upstream_host;
      upstream_port;
      scenario;
      faults;
      stall;
      trickle_delay;
      cut_after;
      seed;
    }
  in
  match Chaos.start cfg with
  | Error e -> die "%s" e
  | Ok t ->
    Printf.printf "chaos proxy on 127.0.0.1:%d -> %s:%d, scenario %s, first %d connection(s)\n%!"
      (Chaos.port t) upstream_host upstream_port scenario faults;
    let stop = Atomic.make false in
    graceful_terminate := Some (fun _ -> Atomic.set stop true);
    while not (Atomic.get stop) do
      (try Thread.delay 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ())
    done;
    Chaos.stop t;
    Printf.printf "chaos proxy stopped: %d connection(s), %d fault(s) injected\n"
      (Chaos.connections t) (Chaos.injected t)

let chaos_cmd =
  let scenario =
    Arg.(value & opt string "net-corrupt" & info [ "scenario" ] ~docv:"NAME"
           ~doc:"Network fault to inject: net-stall, net-slowloris, \
                 net-truncate, net-disconnect, net-corrupt or net-refuse.")
  in
  let upstream_host =
    Arg.(value & opt string "127.0.0.1" & info [ "upstream-host" ] ~docv:"ADDR")
  in
  let upstream_port =
    Arg.(value & opt int 7499 & info [ "upstream-port" ] ~docv:"PORT")
  in
  let faults =
    Arg.(value & opt int 1 & info [ "faults" ] ~docv:"N"
           ~doc:"Fault the first $(docv) connections, then forward clean — \
                 so a client with enough retry budget always recovers.")
  in
  let stall = Arg.(value & opt float 30.0 & info [ "stall" ] ~docv:"SECONDS") in
  let trickle =
    Arg.(value & opt float 0.25 & info [ "trickle-delay" ] ~docv:"SECONDS")
  in
  let cut = Arg.(value & opt int 12 & info [ "cut-after" ] ~docv:"BYTES") in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N") in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Socket-level fault-injection proxy: the adversary registry \
             extended to the network boundary. Every injected fault must \
             surface as a typed client error or a successful retry.")
    Term.(const chaos
          $ port_arg ~doc:"Port to listen on (0 picks one)." 0
          $ upstream_host $ upstream_port $ scenario $ faults $ stall $ trickle
          $ cut $ seed)

let loadgen ads host port users qps duration max_queries frac roles
    metrics_port seed json_out =
  let cfg =
    {
      Loadgen.client = { Client.default_config with Client.host; port };
      users;
      qps;
      duration;
      max_queries;
      frac;
      roles = (match roles with None -> [] | Some r -> parse_roles r);
      seed;
    }
  in
  let mh =
    match metrics_port with
    | None -> None
    | Some p -> (
      match Metrics_http.start ~host:"127.0.0.1" ~port:p () with
      | Error e -> die "%s" e
      | Ok t ->
        Printf.printf "metrics on http://127.0.0.1:%d/metrics\n%!"
          (Metrics_http.port t);
        Some t)
  in
  let finish () = Option.iter Metrics_http.stop mh in
  Fun.protect ~finally:finish @@ fun () ->
  match Lg.run cfg ~ads with
  | Error e -> die "%s" e
  | Ok r ->
    let module H = Zkqac_telemetry.Histogram in
    let q p = H.quantile r.Loadgen.latency p /. 1e6 in
    Printf.printf
      "loadgen: %d sent in %.1fs (%.1f qps) | ok %d, rejected %d, \
       bad-request %d, exhausted %d | %d retr%s, %d record(s)\n"
      r.Loadgen.sent r.Loadgen.wall
      (float_of_int r.Loadgen.sent /. Float.max 1e-9 r.Loadgen.wall)
      r.Loadgen.ok r.Loadgen.rejected r.Loadgen.bad_request r.Loadgen.exhausted
      r.Loadgen.retries
      (if r.Loadgen.retries = 1 then "y" else "ies")
      r.Loadgen.records;
    Printf.printf "latency ms: p50 %.2f  p95 %.2f  p99 %.2f  max %.2f\n"
      (q 0.5) (q 0.95) (q 0.99)
      (H.max_ns r.Loadgen.latency /. 1e6);
    (* The split only exists once some query succeeded. *)
    if H.count r.Loadgen.server_lat > 0 then begin
      let qh h p = H.quantile h p /. 1e6 in
      Printf.printf
        "  server  ms: p50 %.2f  p99 %.2f | network ms: p50 %.2f  p99 %.2f \
         | verify ms: p50 %.2f  p99 %.2f\n"
        (qh r.Loadgen.server_lat 0.5) (qh r.Loadgen.server_lat 0.99)
        (qh r.Loadgen.network_lat 0.5) (qh r.Loadgen.network_lat 0.99)
        (qh r.Loadgen.verify_lat 0.5) (qh r.Loadgen.verify_lat 0.99)
    end;
    if r.Loadgen.slowest <> [] then begin
      Printf.printf "worst queries (grep the req id in /slowlog and the audit log):\n";
      List.iter
        (fun (s : Loadgen.slow_query) ->
          Printf.printf "  req %s  %-11s  total %8.2f ms%s%s  attempts %d\n"
            (Zkqac_server.Proto.req_id_hex s.Loadgen.s_req_id)
            s.Loadgen.s_outcome s.Loadgen.s_total_ms
            (match s.Loadgen.s_server_ms with
            | Some v -> Printf.sprintf "  server %8.2f ms" v
            | None -> "")
            (match s.Loadgen.s_network_ms with
            | Some v -> Printf.sprintf "  network %8.2f ms" v
            | None -> "")
            s.Loadgen.s_attempts)
        r.Loadgen.slowest
    end;
    (match json_out with
    | Some path ->
      Json.to_file path (Loadgen.report_to_json r);
      Printf.printf "report written to %s\n" path
    | None -> ());
    (* Rejections against an honest server mean an accepted-tamper class
       bug somewhere; make the run fail loudly. *)
    if r.Loadgen.rejected > 0 then exit 1

let loadgen_cmd =
  let users =
    Arg.(value & opt int 4 & info [ "users" ] ~docv:"N" ~doc:"Concurrent simulated users.")
  in
  let qps =
    Arg.(value & opt (some float) None & info [ "qps" ] ~docv:"Q"
           ~doc:"Total offered rate (open loop, exponential interarrivals). \
                 Omit for closed loop: each user fires as soon as the \
                 previous query completes.")
  in
  let duration =
    Arg.(value & opt float 10.0 & info [ "duration" ] ~docv:"SECONDS")
  in
  let max_queries =
    Arg.(value & opt int 0 & info [ "queries" ] ~docv:"N"
           ~doc:"Stop after $(docv) queries (0 = duration only).")
  in
  let frac =
    Arg.(value & opt float 0.001 & info [ "frac" ] ~docv:"F"
           ~doc:"Query box covers about this fraction of the keyspace.")
  in
  let roles =
    Arg.(value & opt (some string) None & info [ "user" ] ~docv:"R1,R2"
           ~doc:"Claimed roles (default: every role in the universe).")
  in
  let metrics_port =
    Arg.(value & opt (some int) None & info [ "metrics-port" ] ~docv:"PORT"
           ~doc:"Expose GET /metrics live during the run.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N") in
  let json_out =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Also write the report (counters + latency histogram) as JSON.")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Replay the TPC-H range-query mix against a running server \
             through the retrying, verifying client; report latency \
             quantiles and shed/timeout/retry accounting. Exits 1 if any \
             response fails verification.")
    Term.(const loadgen
          $ ads_arg ~doc:"Trusted ADS checkpoint used to verify every response." ()
          $ host_arg
          $ port_arg ~doc:"Server port." 7499
          $ users $ qps $ duration $ max_queries $ frac $ roles $ metrics_port
          $ seed $ json_out)

(* --- demo --- *)

let demo () =
  let dir = Filename.temp_file "zkqac" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let records_file = Filename.concat dir "records.txt" in
  write_file records_file
    "1,2|alpha|RoleA\n3,4|bravo|RoleA & RoleB\n5,1|charlie|RoleB\n6,6|delta|RoleA | RoleC\n";
  let ads = Filename.concat dir "ads.zkqac" in
  let vo = Filename.concat dir "vo.zkqac" in
  setup records_file "RoleA,RoleB,RoleC" 2 3 "demo" ads;
  inspect ads;
  query ads "RoleA" "0,0:7,7" vo;
  verify ads vo "RoleA" "0,0:7,7";
  print_endline "demo OK"

let demo_cmd =
  Cmd.v (Cmd.info "demo" ~doc:"Self-contained end-to-end demonstration.")
    Term.(const (fun obs ->
              with_obs obs demo)
          $ obs_term)

let () =
  let info =
    Cmd.info "zkqac" ~version:"1.0"
      ~doc:"Zero-knowledge query authentication with fine-grained access control"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ setup_cmd; inspect_cmd; query_cmd; verify_cmd; attack_cmd;
            audit_cmd; metrics_cmd; serve_cmd; supervise_cmd;
            client_cmd; chaos_cmd; loadgen_cmd; demo_cmd ]))
