(* The serving stack end to end: protocol round-trips, the daemon's typed
   failure modes (shed, deadline, bad request, drain), the full network
   chaos sweep through the fault-injection proxy, and the checkpoint
   loader's behaviour on truncated and bit-flipped ADS files.

   Everything runs in-process against ephemeral ports: Server.Make and the
   chaos proxy are plain values here, so the tests assert on typed results
   rather than parsing CLI output. *)

module Expr = Zkqac_policy.Expr
module Attr = Zkqac_policy.Attr
module Universe = Zkqac_policy.Universe
module Drbg = Zkqac_hashing.Drbg
module Box = Zkqac_core.Box
module Keyspace = Zkqac_core.Keyspace
module Record = Zkqac_core.Record
module Scenario = Zkqac_adversary.Scenario
module VE = Zkqac_util.Verify_error

module Backend = (val Zkqac_group.Backend.instantiate Zkqac_group.Backend.Mock)
module Abs = Zkqac_abs.Abs.Make (Backend)
module Ap2g = Zkqac_core.Ap2g.Make (Backend)
module Ads_io = Zkqac_core.Ads_io.Make (Backend)
module S = Zkqac_server.Server
module Server = Zkqac_server.Server.Make (Backend)
module Proto = Zkqac_server.Proto
module Sockio = Zkqac_server.Sockio
module Client = Zkqac_server.Client
module Cl = Zkqac_server.Client.Make (Backend)
module Chaos = Zkqac_server.Chaos

(* --- fixture: a small signed database saved to a temp checkpoint --- *)

let fixture =
  lazy
    (let drbg = Drbg.create ~seed:"test-server" in
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
       Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"test" records
     in
     let path = Filename.temp_file "zkqac-test-ads" ".zkqac" in
     Ads_io.save ~path ~mvk tree;
     (path, mvk, tree))

let ads_path () =
  let p, _, _ = Lazy.force fixture in
  p

let whole_box = Box.make ~lo:[| 0; 0 |] ~hi:[| 3; 3 |]
let user_a = Attr.set_of_list [ "RoleA" ]

let base_server_cfg =
  {
    S.default_config with
    S.port = 0;
    metrics_port = None;
    threads = 2;
    max_in_flight = 8;
    read_deadline = 1.0;
    write_deadline = 2.0;
    query_deadline = 10.0;
    drain_deadline = 10.0;
  }

let with_server ?(ads = ads_path ()) cfg f =
  match Server.start cfg ~ads with
  | Error e -> Alcotest.failf "server start: %s" e
  | Ok t ->
    Fun.protect
      ~finally:(fun () ->
        Server.begin_drain t;
        Server.wait t)
      (fun () -> f t)

let client_cfg port =
  {
    Client.default_config with
    Client.port;
    connect_timeout = 2.0;
    read_deadline = 1.0;
    write_deadline = 2.0;
    retries = 5;
    base_backoff = 0.01;
    max_backoff = 0.05;
  }

let query_server ?(cfg_of = client_cfg) ?rid port =
  let _, mvk, tree = Lazy.force fixture in
  Cl.query ?req_id:rid (cfg_of port) ~mvk ~universe:(Ap2g.universe tree)
    ?hierarchy:(Ap2g.hierarchy tree) ~user:user_a ~query:whole_box ()

(* --- protocol round-trips --- *)

let test_proto_roundtrip () =
  (* Requests round-trip with and without an id ([0L] asks the server to
     mint one), responses with their footer. *)
  List.iter
    (fun req_id ->
      let req =
        { Proto.req_id; roles = [ "RoleA"; "RoleB" ]; query = whole_box }
      in
      match Proto.decode_request (Proto.encode_request req) with
      | Ok r ->
        Alcotest.(check (list string)) "roles" req.Proto.roles r.Proto.roles;
        Alcotest.(check bool) "query" true
          (Box.equal req.Proto.query r.Proto.query);
        Alcotest.(check bool) "req_id" true (r.Proto.req_id = req_id)
      | Error e -> Alcotest.failf "request decode: %s" (VE.to_string e))
    [ 0L; 0xdeadbeefcafef00dL ];
  let responses =
    [
      Proto.Vo "some vo bytes";
      Proto.Overloaded;
      Proto.Deadline;
      Proto.Bad_request "nope";
      Proto.Server_error "kaput";
    ]
  in
  let footer =
    {
      Proto.f_req_id = 0x0123456789abcdefL;
      f_timing =
        {
          Proto.queue_us = 12;
          relax_us = 34;
          prove_us = 56;
          encode_us = 78;
          total_us = 190;
        };
    }
  in
  List.iter
    (fun resp ->
      match Proto.decode_response (Proto.encode_response ~footer resp) with
      | Ok (r, f) ->
        Alcotest.(check string)
          ("round-trip " ^ Proto.response_code resp)
          (Proto.response_code resp) (Proto.response_code r);
        Alcotest.(check bool) "footer survives" true (f = footer)
      | Error e ->
        Alcotest.failf "response decode [%s]: %s" (Proto.response_code resp)
          (VE.to_string e))
    responses;
  (* Garbage and truncations decode to typed errors, never exceptions. *)
  List.iter
    (fun junk ->
      match Proto.decode_request junk with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "junk request %S decoded" junk)
    [ ""; "x"; "ZKQAC-RSP-1"; String.make 64 '\xff' ];
  List.iter
    (fun junk ->
      match Proto.decode_response junk with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "junk response %S decoded" junk)
    [ ""; "x"; "ZKQAC-REQ-1"; String.make 64 '\x00' ]

(* --- serve round-trip and typed failure modes --- *)

let test_serve_roundtrip () =
  with_server base_server_cfg @@ fun t ->
  (match query_server (Server.port t) with
  | Ok s ->
    Alcotest.(check int) "one attempt" 1 s.Cl.attempts;
    Alcotest.(check int) "RoleA records" 1 (List.length s.Cl.records)
  | Error f -> Alcotest.failf "round-trip: %s" (Client.failure_to_string f));
  Alcotest.(check int) "served" 1 (Server.served t)

(* A daemon counts its ops with nothing switched on: one query's relaxes
   show in [Telemetry] and in the Prometheus exposition. *)
let test_serve_counts_ops () =
  let module T = Zkqac_telemetry.Telemetry in
  let before = T.get T.Abs_relax in
  with_server base_server_cfg @@ fun t ->
  (match query_server (Server.port t) with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "round-trip: %s" (Client.failure_to_string f));
  Alcotest.(check bool) "abs_relax rose" true (T.get T.Abs_relax > before);
  let prefix = {|zkqac_ops_total{op="abs_relax"} |} in
  match
    List.find_opt (String.starts_with ~prefix)
      (String.split_on_char '\n' (Zkqac_telemetry.Metrics.to_prometheus ()))
  with
  | None -> Alcotest.fail "no abs_relax sample in the exposition"
  | Some line ->
    let v = String.sub line (String.length prefix) (String.length line - String.length prefix) in
    Alcotest.(check bool) (line ^ " is nonzero") true (float_of_string v > 0.0)

(* A served connection must cost nothing once it is closed. With the
   trace buffer, flight rings and slowlog pinned to their minimum, the live
   heap after 1,000 more round trips may grow by less than one word per
   connection; a server that kept every handler thread until the drain grew
   by ten. *)
let test_serve_no_per_connection_leak () =
  let module Trace = Zkqac_telemetry.Trace in
  let module Flight = Zkqac_telemetry.Flight in
  let was_tracing = Trace.enabled () and was_flying = Flight.enabled () in
  Trace.enable ~capacity:1 ();
  Flight.disable ();
  Fun.protect
    ~finally:(fun () ->
      if was_tracing then Trace.enable () else Trace.disable ();
      if was_flying then Flight.enable ())
    (fun () ->
      with_server { base_server_cfg with S.slowlog_cap = 1 } @@ fun t ->
      let round_trips n =
        for _ = 1 to n do
          match query_server (Server.port t) with
          | Ok _ -> ()
          | Error f -> Alcotest.failf "round-trip: %s" (Client.failure_to_string f)
        done;
        Thread.delay 0.1
      in
      let live () =
        Gc.compact ();
        (Gc.stat ()).Gc.live_words
      in
      round_trips 500;
      let before = live () in
      round_trips 1000;
      let per_conn = float_of_int (live () - before) /. 1000.0 in
      if per_conn >= 1.0 then
        Alcotest.failf "live heap grew %.2f words per connection" per_conn)

let test_serve_shed () =
  (* max_in_flight = 0 sheds every connection: the client must see typed
     Overloaded transients and exhaust its budget — never a hang. *)
  with_server { base_server_cfg with S.max_in_flight = 0 } @@ fun t ->
  match query_server (Server.port t) with
  | Error (Client.Exhausted { last = "overloaded"; attempts }) ->
    Alcotest.(check int) "budget spent" 6 attempts
  | Error f -> Alcotest.failf "expected overloaded, got %s" (Client.failure_to_string f)
  | Ok _ -> Alcotest.fail "query succeeded through a zero-capacity server"

let test_serve_query_deadline () =
  (* A zero query deadline answers Deadline without running the query:
     typed Deadline response, and the client treats it as transient. *)
  with_server { base_server_cfg with S.query_deadline = 0.0 } @@ fun t ->
  match query_server (Server.port t) with
  | Error (Client.Exhausted { last = "server-deadline"; _ }) -> ()
  | Error f ->
    Alcotest.failf "expected server-deadline, got %s" (Client.failure_to_string f)
  | Ok _ -> Alcotest.fail "query beat a zero deadline"

(* --- the in-flight bound bounds the pool's backlog --- *)

module Flight = Zkqac_telemetry.Flight

(* A 64x64 grid holding 2,048 records: its whole-box query costs enough
   proving to outlast a deadline set to a third of it. *)
let backlog_fixture =
  lazy
    (let drbg = Drbg.create ~seed:"test-server-backlog" in
     let msk, mvk = Abs.setup drbg in
     let universe = Universe.create [ "RoleA"; "RoleB" ] in
     let sk = Abs.keygen drbg msk (Universe.attrs universe) in
     let space = Keyspace.create ~dims:2 ~depth:6 in
     let policies = [| "RoleA"; "RoleB"; "RoleA & RoleB" |] in
     let records =
       List.init 2048 (fun i ->
           Record.make
             ~key:[| 2 * i / 64; 2 * i mod 64 |]
             ~value:(string_of_int i)
             ~policy:(Expr.of_string policies.(i mod 3)))
     in
     let tree =
       Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"backlog" records
     in
     let path = Filename.temp_file "zkqac-test-backlog" ".zkqac" in
     Ads_io.save ~path ~mvk tree;
     (path, mvk, tree))

let test_serve_backlog_bounded () =
  (* One worker, a deadline of a third of a whole-box query, and a burst of
     eight whole-box queries: the first job runs over budget, and every
     job a worker picks up after its deadline returns without proving. A
     one-cell query sent after the burst then finds no backlog. When a
     handler answered Deadline without waiting for its job, the burst's
     jobs stayed queued and ran in full, and the one-cell query missed its
     deadline behind them. *)
  let path, mvk, tree = Lazy.force backlog_fixture in
  let big = Box.make ~lo:[| 0; 0 |] ~hi:[| 63; 63 |] in
  let whole_box_s =
    let drbg = Drbg.create ~seed:"backlog-calibration" in
    let once () =
      snd
        (Zkqac_parallel.Pool.time (fun () ->
             Ap2g.range_vo drbg ~mvk tree ~user:user_a big))
    in
    ignore (once ());
    once ()
  in
  let was_flying = Flight.enabled () in
  Flight.enable ();
  Fun.protect ~finally:(fun () -> if not was_flying then Flight.disable ())
  @@ fun () ->
  with_server ~ads:path
    {
      base_server_cfg with
      S.threads = 1;
      max_in_flight = 16;
      query_deadline = whole_box_s /. 3.0;
    }
  @@ fun t ->
  let query ~rid box =
    Cl.query ~req_id:rid
      { (client_cfg (Server.port t)) with Client.retries = 0; read_deadline = 30.0 }
      ~mvk ~universe:(Ap2g.universe tree) ?hierarchy:(Ap2g.hierarchy tree)
      ~user:user_a ~query:box ()
  in
  let rids = List.init 8 (fun i -> Int64.of_int (0xb0b0_0000 + i)) in
  List.map (fun rid -> Thread.create (fun () -> ignore (query ~rid big)) ()) rids
  |> List.iter Thread.join;
  (match query ~rid:0xb0b0_ffffL (Box.make ~lo:[| 0; 0 |] ~hi:[| 0; 0 |]) with
  | Ok _ -> ()
  | Error f ->
    Alcotest.failf "one-cell query after the burst: %s" (Client.failure_to_string f));
  let expiries at =
    List.length
      (List.filter
         (fun (e : Flight.event) ->
           e.Flight.name = "server.query_deadline"
           && e.Flight.detail = at && List.mem e.Flight.req_id rids)
         (Flight.events ()))
  in
  let ran = expiries "ran" and queued = expiries "queued" in
  Alcotest.(check bool) (Printf.sprintf "at most one job ran over budget (%d)" ran)
    true (ran <= 1);
  Alcotest.(check bool)
    (Printf.sprintf "the other jobs expired queued (%d)" queued)
    true (queued >= List.length rids - 1)

(* The daemon takes no trace of its own: its spans live in the span
   store's rings, and no trace view holds or drops any of them. *)
let test_serve_retains_no_spans () =
  let module Trace = Zkqac_telemetry.Trace in
  let was_tracing = Trace.enabled () in
  Trace.disable ();
  Trace.reset ();
  Fun.protect ~finally:(fun () -> if was_tracing then Trace.enable ())
  @@ fun () ->
  with_server base_server_cfg @@ fun t ->
  for _ = 1 to 50 do
    match query_server (Server.port t) with
    | Ok _ -> ()
    | Error f -> Alcotest.failf "round-trip: %s" (Client.failure_to_string f)
  done;
  Alcotest.(check int) "no spans retained" 0 (Trace.span_count ());
  Alcotest.(check int) "no spans dropped" 0 (Trace.dropped ())

let test_serve_read_deadline () =
  (* A mute client is disconnected once the read deadline passes — the
     server never waits forever on a stalled request. *)
  with_server base_server_cfg @@ fun t ->
  let fd =
    Sockio.connect ~host:"127.0.0.1" ~port:(Server.port t) ~timeout:2.0
  in
  Fun.protect
    ~finally:(fun () -> Sockio.close_noerr fd)
    (fun () ->
      let t0 = Unix.gettimeofday () in
      (match Sockio.read_frame fd ~deadline:(Sockio.deadline_after 5.0)
               ~max_bytes:1024 with
      | _ -> Alcotest.fail "server answered an empty request"
      | exception Sockio.Fault _ -> ());
      Alcotest.(check bool) "dropped within ~read_deadline" true
        (Unix.gettimeofday () -. t0 < 4.0))

let test_serve_bad_request () =
  with_server base_server_cfg @@ fun t ->
  let exchange payload =
    let fd =
      Sockio.connect ~host:"127.0.0.1" ~port:(Server.port t) ~timeout:2.0
    in
    Fun.protect
      ~finally:(fun () -> Sockio.close_noerr fd)
      (fun () ->
        match
          let dl = Sockio.deadline_after 5.0 in
          Sockio.write_frame fd ~deadline:dl payload;
          Sockio.read_frame fd ~deadline:dl ~max_bytes:(1 lsl 20)
        with
        | frame -> (
          match Proto.decode_response frame with
          | Ok (r, _) -> `Resp r
          | Error e -> Alcotest.failf "undecodable response: %s" (VE.to_string e))
        | exception Sockio.Fault f -> `Fault f)
  in
  (* Undecodable request: typed Bad_request, connection still served. *)
  (match exchange "complete garbage" with
  | `Resp (Proto.Bad_request _) -> ()
  | `Resp r -> Alcotest.failf "garbage got %s" (Proto.response_code r)
  | `Fault f -> Alcotest.failf "garbage: %s" (Sockio.fault_code f));
  (* Oversized frame: refused before the payload is even read. The refusal
     may close the connection while we are still writing our 64K, so a
     typed transport fault is as acceptable as reading the Bad_request. *)
  (match exchange (String.make (Proto.max_request_bytes + 1) 'x') with
  | `Resp (Proto.Bad_request _) | `Fault _ -> ()
  | `Resp r -> Alcotest.failf "oversized got %s" (Proto.response_code r));
  (* A query outside the keyspace is terminal, not a retry loop. *)
  let outside = Box.make ~lo:[| 10; 10 |] ~hi:[| 11; 11 |] in
  match
    exchange
      (Proto.encode_request
         { Proto.req_id = 0L; roles = [ "RoleA" ]; query = outside })
  with
  | `Resp (Proto.Bad_request d) ->
    Alcotest.(check string) "reason" "query-outside-space" d
  | `Resp r -> Alcotest.failf "outside-space got %s" (Proto.response_code r)
  | `Fault f -> Alcotest.failf "outside-space: %s" (Sockio.fault_code f)

let test_serve_drain () =
  let cfg = base_server_cfg in
  match Server.start cfg ~ads:(ads_path ()) with
  | Error e -> Alcotest.failf "server start: %s" e
  | Ok t ->
    (match query_server (Server.port t) with
    | Ok _ -> ()
    | Error f -> Alcotest.failf "pre-drain query: %s" (Client.failure_to_string f));
    let port = Server.port t in
    Server.begin_drain t;
    Server.wait t;
    Alcotest.(check int) "served across drain" 1 (Server.served t);
    (* The listener is gone: a new connection must fail fast. *)
    (match Sockio.connect ~host:"127.0.0.1" ~port ~timeout:1.0 with
    | fd ->
      (* Accepted by a lingering backlog at worst — it must still be dead. *)
      Fun.protect
        ~finally:(fun () -> Sockio.close_noerr fd)
        (fun () ->
          match
            Sockio.read_frame fd ~deadline:(Sockio.deadline_after 1.0)
              ~max_bytes:1024
          with
          | _ -> Alcotest.fail "drained server answered"
          | exception Sockio.Fault _ -> ())
    | exception Sockio.Fault _ -> ())

(* --- the chaos sweep: every network scenario, typed error or retry --- *)

let run_chaos_scenario (sc : Scenario.t) =
  with_server base_server_cfg @@ fun t ->
  let chaos_cfg =
    {
      Chaos.default_config with
      Chaos.listen_port = 0;
      upstream_port = Server.port t;
      scenario = sc.Scenario.name;
      faults = 1;
      (* Short enough to keep the sweep fast, long enough to overrun the
         client's 1s read deadline. *)
      stall = 2.0;
      trickle_delay = 0.3;
      cut_after = 10;
      seed = 99;
    }
  in
  match Chaos.start chaos_cfg with
  | Error e -> Alcotest.failf "%s: chaos start: %s" sc.Scenario.name e
  | Ok proxy ->
    Fun.protect
      ~finally:(fun () -> Chaos.stop proxy)
      (fun () ->
        let outcome = query_server (Chaos.port proxy) in
        Alcotest.(check int)
          (sc.Scenario.name ^ " injected once")
          1 (Chaos.injected proxy);
        match (sc.Scenario.name, outcome) with
        | "net-corrupt", Error (Client.Rejected _) ->
          (* A complete-but-lying frame must die as a typed verification
             rejection — and must never be retried. *)
          ()
        | "net-corrupt", Ok s ->
          (* Corruption that garbles the envelope itself is transport: the
             retry reached the clean upstream and verified. *)
          Alcotest.(check bool)
            "corrupt retried" true (s.Cl.attempts > 1)
        | _, Ok s ->
          (* Every pure-transport fault: first attempt burned by the
             injector, retry reaches the clean upstream, VO verifies. *)
          Alcotest.(check bool)
            (sc.Scenario.name ^ " retried")
            true (s.Cl.attempts > 1)
        | name, Error f ->
          Alcotest.failf "%s: %s" name (Client.failure_to_string f))

let test_chaos_sweep () =
  Alcotest.(check bool)
    "network scenarios registered" true
    (List.length Scenario.network >= 6);
  List.iter run_chaos_scenario Scenario.network

let test_chaos_registry () =
  (* Transport scenarios are findable but stay out of the VO-tamper list:
     the attack matrix over VO fixtures is unchanged. *)
  List.iter
    (fun name ->
      match Scenario.find name with
      | Some sc ->
        Alcotest.(check bool)
          (name ^ " category is transport") true
          (sc.Scenario.category = Scenario.Transport)
      | None -> Alcotest.failf "%s not found" name)
    Scenario.network_names;
  List.iter
    (fun (sc : Scenario.t) ->
      Alcotest.(check bool)
        (sc.Scenario.name ^ " not in VO list")
        false
        (List.mem sc.Scenario.name Scenario.names))
    Scenario.network

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* A claimed role the ADS does not know, or the pseudo role, is refused
   before any job is submitted: the client makes one attempt and gets a
   typed Bad_request, which it never retries. *)
let test_serve_unknown_role () =
  with_server base_server_cfg @@ fun t ->
  let _, mvk, tree = Lazy.force fixture in
  List.iter
    (fun role ->
      Zkqac_telemetry.Metrics.reset ();
      match
        Cl.query (client_cfg (Server.port t)) ~mvk ~universe:(Ap2g.universe tree)
          ?hierarchy:(Ap2g.hierarchy tree)
          ~user:(Attr.set_of_list [ "RoleA"; role ])
          ~query:whole_box ()
      with
      | Error (Client.Bad_request d) ->
        Alcotest.(check string) (role ^ " reason") "unknown-role" d;
        Alcotest.(check bool) (role ^ " one attempt") true
          (contains_sub
             (Zkqac_telemetry.Metrics.to_prometheus ())
             "zkqac_server_requests_total{outcome=\"bad-request\"} 1")
      | Error f -> Alcotest.failf "%s: %s" role (Client.failure_to_string f)
      | Ok _ -> Alcotest.failf "%s: served" role)
    [ "RoleZ"; Attr.pseudo_role ];
  Alcotest.(check int) "nothing served" 0 (Server.served t)

(* --- checkpoint robustness: truncation and byte flips --- *)

let read_file path =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  data

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let load_mutant data =
  let path = Filename.temp_file "zkqac-test-mutant" ".zkqac" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      write_file path data;
      Ads_io.load ~path)

let test_ads_truncation () =
  let whole = read_file (ads_path ()) in
  let n = String.length whole in
  List.iter
    (fun keep ->
      match load_mutant (String.sub whole 0 keep) with
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "truncation at %d names the file" keep)
          true
          (contains_sub msg "zkqac-test-mutant")
      | Ok _ -> Alcotest.failf "truncation at %d bytes loaded" keep)
    [ 0; 1; 4; n / 4; n / 2; n - 1 ]

let test_ads_byte_flips () =
  let whole = read_file (ads_path ()) in
  let n = String.length whole in
  (* A flip anywhere must surface as a typed error with a stable code —
     never an escaped exception, and never a silently-accepted checkpoint
     (the body checksum covers every byte after the header). *)
  List.iter
    (fun off ->
      let b = Bytes.of_string whole in
      Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x41));
      match load_mutant (Bytes.to_string b) with
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "flip at %d carries a typed code" off)
          true
          (contains_sub msg "[")
      | Ok _ -> Alcotest.failf "flip at %d accepted" off)
    [ 0; 1; 7; 16; n / 3; n / 2; (2 * n) / 3; n - 2; n - 1 ]

let test_ads_typed_decode () =
  (* Raw garbage never parses a length-prefixed field: the Wire reader
     raises before the magic comparison, and the catch-all types it. *)
  (match Ads_io.decode_typed "not an ads file at all" with
  | Error e -> Alcotest.(check string) "raw garbage" "malformed" (VE.code e)
  | Ok _ -> Alcotest.fail "garbage decoded");
  (* A well-formed bytes field holding the wrong magic reaches the explicit
     not-an-ADS-file branch. *)
  let wrong_magic =
    let w = Zkqac_util.Wire.writer () in
    Zkqac_util.Wire.bytes w "NOT-A-ZKQAC-FILE";
    Zkqac_util.Wire.contents w
  in
  (match Ads_io.decode_typed wrong_magic with
  | Error e -> Alcotest.(check string) "wrong magic" "invalid-shape" (VE.code e)
  | Ok _ -> Alcotest.fail "wrong magic decoded");
  let whole = read_file (ads_path ()) in
  match Ads_io.decode_typed (String.sub whole 0 (String.length whole / 2)) with
  | Error e ->
    Alcotest.(check bool)
      "truncation is typed" true
      (List.mem (VE.code e)
         [ "malformed"; "malformed-vo"; "digest-mismatch"; "limit-exceeded" ])
  | Ok _ -> Alcotest.fail "truncated body decoded"

(* --- signature frames at load: checked there, elements decoded later --- *)

(* A checkpoint around [body] with both digests right, as [Ads_io.save]
   writes it. *)
let seal ~mvk body =
  let module Wire = Zkqac_util.Wire in
  let digest = Zkqac_hashing.Sha256.digest in
  let w = Wire.writer () in
  Wire.bytes w "ZKQAC-ADS-FILE-v2";
  Wire.u32 w 0;
  Wire.bytes w (Abs.mvk_to_bytes mvk);
  Wire.bytes w (digest body);
  Wire.bytes w body;
  let payload = Wire.contents w in
  let f = Wire.writer () in
  Wire.bytes f (digest payload);
  Wire.bytes f "ZKQAC-ADS-COMMIT-v2";
  payload ^ Wire.contents f

let index_of hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then Alcotest.fail "needle not found"
    else if String.sub hay i nn = needle then i
    else go (i + 1)
  in
  go 0

(* The fixture's body, and the offset in it of the APP signature of the
   leaf at [key] (its tau makes the encoding unique). *)
let body_and_leaf_signature key =
  let _, _, tree = Lazy.force fixture in
  let rec leaf (n : Ap2g.Vo.node) =
    match n.content with
    | Leaf r when r.Record.key = key -> Some n
    | Children c -> List.find_map leaf c
    | _ -> None
  in
  let node = Option.get (leaf (Ap2g.root tree)) in
  let body = Ap2g.to_bytes tree in
  let sigma = Abs.to_bytes (Abs.of_stored node.signature) in
  (body, index_of body sigma, sigma)

let g_size = String.length (Backend.G.to_bytes Backend.G.g)

let u16_at s i = (Char.code s.[i] lsl 8) lor Char.code s.[i + 1]

let patched s at bytes =
  let b = Bytes.of_string s in
  Bytes.blit_string bytes 0 b at (String.length bytes);
  Bytes.to_string b

let u16_bytes n = String.init 2 (fun i -> Char.chr ((n lsr (8 * (1 - i))) land 0xff))

(* A frame that does not add up stays [Malformed] at load, though both
   digests hold: a tau or an S run past the signature's end, one P too
   many, or a byte after the last P. *)
let test_ads_bad_signature_frame () =
  let _, mvk, _ = Lazy.force fixture in
  let body, at, sigma = body_and_leaf_signature [| 0; 1 |] in
  let n = String.length sigma in
  let s_at = 2 + u16_at sigma 0 + (2 * g_size) in
  let p_at = s_at + 2 + (u16_at sigma s_at * g_size) in
  let count off v = patched body (at + off) (u16_bytes v) in
  let trailing =
    let w = Zkqac_util.Wire.writer () in
    Zkqac_util.Wire.bytes w (sigma ^ "\000");
    String.sub body 0 (at - 4) ^ Zkqac_util.Wire.contents w
    ^ String.sub body (at + n) (String.length body - at - n)
  in
  List.iter
    (fun (what, body) ->
      match Ads_io.decode_typed (seal ~mvk body) with
      | Error (VE.Malformed _) -> ()
      | Error e -> Alcotest.failf "%s: wrong error %s" what (VE.to_string e)
      | Ok _ -> Alcotest.failf "%s: a bad frame loaded" what)
    [ ("tau length", count 0 0xffff);
      ("S count", count s_at 0xffff);
      ("P count", count p_at (u16_at sigma p_at + 1));
      ("trailing byte", trailing) ]

(* Framed garbage: an element that does not decode loads, since the SP
   decodes a signature only when it answers its node. A query that
   answers the node gets [Server_error]; one that does not is served and
   verifies, and the server keeps serving. *)
let test_ads_garbage_element_served () =
  let _, mvk, _ = Lazy.force fixture in
  let body, at, sigma = body_and_leaf_signature [| 0; 1 |] in
  (* Y's last byte is mock padding, which must be zero. *)
  let y_last = at + 2 + u16_at sigma 0 + g_size - 1 in
  let path = Filename.temp_file "zkqac-test-garbage" ".zkqac" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      write_file path (seal ~mvk (patched body y_last "\001"));
      (match Ads_io.load ~path with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "framed garbage refused at load: %s" e);
      with_server ~ads:path base_server_cfg @@ fun t ->
      let ask box =
        let fd = Sockio.connect ~host:"127.0.0.1" ~port:(Server.port t) ~timeout:2.0 in
        Fun.protect
          ~finally:(fun () -> Sockio.close_noerr fd)
          (fun () ->
            let dl = Sockio.deadline_after 5.0 in
            Sockio.write_frame fd ~deadline:dl
              (Proto.encode_request { Proto.req_id = 0L; roles = [ "RoleA" ]; query = box });
            match Proto.decode_response (Sockio.read_frame fd ~deadline:dl ~max_bytes:(1 lsl 24)) with
            | Ok (r, _) -> r
            | Error e -> Alcotest.failf "undecodable response: %s" (VE.to_string e))
      in
      let elsewhere = Box.make ~lo:[| 2; 2 |] ~hi:[| 4; 4 |] in
      let check_elsewhere () =
        match ask elsewhere with
        | Proto.Vo vo ->
          let _, _, tree = Lazy.force fixture in
          let vo = Result.get_ok (Ap2g.Vo.decode vo) in
          Alcotest.(check bool) "the other query verifies" true
            (Result.is_ok
               (Ap2g.verify ~mvk ~t_universe:(Ap2g.universe tree) ~user:user_a
                  ~query:elsewhere vo))
        | r -> Alcotest.failf "the other query got %s" (Proto.response_code r)
      in
      check_elsewhere ();
      (match ask (Box.make ~lo:[| 0; 0 |] ~hi:[| 2; 2 |]) with
      | Proto.Server_error _ -> ()
      | r -> Alcotest.failf "the garbled node got %s" (Proto.response_code r));
      check_elsewhere ())

(* --- already-expired Sockio deadlines (fail fast, never block) --- *)

let test_sockio_expired_deadline () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Sockio.close_noerr a;
      Sockio.close_noerr b)
    (fun () ->
      List.iter
        (fun budget ->
          let t0 = Unix.gettimeofday () in
          (match
             Sockio.read_frame a
               ~deadline:(Sockio.deadline_after budget)
               ~max_bytes:1024
           with
          | _ -> Alcotest.fail "read succeeded past an expired deadline"
          | exception Sockio.Fault Sockio.Timeout -> ()
          | exception Sockio.Fault f ->
            Alcotest.failf "expected Timeout, got %s" (Sockio.fault_code f));
          (match
             Sockio.write_frame a
               ~deadline:(Sockio.deadline_after budget)
               "payload"
           with
          | () -> Alcotest.fail "write succeeded past an expired deadline"
          | exception Sockio.Fault Sockio.Timeout -> ()
          | exception Sockio.Fault f ->
            Alcotest.failf "expected Timeout, got %s" (Sockio.fault_code f));
          Alcotest.(check bool)
            (Printf.sprintf "budget %g fails fast" budget)
            true
            (Unix.gettimeofday () -. t0 < 0.5))
        [ 0.0; -1.0; -3600.0 ])

(* --- the drain audit entry survives a drain whose own budget expires --- *)

module Audit = Zkqac_audit.Audit

let test_drain_audit_entry () =
  let log = Filename.temp_file "zkqac-drain-audit" ".log" in
  Sys.remove log;
  (match Audit.enable ~path:log () with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Fun.protect ~finally:Audit.disable (fun () ->
      (* query_deadline 0 answers Deadline without submitting the query;
         drain_deadline 0 makes the drain's wait for in-flight requests
         expire immediately. The final [drain] audit entry must be written
         regardless. *)
      match
        Server.start
          { base_server_cfg with S.query_deadline = 0.0; drain_deadline = 0.0 }
          ~ads:(ads_path ())
      with
      | Error e -> Alcotest.failf "server start: %s" e
      | Ok t ->
        (match query_server (Server.port t) with
        | Ok _ -> Alcotest.fail "query beat a zero deadline"
        | Error _ -> ());
        Server.begin_drain t;
        Server.wait t);
  match Audit.verify_file log with
  | Error b ->
    Alcotest.failf "audit log broken at %d: %s" b.Audit.entry b.Audit.reason
  | Ok entries ->
    let kinds = List.map (fun (e : Audit.entry) -> e.Audit.kind) entries in
    Alcotest.(check bool) "recovered entry first" true
      (List.mem "recovered" kinds);
    Alcotest.(check bool) "drain entry written despite expired drain budget"
      true
      (List.mem "drain" kinds)

(* --- /healthz + /readyz --- *)

module Mh = Zkqac_server.Metrics_http

let http_get port path =
  let fd = Sockio.connect ~host:"127.0.0.1" ~port ~timeout:2.0 in
  Fun.protect
    ~finally:(fun () -> Sockio.close_noerr fd)
    (fun () ->
      let req = "GET " ^ path ^ " HTTP/1.0\r\n\r\n" in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 256 in
      let chunk = Bytes.create 1024 in
      let rec go () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error _ -> ()
      in
      go ();
      Buffer.contents buf)

let test_readyz_flip () =
  let ready = ref false in
  match Mh.start ~ready:(fun () -> !ready) ~port:0 () with
  | Error e -> Alcotest.failf "endpoint start: %s" e
  | Ok h ->
    Fun.protect
      ~finally:(fun () -> Mh.stop h)
      (fun () ->
        let p = Mh.port h in
        Alcotest.(check bool) "503 while starting" true
          (contains_sub (http_get p "/readyz") "503");
        Alcotest.(check bool) "healthz alive regardless" true
          (contains_sub (http_get p "/healthz") "200 OK");
        ready := true;
        Alcotest.(check bool) "200 once ready" true
          (contains_sub (http_get p "/readyz") "ready");
        Alcotest.(check bool) "unknown path 404" true
          (contains_sub (http_get p "/nope") "404"))

(* --- the supervisor's restart loop, with throwaway shell children --- *)

module Supervise = Zkqac_server.Supervise

let test_supervise_restart_loop () =
  let pid_file = Filename.temp_file "zkqac-sup" ".pid" in
  let cfg =
    {
      Supervise.max_restarts = 2;
      base_backoff = 0.005;
      max_backoff = 0.01;
      pid_file = Some pid_file;
    }
  in
  (* A child that always crashes: the budget is spent, the supervisor gives
     up with exit 1, and every restart is counted and metered. *)
  let sup = Supervise.create cfg in
  let code = Supervise.run sup ~argv:[| "/bin/sh"; "-c"; "exit 7" |] in
  Alcotest.(check int) "budget exhausted exits 1" 1 code;
  Alcotest.(check int) "restarts counted" 2 (Supervise.restarts sup);
  Alcotest.(check bool) "pid published" true
    (String.length (String.trim (read_file pid_file)) > 0);
  Alcotest.(check bool) "restart metric exported" true
    (contains_sub
       (Zkqac_telemetry.Metrics.to_prometheus ())
       "zkqac_supervisor_restarts_total{cause=\"exit-7\"} 2");
  (* A child that completes its drain: supervision ends quietly with it. *)
  let clean = Supervise.create { cfg with Supervise.pid_file = None } in
  Alcotest.(check int) "clean exit passes through" 0
    (Supervise.run clean ~argv:[| "/bin/sh"; "-c"; "exit 0" |]);
  Alcotest.(check int) "no restart for a clean exit" 0 (Supervise.restarts clean)

let test_server_health_endpoints () =
  with_server { base_server_cfg with S.metrics_port = Some 0 } @@ fun t ->
  Alcotest.(check bool) "ready after start" true (Server.ready t);
  Alcotest.(check int) "fresh checkpoint epoch" 0 (Server.recovered_epoch t);
  match Server.metrics_port t with
  | None -> Alcotest.fail "metrics endpoint missing"
  | Some p ->
    Alcotest.(check bool) "readyz after recovery" true
      (contains_sub (http_get p "/readyz") "ready");
    Alcotest.(check bool) "exposition served" true
      (contains_sub (http_get p "/metrics") "zkqac_")

(* --- request correlation: the retired "-1" envelopes --- *)

module Slowlog = Zkqac_server.Slowlog
module Wire = Zkqac_util.Wire

(* A frame under a retired magic string, with [body] written after it. *)
let retired_frame magic body =
  let w = Wire.writer () in
  Wire.bytes w magic;
  body w;
  Wire.contents w

let test_v1_request_refused () =
  (* A request under the retired v1 magic (no id) is a typed Bad_request,
     and the footer still carries the id the server minted for its logs. *)
  with_server base_server_cfg @@ fun t ->
  let fd =
    Sockio.connect ~host:"127.0.0.1" ~port:(Server.port t) ~timeout:2.0
  in
  Fun.protect
    ~finally:(fun () -> Sockio.close_noerr fd)
    (fun () ->
      let dl = Sockio.deadline_after 5.0 in
      Sockio.write_frame fd ~deadline:dl
        (retired_frame "ZKQAC-REQ-1" (fun w ->
             Wire.u32 w 1;
             Wire.bytes w "RoleA";
             Wire.u8 w 2;
             List.iter (Wire.u32 w) [ 0; 0; 3; 3 ]));
      let frame = Sockio.read_frame fd ~deadline:dl ~max_bytes:(1 lsl 24) in
      match Proto.decode_response frame with
      | Ok (Proto.Bad_request d, f) ->
        Alcotest.(check string) "typed reason" "malformed" d;
        Alcotest.(check bool) "footer carries a minted id" true
          (f.Proto.f_req_id <> 0L)
      | Ok (r, _) -> Alcotest.failf "expected bad-request, got %s" (Proto.response_code r)
      | Error e -> Alcotest.failf "response decode: %s" (VE.to_string e));
  Alcotest.(check int) "observed by the sampler" 1
    (Slowlog.observed (Server.slowlog t))

let test_v1_response_garbled () =
  (* A responder answering under the retired v1 magic (no footer) is line
     noise to the client: a transient garbled-response, never a success. *)
  let _, mvk, tree = Lazy.force fixture in
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listen_fd 4;
  let port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> Alcotest.fail "no port"
  in
  let responder =
    Thread.create
      (fun () ->
        match Unix.accept listen_fd with
        | exception Unix.Unix_error _ -> ()
        | fd, _ ->
          Fun.protect
            ~finally:(fun () -> Sockio.close_noerr fd)
            (fun () ->
              let dl = Sockio.deadline_after 5.0 in
              ignore (Sockio.read_frame fd ~deadline:dl ~max_bytes:(1 lsl 20) : string);
              Sockio.write_frame fd ~deadline:dl
                (retired_frame "ZKQAC-RSP-1" (fun w ->
                     Wire.u8 w 0;
                     Wire.bytes w "vo"))))
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      Thread.join responder)
    (fun () ->
      match
        Cl.query { (client_cfg port) with Client.retries = 0 } ~mvk
          ~universe:(Ap2g.universe tree) ?hierarchy:(Ap2g.hierarchy tree)
          ~user:user_a ~query:whole_box ()
      with
      | Error (Client.Exhausted { attempts; last }) ->
        Alcotest.(check int) "one attempt" 1 attempts;
        Alcotest.(check string) "transient reason" "garbled-response" last
      | Error f -> Alcotest.failf "v1 responder: %s" (Client.failure_to_string f)
      | Ok _ -> Alcotest.fail "a v1 response was accepted")

(* --- tail sampling: forced-slow and forced-error determinism --- *)

let find_incident slowlog rid =
  List.filter
    (fun (i : Slowlog.incident) -> i.Slowlog.i_req_id = rid)
    (Slowlog.incidents slowlog)

let span_names (i : Slowlog.incident) =
  List.map
    (fun (s : Zkqac_telemetry.Flight.event) -> s.Zkqac_telemetry.Flight.name)
    i.Slowlog.i_spans

let test_slowlog_forced_slow () =
  (* A fixed 40ms threshold plus a 120ms injected delay on the first decoded
     request: exactly that request is sampled, with a complete span tree
     (root, the injected stall, the pool worker), and a fast follow-up stays
     out. Determinism is the point — no quantile warm-up in this mode. *)
  let rid = 0x5105105105105105L in
  with_server
    {
      base_server_cfg with
      S.slow_threshold_ms = 40.0;
      slow_inject = Some (0.12, 1);
    }
  @@ fun t ->
  (match query_server ~rid (Server.port t) with
  | Ok s -> Alcotest.(check bool) "slow query still verifies" true (s.Cl.req_id = rid)
  | Error f -> Alcotest.failf "forced-slow query: %s" (Client.failure_to_string f));
  (match query_server (Server.port t) with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "fast query: %s" (Client.failure_to_string f));
  let slowlog = Server.slowlog t in
  Alcotest.(check int) "both observed" 2 (Slowlog.observed slowlog);
  Alcotest.(check int) "exactly the slow one sampled" 1 (Slowlog.sampled slowlog);
  match find_incident slowlog rid with
  | [ inc ] ->
    Alcotest.(check string) "kept as slow" "slow" inc.Slowlog.i_reason;
    Alcotest.(check string) "outcome ok" "ok" inc.Slowlog.i_outcome;
    Alcotest.(check bool) "client id, not minted" false inc.Slowlog.i_minted;
    Alcotest.(check bool) "slower than the injection" true
      (inc.Slowlog.i_total_ms >= 120.0);
    let names = span_names inc in
    List.iter
      (fun expected ->
        Alcotest.(check bool) (expected ^ " span present") true
          (List.mem expected names))
      [ "server.request"; "server.slow_inject"; "pool.worker" ];
    (* Every collected span belongs to this request's tree. *)
    let root_id =
      (List.hd inc.Slowlog.i_spans).Zkqac_telemetry.Flight.root
    in
    List.iter
      (fun (s : Zkqac_telemetry.Flight.event) ->
        Alcotest.(check int) "span in tree" root_id
          s.Zkqac_telemetry.Flight.root)
      inc.Slowlog.i_spans;
    (match inc.Slowlog.i_timing with
    | Some tm ->
      Alcotest.(check bool) "server total covers the stall" true
        (tm.Proto.total_us >= 120_000)
    | None -> Alcotest.fail "slow incident lost its timing split")
  | l -> Alcotest.failf "expected exactly one incident for the id, got %d"
           (List.length l)

let test_slowlog_forced_error () =
  (* A known id on a query outside the keyspace: the typed error is sampled
     under that id exactly once; the fast success before it is not. *)
  let rid = 0x0badc0ffee000001L in
  with_server base_server_cfg @@ fun t ->
  (match query_server (Server.port t) with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "fast query: %s" (Client.failure_to_string f));
  let outside = Box.make ~lo:[| 10; 10 |] ~hi:[| 11; 11 |] in
  let fd =
    Sockio.connect ~host:"127.0.0.1" ~port:(Server.port t) ~timeout:2.0
  in
  Fun.protect
    ~finally:(fun () -> Sockio.close_noerr fd)
    (fun () ->
      let dl = Sockio.deadline_after 5.0 in
      Sockio.write_frame fd ~deadline:dl
        (Proto.encode_request
           { Proto.req_id = rid; roles = [ "RoleA" ]; query = outside });
      match Sockio.read_frame fd ~deadline:dl ~max_bytes:(1 lsl 20) with
      | frame -> (
        match Proto.decode_response frame with
        | Ok (Proto.Bad_request _, f) ->
          Alcotest.(check bool) "footer echoes the id" true
            (f.Proto.f_req_id = rid)
        | Ok (r, _) -> Alcotest.failf "expected Bad_request, got %s"
                         (Proto.response_code r)
        | Error e -> Alcotest.failf "response decode: %s" (VE.to_string e)));
  let slowlog = Server.slowlog t in
  Alcotest.(check int) "only the error sampled" 1 (Slowlog.sampled slowlog);
  match find_incident slowlog rid with
  | [ inc ] ->
    Alcotest.(check string) "kept as error" "error" inc.Slowlog.i_reason;
    Alcotest.(check string) "typed outcome" "bad-request" inc.Slowlog.i_outcome;
    Alcotest.(check bool) "root span collected" true
      (List.mem "server.request" (span_names inc))
  | l -> Alcotest.failf "expected exactly one error incident, got %d"
           (List.length l)

(* --- incident completeness --- *)

(* An incident's tree as (name, parent name) edges, sorted: the shape the
   slowlog kept before it gathered trees from the span store. *)
let tree_edges (i : Slowlog.incident) =
  let name_of id =
    match List.find_opt (fun (s : Flight.event) -> s.Flight.seq = id) i.Slowlog.i_spans with
    | Some s -> s.Flight.name
    | None -> "-"
  in
  List.sort compare
    (List.map
       (fun (s : Flight.event) -> (s.Flight.name, name_of s.Flight.parent))
       i.Slowlog.i_spans)

let test_incident_complete () =
  let rid = 0x00c0_11ec_7ed0_0001L in
  with_server
    { base_server_cfg with S.slow_threshold_ms = 40.0; slow_inject = Some (0.06, 1) }
  @@ fun t ->
  (match query_server ~rid (Server.port t) with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "forced-slow query: %s" (Client.failure_to_string f));
  match find_incident (Server.slowlog t) rid with
  | [ inc ] ->
    Alcotest.(check bool) "marked complete" true inc.Slowlog.i_complete;
    let root = List.hd inc.Slowlog.i_spans in
    Alcotest.(check string) "root first" "server.request" root.Flight.name;
    List.iter
      (fun (s : Flight.event) ->
        Alcotest.(check int) "one root" root.Flight.seq s.Flight.root)
      inc.Slowlog.i_spans;
    let relaxes =
      match List.assoc_opt "relax_calls"
              (List.find (fun (s : Flight.event) -> s.Flight.name = "sp.query")
                 inc.Slowlog.i_spans).Flight.attrs with
      | Some (Zkqac_telemetry.Trace.Int n) -> n
      | _ -> Alcotest.fail "sp.query lost its relax_calls"
    in
    Alcotest.(check (list (pair string string))) "the served tree"
      (List.sort compare
         ([ ("server.request", "-"); ("server.slow_inject", "server.request");
            ("pool.worker", "server.request"); ("sp.query", "pool.worker");
            ("sp.relax", "sp.query"); ("vo.encode", "pool.worker") ]
         @ List.init relaxes (fun _ -> ("abs.relax", "sp.relax"))))
      (tree_edges inc)
  | l -> Alcotest.failf "expected one incident, got %d" (List.length l)

(* A request that stores more records on one domain than a ring holds
   overwrites its own start: the incident says so. *)
let test_incident_incomplete () =
  let slowlog = Slowlog.create ~threshold_ms:1.0 () in
  let request children =
    let root =
      Zkqac_telemetry.Trace.with_span "req.root" ~parent:Zkqac_telemetry.Trace.none
      @@ fun root ->
      for _ = 1 to children do
        Zkqac_telemetry.Trace.with_span ~parent:root "req.child" (fun _ -> ())
      done;
      Zkqac_telemetry.Trace.ctx_id root
    in
    ignore
      (Slowlog.observe slowlog ~root ~req_id:(Int64.of_int children) ~minted:false
         ~conn:0 ~outcome:"server-error" ~total_ms:0.0 ()
        : bool);
    match find_incident slowlog (Int64.of_int children) with
    | [ inc ] -> inc
    | _ -> Alcotest.fail "incident not kept"
  in
  let small = request 3 in
  Alcotest.(check bool) "a short request is complete" true small.Slowlog.i_complete;
  Alcotest.(check int) "all of it gathered" 4 (List.length small.Slowlog.i_spans);
  let big = request (Flight.capacity () + 1) in
  Alcotest.(check bool) "past the ring's depth: incomplete" false big.Slowlog.i_complete;
  Alcotest.(check bool) "the root was overwritten" true
    (List.length big.Slowlog.i_spans <= Flight.capacity ());
  match Zkqac_telemetry.Json.to_string (Slowlog.to_json slowlog) with
  | j ->
    Alcotest.(check bool) "/slowlog carries the flag" true
      (contains_sub j {|"complete":false|} && contains_sub j {|"complete":true|})

(* --- the correlation join: one id, all planes --- *)

let test_req_id_join () =
  (* One client-minted id, retrieved from the audit log, the /slowlog HTTP
     endpoint, and the client's own success — byte-identical hex in all. *)
  let rid = 0xfeedfacecafebeefL in
  let hex = Proto.req_id_hex rid in
  let log = Filename.temp_file "zkqac-join-audit" ".log" in
  Sys.remove log;
  (match Audit.enable ~path:log () with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Fun.protect ~finally:Audit.disable (fun () ->
      with_server
        {
          base_server_cfg with
          S.metrics_port = Some 0;
          slow_threshold_ms = 0.000001;
          (* everything is "slow": the join test wants the incident kept *)
        }
      @@ fun t ->
      (match query_server ~rid (Server.port t) with
      | Ok s ->
        Alcotest.(check bool) "success carries the id" true (s.Cl.req_id = rid);
        Alcotest.(check bool) "footer timing arrived" true (s.Cl.server <> None)
      | Error f -> Alcotest.failf "query: %s" (Client.failure_to_string f));
      (* Plane 2: the live /slowlog endpoint, as a client would fetch it. *)
      match Server.metrics_port t with
      | None -> Alcotest.fail "metrics endpoint missing"
      | Some p ->
        let body = http_get p "/slowlog" in
        Alcotest.(check bool) "slowlog endpoint serves JSON" true
          (contains_sub body "\"slowlog\"");
        Alcotest.(check bool) "slowlog names the request" true
          (contains_sub body hex);
        Alcotest.(check bool) "slowlog carries the span tree" true
          (contains_sub body "server.request"));
  (* Plane 3: the hash-chained audit log. *)
  match Audit.verify_file log with
  | Error b ->
    Alcotest.failf "audit log broken at %d: %s" b.Audit.entry b.Audit.reason
  | Ok entries ->
    let serve_bodies =
      List.filter_map
        (fun (e : Audit.entry) ->
          if e.Audit.kind = "serve" then
            Some (Zkqac_telemetry.Json.to_string e.Audit.body)
          else None)
        entries
    in
    Alcotest.(check bool) "audit entry carries the same hex id" true
      (List.exists (fun b -> contains_sub b hex) serve_bodies)

(* Each server draws its relax randomness from a secret of its own: two
   fresh servers on one ADS answer the same first relaxing query (RoleA
   over the whole space, which hides RoleB's records) with different VO
   bytes, and both answers verify. With a seed derived from a per-server
   counter the two answers were byte-identical. *)
let test_relax_unpredictable () =
  let module Vo = Zkqac_core.Vo.Make (Backend) in
  let _, mvk, tree = Lazy.force fixture in
  let first_vo () =
    with_server base_server_cfg @@ fun t ->
    let fd =
      Sockio.connect ~host:"127.0.0.1" ~port:(Server.port t) ~timeout:2.0
    in
    Fun.protect
      ~finally:(fun () -> Sockio.close_noerr fd)
      (fun () ->
        let dl = Sockio.deadline_after 5.0 in
        Sockio.write_frame fd ~deadline:dl
          (Proto.encode_request
             { Proto.req_id = 0L; roles = [ "RoleA" ]; query = whole_box });
        match
          Proto.decode_response
            (Sockio.read_frame fd ~deadline:dl ~max_bytes:(1 lsl 24))
        with
        | Ok (Proto.Vo bytes, _) -> bytes
        | Ok (r, _) -> Alcotest.failf "expected Vo, got %s" (Proto.response_code r)
        | Error e -> Alcotest.failf "response decode: %s" (VE.to_string e))
  in
  let a = first_vo () in
  let b = first_vo () in
  List.iter
    (fun bytes ->
      match Vo.decode bytes with
      | Error e -> Alcotest.failf "VO decode: %s" (VE.to_string e)
      | Ok vo -> (
        match
          Ap2g.verify ~mvk ~t_universe:(Ap2g.universe tree)
            ?hierarchy:(Ap2g.hierarchy tree) ~user:user_a ~query:whole_box vo
        with
        | Ok records ->
          Alcotest.(check int) "RoleA sees its one record" 1 (List.length records)
        | Error e -> Alcotest.failf "VO verify: %s" (VE.to_string e)))
    [ a; b ];
  Alcotest.(check bool) "VO bytes differ" true (a <> b)

let suite =
  [
    ( "server",
      [
        Alcotest.test_case "proto round-trip" `Quick test_proto_roundtrip;
        Alcotest.test_case "serve round-trip" `Quick test_serve_roundtrip;
        Alcotest.test_case "served ops counted" `Quick test_serve_counts_ops;
        Alcotest.test_case "shed under zero capacity" `Quick test_serve_shed;
        Alcotest.test_case "no per-connection leak" `Slow
          test_serve_no_per_connection_leak;
        Alcotest.test_case "query deadline" `Quick test_serve_query_deadline;
        Alcotest.test_case "backlog bounded by in-flight" `Quick
          test_serve_backlog_bounded;
        Alcotest.test_case "daemon retains no spans" `Quick
          test_serve_retains_no_spans;
        Alcotest.test_case "read deadline" `Quick test_serve_read_deadline;
        Alcotest.test_case "bad request" `Quick test_serve_bad_request;
        Alcotest.test_case "unknown role refused once" `Quick test_serve_unknown_role;
        Alcotest.test_case "graceful drain" `Quick test_serve_drain;
        Alcotest.test_case "chaos registry" `Quick test_chaos_registry;
        Alcotest.test_case "chaos sweep" `Slow test_chaos_sweep;
        Alcotest.test_case "ads truncation" `Quick test_ads_truncation;
        Alcotest.test_case "ads byte flips" `Quick test_ads_byte_flips;
        Alcotest.test_case "ads typed decode" `Quick test_ads_typed_decode;
        Alcotest.test_case "ads bad signature frame malformed" `Quick
          test_ads_bad_signature_frame;
        Alcotest.test_case "ads garbage element loads, its node errs" `Quick
          test_ads_garbage_element_served;
        Alcotest.test_case "expired sockio deadlines fail fast" `Quick
          test_sockio_expired_deadline;
        Alcotest.test_case "drain audit entry despite expired budget" `Quick
          test_drain_audit_entry;
        Alcotest.test_case "readyz flips with readiness" `Quick test_readyz_flip;
        Alcotest.test_case "supervise restart loop" `Quick
          test_supervise_restart_loop;
        Alcotest.test_case "server health endpoints" `Quick
          test_server_health_endpoints;
        Alcotest.test_case "v1 request is a bad request" `Quick
          test_v1_request_refused;
        Alcotest.test_case "v1 response is garbled" `Quick
          test_v1_response_garbled;
        Alcotest.test_case "tail sampler keeps the forced-slow request" `Quick
          test_slowlog_forced_slow;
        Alcotest.test_case "incident complete when every span survives" `Quick
          test_incident_complete;
        Alcotest.test_case "incident incomplete past the ring's depth" `Quick
          test_incident_incomplete;
        Alcotest.test_case "tail sampler keeps the forced error" `Quick
          test_slowlog_forced_error;
        Alcotest.test_case "one req id joins audit, slowlog, client" `Quick
          test_req_id_join;
        Alcotest.test_case "two servers relax unpredictably" `Quick
          test_relax_unpredictable;
      ] );
  ]
