(* The long-lived SP daemon behind `zkqac serve`.

   Robustness-first serving of the existing query pipeline:

   - every connection carries absolute read/write deadlines (Sockio), so a
     stalled or dribbling peer is bounded by its budget, never by patience;
   - at most [max_in_flight] connections are served concurrently; beyond
     that the acceptor sheds load with a typed Overloaded response (counted
     in zkqac_server_shed_total) instead of queueing without bound or
     hanging the client;
   - each handler waits for its own job on a persistent worker-domain Pool,
     so the in-flight bound also bounds the pool's backlog. A job picked up
     past its deadline returns at once; one that finishes over budget is
     answered Deadline when it returns (domains cannot be cancelled), at
     most one query's run time late;
   - SIGTERM/SIGINT initiate a graceful drain: stop accepting, let in-flight
     requests finish inside their own deadlines, shut the pool down when
     safe, flush the audit tail, dump the flight recorder, return so the
     CLI can exit 0. *)

module Wire = Zkqac_util.Wire
module VE = Zkqac_util.Verify_error
module Attr = Zkqac_policy.Attr
module Universe = Zkqac_policy.Universe
module Drbg = Zkqac_hashing.Drbg
module Pool = Zkqac_parallel.Pool
module Monotonic_clock = Zkqac_parallel.Monotonic_clock
module Flight = Zkqac_telemetry.Flight
module Metrics = Zkqac_telemetry.Metrics
module Trace = Zkqac_telemetry.Trace
module Json = Zkqac_telemetry.Json
module Audit = Zkqac_audit.Audit
module Box = Zkqac_core.Box
module Keyspace = Zkqac_core.Keyspace
module Crashpoint = Zkqac_durable.Crashpoint

(* Registered once at module init, not per functor application: a process
   instantiates the server for one backend but may do so more than once. *)
let m_connections =
  Metrics.counter ~name:"zkqac_server_connections_total"
    ~help:"TCP connections accepted by zkqac serve."

let m_shed =
  Metrics.counter ~name:"zkqac_server_shed_total"
    ~help:
      "Connections answered with a typed Overloaded response because the in-flight bound was reached."

let m_requests =
  Metrics.counter ~name:"zkqac_server_requests_total"
    ~help:"Requests answered by zkqac serve, by typed outcome."

let m_faults =
  Metrics.counter ~name:"zkqac_server_faults_total"
    ~help:"Connection-level transport faults observed by zkqac serve, by kind."

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port (tests); see {!port} *)
  metrics_port : int option;  (** [Some 0] likewise *)
  threads : int;  (** worker domains in the persistent pool *)
  max_in_flight : int;  (** concurrent connections before shedding *)
  read_deadline : float;  (** budget for reading one request frame *)
  write_deadline : float;  (** budget for writing one response frame *)
  query_deadline : float;
      (** budget for executing one query; a non-positive budget answers
          [Deadline] without running it *)
  drain_deadline : float;  (** budget for the whole graceful drain *)
  checkpoint_every : float;
      (** seconds between epoch checkpoints of the served tree; 0 disables *)
  slow_threshold_ms : float;
      (** tail-sampling slow threshold; 0 = dynamic p99 (see {!Slowlog}) *)
  slowlog_cap : int;  (** incidents retained by the tail sampler *)
  slow_inject : (float * int) option;
      (** test/harness hook: delay (seconds) injected into the Nth decoded
          request (1-based), once — so CI can force exactly one slow
          incident. [ZKQAC_SLOW_INJECT=MS[:N]] sets the default. *)
}

(* ZKQAC_SLOW_INJECT=MS[:N]: delay the Nth decoded request by MS
   milliseconds (N defaults to 1). The crashpoint idiom: armed from the
   environment so a shell harness can force a deterministic slow incident
   without touching the CLI surface; nonsense values fail loudly. *)
let slow_inject_of_env () =
  match Sys.getenv_opt "ZKQAC_SLOW_INJECT" with
  | None -> None
  | Some raw -> (
    let s = String.trim raw in
    if s = "" then None
    else
      let ms_s, nth_s =
        match String.index_opt s ':' with
        | None -> (s, "1")
        | Some i ->
          (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
      in
      match (float_of_string_opt ms_s, int_of_string_opt nth_s) with
      | Some ms, Some n when ms >= 0.0 && n >= 1 -> Some (ms /. 1000.0, n)
      | _ ->
        invalid_arg
          (Printf.sprintf "ZKQAC_SLOW_INJECT=%S is not MS[:N] with MS >= 0, N >= 1" raw))

let default_config =
  {
    host = "127.0.0.1";
    port = 7499;
    metrics_port = None;
    threads = 2;
    max_in_flight = 16;
    read_deadline = 5.0;
    write_deadline = 5.0;
    query_deadline = 30.0;
    drain_deadline = 45.0;
    checkpoint_every = 0.0;
    slow_threshold_ms = 0.0;
    slowlog_cap = 64;
    slow_inject = slow_inject_of_env ();
  }

module Make (P : Zkqac_group.Pairing_intf.PAIRING) = struct
  module Ap2g = Zkqac_core.Ap2g.Make (P)
  module Vo = Zkqac_core.Vo.Make (P)
  module Abs = Zkqac_abs.Abs.Make (P)
  module Ads_io = Zkqac_core.Ads_io.Make (P)

  type t = {
    cfg : config;
    ads_path : string;
    listen_fd : Unix.file_descr;
    mh : Metrics_http.t option;
    slowlog : Slowlog.t;
    req_seq : int Atomic.t;
        (* decoded requests, for slow_inject ordinals and relax seeds *)
    secret : string;
        (* 32 bytes of OS entropy; with the request ordinal it seeds each
           request's relax DRBG, so no client can predict the
           re-randomization of a relaxed signature *)
    pool : Pool.pool;
    tree : Ap2g.t;
    mvk : Abs.mvk;
    space : Keyspace.t;
    recovered_epoch : int;
    ready : bool Atomic.t;
    in_flight : int Atomic.t;
    conn_seq : int Atomic.t;
    served : int Atomic.t;
    draining : bool Atomic.t;
    mutable acceptor : Thread.t option;
    mutable checkpointer : Thread.t option;
  }

  let port t =
    match Unix.getsockname t.listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> t.cfg.port

  let metrics_port t = Option.map Metrics_http.port t.mh
  let ready t = Atomic.get t.ready
  let recovered_epoch t = t.recovered_epoch

  let listen_on host port =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
    Unix.listen fd 128;
    fd

  let audit_request ~conn ~rid ~minted ~roles ~query ~outcome ~vo_bytes ~ms =
    if Audit.enabled () then
      Audit.record ~kind:"serve"
        (Json.Obj
           [ ("conn", Json.Int conn);
             ("req_id", Json.Str (Proto.req_id_hex rid));
             ("minted", Json.Bool minted);
             ("roles", Json.Arr (List.map (fun r -> Json.Str r) roles));
             ("query", Json.Str (Box.to_string query));
             ("outcome", Json.Str outcome);
             ("vo_bytes", Json.Int vo_bytes);
             ("ms", Json.Float ms) ])

  (* One request per connection: read, decode, execute on the pool with a
     deadline, respond with a typed status. Transport faults are counted
     and recorded but never propagate — a hostile peer can cost this
     handler its deadline budget, nothing more.

     Correlation: the request id (client-minted, or server-minted when the
     request carries none or cannot be decoded) is threaded into the root
     span and its pool.worker child, the audit entry, the flight event, the
     tail sampler, and the response footer, always as the same
     16-hex-digit string. *)
  let handle_conn t fd conn_id =
    let t0 = Monotonic_clock.now_ns () in
    (* Called after the request's root span (if any) has closed, so the
       tail sampler sees the complete tree. The slowlog is consulted before
       the response bytes leave: once the client has its answer, /slowlog
       already knows about the incident. *)
    let finish ?(roles = []) ?query ~rid ?(minted = true) ?(root = 0)
        ?(timing = Proto.zero_timing) resp =
      let outcome = Proto.response_code resp in
      Metrics.inc m_requests [ ("outcome", outcome) ];
      let vo_bytes = match resp with Proto.Vo vo -> String.length vo | _ -> 0 in
      let ms = Monotonic_clock.elapsed_since t0 *. 1000.0 in
      let timing =
        { timing with Proto.total_us = Proto.us_of_ns (Int64.of_float (ms *. 1e6)) }
      in
      (match query with
      | Some query ->
        audit_request ~conn:conn_id ~rid ~minted ~roles ~query ~outcome
          ~vo_bytes ~ms
      | None -> ());
      Flight.record ~cat:"server" ~req_id:rid ~detail:outcome ~v:vo_bytes
        "server.request";
      ignore
        (Slowlog.observe t.slowlog ~root ~req_id:rid ~minted ~conn:conn_id
           ~outcome ~total_ms:ms ~timing ()
          : bool);
      let deadline = Sockio.deadline_after t.cfg.write_deadline in
      Sockio.write_frame fd ~deadline
        (Proto.encode_response
           ~footer:{ Proto.f_req_id = rid; f_timing = timing }
           resp)
    in
    match
      let deadline = Sockio.deadline_after t.cfg.read_deadline in
      Sockio.read_frame fd ~deadline ~max_bytes:Proto.max_request_bytes
    with
    | exception Sockio.Fault f ->
      Metrics.inc m_faults [ ("kind", "read-" ^ Sockio.fault_code f) ];
      Flight.record ~cat:"server"
        ~detail:(Printf.sprintf "conn=%d %s" conn_id (Sockio.fault_code f))
        "server.read_fault";
      (* An oversized frame header is a protocol violation worth a typed
         per-connection limit record and answer; pure transport faults get
         nothing (the peer is gone or stalled). *)
      (match f with
      | Sockio.Too_large { length; limit } ->
        Flight.record ~cat:"server"
          ~detail:(Printf.sprintf "conn=%d frame bytes %d" conn_id length)
          ~v:limit "server.wire_limit";
        finish ~rid:(Proto.mint_req_id ()) (Proto.Bad_request "limit-exceeded")
      | _ -> ())
    | frame -> (
      match Proto.decode_request ~limits:Wire.default_limits frame with
      | Error e ->
        (* Per-connection record of reader-limit hits: the wire layer logs
           the limit itself; this names the connection that tripped it. *)
        (match e with
        | VE.Limit_exceeded { what; limit } ->
          Flight.record ~cat:"server"
            ~detail:(Printf.sprintf "conn=%d %s" conn_id what)
            ~v:limit "server.wire_limit"
        | _ -> ());
        finish ~rid:(Proto.mint_req_id ()) (Proto.Bad_request (VE.code e))
      | Ok { Proto.req_id; roles; query } ->
        (* Crash-harness hook: die with a decoded request in hand, after the
           client committed to the exchange but before any response bytes. *)
        Crashpoint.maybe "serve-request";
        let minted = req_id = 0L in
        let rid = if minted then Proto.mint_req_id () else req_id in
        let n_req = Atomic.fetch_and_add t.req_seq 1 + 1 in
        let timing = ref Proto.zero_timing in
        let root_id = ref 0 in
        let resp =
          (* Handler threads share domain 0, so the request root is an
             explicit root (~parent:none) and every child names its parent
             explicitly — interleaved requests must not adopt each other's
             spans. *)
          Trace.with_span "server.request" ~parent:Trace.none ~req_id:rid
            ~attrs:[ ("conn", Trace.Int conn_id); ("minted", Trace.Bool minted) ]
          @@ fun root ->
          root_id := Trace.ctx_id root;
          (match t.cfg.slow_inject with
          | Some (delay_s, at) when n_req = at ->
            (* The injected stall is its own span, so the forced incident's
               tree shows where the time went even in a harness run. *)
            Trace.with_span "server.slow_inject" ~parent:root
              ~attrs:[ ("delay_s", Trace.Float delay_s) ]
              (fun _ -> Unix.sleepf delay_s)
          | _ -> ());
          let deadline_expired at =
            Flight.record ~cat:"server" ~req_id:rid ~detail:at
              "server.query_deadline";
            Proto.Deadline
          in
          if not (Box.contains_box (Keyspace.whole t.space) query) then
            Proto.Bad_request "query-outside-space"
          else if
            Universe.bad_role (Ap2g.universe t.tree) (Attr.set_of_list roles) <> None
          then Proto.Bad_request "unknown-role"
          else if t.cfg.query_deadline <= 0.0 then
            (* No budget: answer Deadline without racing a worker for it. *)
            deadline_expired "no-budget"
          else begin
            let submitted = Monotonic_clock.now_ns () in
            let queue_ns = ref 0L
            and relax_ns = ref 0L
            and prove_ns = ref 0L
            and encode_ns = ref 0L in
            let fut =
              Pool.submit ~ctx:root ~req_id:rid
                ~attrs:[ ("conn", Trace.Int conn_id) ]
                t.pool
                (fun () ->
                  queue_ns := Int64.sub (Monotonic_clock.now_ns ()) submitted;
                  (* Picked up past its deadline: skip the work. *)
                  if Int64.to_float !queue_ns /. 1e9 >= t.cfg.query_deadline
                  then None
                  else begin
                    let drbg = Drbg.create ~seed:(t.secret ^ string_of_int n_req) in
                    let user = Attr.set_of_list roles in
                    (* The relax share of proving is measured where it runs:
                       the pmap hook wraps the ABS.Relax batch. *)
                    let pmap jobs =
                      let r0 = Monotonic_clock.now_ns () in
                      let out = List.map (fun j -> j ()) jobs in
                      relax_ns :=
                        Int64.add !relax_ns (Int64.sub (Monotonic_clock.now_ns ()) r0);
                      out
                    in
                    let p0 = Monotonic_clock.now_ns () in
                    let vo, _stats =
                      Ap2g.range_vo ~pmap drbg ~mvk:t.mvk t.tree ~user query
                    in
                    prove_ns :=
                      Int64.sub (Int64.sub (Monotonic_clock.now_ns ()) p0) !relax_ns;
                    let e0 = Monotonic_clock.now_ns () in
                    let bytes = Vo.to_bytes vo in
                    encode_ns := Int64.sub (Monotonic_clock.now_ns ()) e0;
                    Some bytes
                  end)
            in
            match Pool.await fut with
            | Error (e, _bt) -> Proto.Server_error (Printexc.to_string e)
            | Ok None -> deadline_expired "queued"
            | Ok (Some _)
              when Monotonic_clock.elapsed_since submitted > t.cfg.query_deadline ->
              deadline_expired "ran"
            | Ok (Some vo_bytes) ->
              Atomic.incr t.served;
              (* The future was fulfilled under its mutex, so the worker's
                 writes to the stage refs are visible here. *)
              timing :=
                {
                  Proto.queue_us = Proto.us_of_ns !queue_ns;
                  relax_us = Proto.us_of_ns !relax_ns;
                  prove_us = Proto.us_of_ns !prove_ns;
                  encode_us = Proto.us_of_ns !encode_ns;
                  total_us = 0 (* filled by [finish] *);
                };
              Proto.Vo vo_bytes
          end
        in
        finish ~roles ~query ~rid ~minted ~root:!root_id ~timing:!timing resp)

  let guarded_handle t fd conn_id =
    (match handle_conn t fd conn_id with
    | () -> ()
    | exception Sockio.Fault f ->
      (* A fault while writing the response: the peer vanished or stalled
         mid-VO. Typed, counted, and over. *)
      Metrics.inc m_faults [ ("kind", "write-" ^ Sockio.fault_code f) ];
      Flight.record ~cat:"server"
        ~detail:(Printf.sprintf "conn=%d %s" conn_id (Sockio.fault_code f))
        "server.write_fault"
    | exception e ->
      Metrics.inc m_faults [ ("kind", "handler-exception") ];
      Flight.trip ~reason:("server-handler:" ^ Printexc.to_string e));
    Sockio.close_noerr fd;
    Atomic.decr t.in_flight

  let shed t fd conn_id =
    Metrics.inc m_shed [];
    Flight.record ~cat:"server" "server.shed";
    (* Shed connections never reach the request decoder, so there is no id
       to correlate (the footer carries 0) — but the tail sampler still
       counts them and keeps the typed outcome, so /slowlog shows overload
       storms. *)
    ignore
      (Slowlog.observe t.slowlog ~root:0 ~req_id:0L ~minted:true ~conn:conn_id
         ~outcome:"overloaded" ~total_ms:0.0 ()
        : bool);
    (* Best-effort typed refusal with a tight budget: a peer that will not
       read its Overloaded frame forfeits it. *)
    (try
       let deadline = Sockio.deadline_after 1.0 in
       Sockio.write_frame fd ~deadline
         (Proto.encode_response
            ~footer:{ Proto.f_req_id = 0L; f_timing = Proto.zero_timing }
            Proto.Overloaded)
     with Sockio.Fault _ -> ());
    Sockio.close_noerr fd

  let accept_loop t =
    while not (Atomic.get t.draining) do
      match Unix.select [ t.listen_fd ] [] [] 0.05 with
      | [], _, _ -> ()
      | _ -> (
        match Unix.accept t.listen_fd with
        | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
          ()
        | exception Unix.Unix_error _ -> Thread.delay 0.01
        | fd, _ ->
          let conn_id = Atomic.fetch_and_add t.conn_seq 1 in
          Metrics.inc m_connections [];
          if Atomic.get t.in_flight >= t.cfg.max_in_flight then
            shed t fd conn_id
          else begin
            Atomic.incr t.in_flight;
            ignore (Thread.create (fun () -> guarded_handle t fd conn_id) ())
          end)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    (* Drain: stop accepting and give in-flight requests their own
       deadlines to finish. Handlers wait for their jobs, so with none in
       flight the pool is idle; a stuck worker must not hold the drain. *)
    Sockio.close_noerr t.listen_fd;
    let deadline = Sockio.deadline_after t.cfg.drain_deadline in
    while Atomic.get t.in_flight > 0 && Sockio.remaining_s deadline > 0.0 do
      Thread.delay 0.01
    done;
    let stragglers = Atomic.get t.in_flight in
    if stragglers = 0 then Pool.shutdown t.pool
    else Flight.record ~cat:"server" ~v:stragglers "server.drain_stragglers";
    if Audit.enabled () then
      Audit.record ~kind:"drain"
        (Json.Obj
           [ ("served", Json.Int (Atomic.get t.served));
             ("connections", Json.Int (Atomic.get t.conn_seq));
             ("clean", Json.Bool (stragglers = 0)) ]);
    Flight.record ~cat:"server" ~v:(Atomic.get t.served) "server.drained"

  (* Periodic epoch checkpoints of the served tree: each one is an atomic,
     footer-committed sibling file, so the next restart resumes from the
     newest epoch that fully reached the disk. Sleeps in small steps so the
     drain is prompt. *)
  let checkpoint_loop t =
    let next = ref (t.recovered_epoch + 1) in
    let rec nap left =
      if left > 0.0 && not (Atomic.get t.draining) then begin
        Thread.delay (Float.min left 0.05);
        nap (left -. 0.05)
      end
    in
    while not (Atomic.get t.draining) do
      nap t.cfg.checkpoint_every;
      if not (Atomic.get t.draining) then begin
        match Ads_io.save_epoch ~path:t.ads_path ~mvk:t.mvk ~epoch:!next t.tree with
        | () ->
          Flight.record ~cat:"server" ~v:!next "server.checkpoint";
          if Audit.enabled () then
            Audit.record ~kind:"checkpoint" (Json.Obj [ ("epoch", Json.Int !next) ]);
          incr next
        | exception Sys_error m ->
          Flight.record ~cat:"server" ~detail:m ~v:!next "server.checkpoint_failed"
      end
    done

  let read_secret () =
    match
      In_channel.with_open_bin "/dev/urandom" (fun ic ->
          really_input_string ic 32)
    with
    | s -> Ok s
    | exception (Sys_error _ | End_of_file) ->
      Error "cannot read 32 bytes of entropy from /dev/urandom"

  let start cfg ~ads =
    match read_secret () with
    | Error e -> Error e
    | Ok secret ->
    (* Health plane first: /healthz answers and /readyz reports "starting"
       while checkpoint recovery below runs, so a supervisor can tell a
       recovering server from a dead one. *)
    let ready = Atomic.make false in
    (* The slowlog exists before the metrics endpoint so /slowlog can be
       mounted alongside /metrics. *)
    let slowlog =
      Slowlog.create ~cap:cfg.slowlog_cap ~threshold_ms:cfg.slow_threshold_ms ()
    in
    let mh =
      match cfg.metrics_port with
      | None -> Ok None
      | Some p -> (
        match
          Metrics_http.start ~host:cfg.host
            ~ready:(fun () -> Atomic.get ready)
            ~extra:
              [ ("/slowlog", fun () -> Json.to_string (Slowlog.to_json slowlog))
              ]
            ~port:p ()
        with
        | Ok m -> Ok (Some m)
        | Error e -> Error e)
    in
    match mh with
    | Error e -> Error e
    | Ok mh -> (
      let fail e =
        Option.iter Metrics_http.stop mh;
        Error e
      in
      match Ads_io.load_recover ~path:ads with
      | Error e -> fail e
      | Ok rc -> (
        match listen_on cfg.host cfg.port with
        | exception Unix.Unix_error (e, _, _) ->
          fail
            (Printf.sprintf "cannot listen on %s:%d: %s" cfg.host cfg.port
               (Unix.error_message e))
        | listen_fd ->
          let t =
            {
              cfg;
              ads_path = ads;
              listen_fd;
              mh;
              slowlog;
              req_seq = Atomic.make 0;
              secret;
              pool = Pool.create ~threads:cfg.threads ();
              tree = rc.Ads_io.r_tree;
              mvk = rc.Ads_io.r_mvk;
              space = Ap2g.space rc.Ads_io.r_tree;
              recovered_epoch = rc.Ads_io.r_epoch;
              ready;
              in_flight = Atomic.make 0;
              conn_seq = Atomic.make 0;
              served = Atomic.make 0;
              draining = Atomic.make false;
              acceptor = None;
              checkpointer = None;
            }
          in
          (* The recovered entry makes every (re)start part of the audited
             record: which epoch resumed, from which file, and whether any
             newer checkpoint had to be skipped as unreadable. *)
          if Audit.enabled () then
            Audit.record ~kind:"recovered"
              (Json.Obj
                 [ ("epoch", Json.Int rc.Ads_io.r_epoch);
                   ("source", Json.Str rc.Ads_io.r_source);
                   ("skipped", Json.Int (List.length rc.Ads_io.r_skipped)) ]);
          t.acceptor <- Some (Thread.create (fun () -> accept_loop t) ());
          if cfg.checkpoint_every > 0.0 then
            t.checkpointer <- Some (Thread.create (fun () -> checkpoint_loop t) ());
          Atomic.set ready true;
          Ok t))

  let begin_drain t = Atomic.set t.draining true

  let wait t =
    Option.iter Thread.join t.acceptor;
    Option.iter Thread.join t.checkpointer;
    Option.iter Metrics_http.stop t.mh

  let served t = Atomic.get t.served
  let connections t = Atomic.get t.conn_seq
  let pool t = t.pool
  let slowlog t = t.slowlog

  (* The slowlog dumps next to the flight recorder (same SIGUSR1, same
     directory): one signal produces one joined forensic snapshot. *)
  let dump_slowlog t =
    match Flight.dump_dir () with
    | Some dir -> Slowlog.dump t.slowlog ~dir
    | None -> 0
end
