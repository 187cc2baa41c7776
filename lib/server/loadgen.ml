(* The load generator behind `zkqac loadgen --users N --qps Q`.

   N simulated users replay the TPC-H Q6-style range-query mix against a
   running server through the retrying client — so every response is
   *verified*, not just received, and the generator doubles as an
   end-to-end correctness check under load. Two pacing modes:

   - closed loop (no --qps): each user issues its next query the moment the
     previous one completes — the classic saturation probe;
   - open loop (--qps Q): users issue on exponential interarrival times at
     Q/N per user, so offered load stays fixed while the server degrades —
     the mode that actually exercises shedding.

   Latency lands in per-user HDR histograms (merged in the report, no
   cross-thread contention on the hot path); outcomes, retries, sheds and
   timeouts are counted both in the report and in the process-wide Metrics
   registry, which an optional /metrics endpoint exposes live. *)

module Prng = Zkqac_rng.Prng
module Histogram = Zkqac_telemetry.Histogram
module Metrics = Zkqac_telemetry.Metrics
module Monotonic_clock = Zkqac_parallel.Monotonic_clock
module Workload = Zkqac_tpch.Workload
module Attr = Zkqac_policy.Attr
module Universe = Zkqac_policy.Universe
module Json = Zkqac_telemetry.Json

let m_queries =
  Metrics.counter ~name:"zkqac_loadgen_queries_total"
    ~help:"Queries issued by the load generator, by outcome."

type config = {
  client : Client.config;
  users : int;
  qps : float option;  (** None = closed loop; total offered rate otherwise *)
  duration : float;  (** wall-clock budget, seconds *)
  max_queries : int;  (** stop earlier after this many sends (0 = no cap) *)
  frac : float;  (** query box covers ~[frac] of the keyspace *)
  roles : string list;  (** claimed roles; [] = every role in the universe *)
  seed : int;
}

let default_config =
  {
    client = Client.default_config;
    users = 4;
    qps = None;
    duration = 10.0;
    max_queries = 0;
    frac = 0.001;
    roles = [];
    seed = 42;
  }

(* The client-side half of the correlation story: each query's id plus the
   latency split the server's timing footer makes possible. Errors rank
   above slow successes so a storm of failures is never crowded out. *)
type slow_query = {
  s_req_id : int64;
  s_outcome : string;
  s_total_ms : float;
  s_server_ms : float option;  (** from the timing footer; [None] on failure *)
  s_network_ms : float option;  (** winning attempt wall minus server share *)
  s_attempts : int;  (** 0 = unknown (the failure does not carry it) *)
}

let slowest_kept = 8

type report = {
  wall : float;  (** seconds the run actually took *)
  sent : int;
  ok : int;
  rejected : int;  (** typed verification rejections — must be 0 vs an honest server *)
  bad_request : int;
  exhausted : int;  (** retry budget ran out on transients *)
  retries : int;
  records : int;  (** result records returned across all verified responses *)
  latency : Histogram.t;  (** per-query wall latency, retries included *)
  server_lat : Histogram.t;  (** server-reported total from the footer *)
  network_lat : Histogram.t;  (** winning-attempt wall minus server share *)
  verify_lat : Histogram.t;  (** local decode+verify *)
  slowest : slow_query list;  (** errors first, then slowest, bounded *)
}

let slow_query_json s =
  Json.Obj
    ([
       ("req_id", Json.Str (Proto.req_id_hex s.s_req_id));
       ("outcome", Json.Str s.s_outcome);
       ("total_ms", Json.Float s.s_total_ms);
     ]
    @ (match s.s_server_ms with
      | Some v -> [ ("server_ms", Json.Float v) ]
      | None -> [])
    @ (match s.s_network_ms with
      | Some v -> [ ("network_ms", Json.Float v) ]
      | None -> [])
    @ [ ("attempts", Json.Int s.s_attempts) ])

let report_to_json (r : report) =
  Json.Obj
    [
      ("wall_s", Json.Float r.wall);
      ("sent", Json.Int r.sent);
      ("ok", Json.Int r.ok);
      ("rejected", Json.Int r.rejected);
      ("bad_request", Json.Int r.bad_request);
      ("exhausted", Json.Int r.exhausted);
      ("retries", Json.Int r.retries);
      ("records", Json.Int r.records);
      ("latency", Histogram.to_json r.latency);
      ("server_latency", Histogram.to_json r.server_lat);
      ("network_latency", Histogram.to_json r.network_lat);
      ("verify_latency", Histogram.to_json r.verify_lat);
      ("slowest", Json.Arr (List.map slow_query_json r.slowest));
    ]

(* Errors outrank slow successes; ties break toward the slower query. *)
let slow_priority s = ((if s.s_outcome = "ok" then 0 else 1), s.s_total_ms)

let top_slow l =
  let sorted =
    List.sort (fun a b -> compare (slow_priority b) (slow_priority a)) l
  in
  List.filteri (fun i _ -> i < slowest_kept) sorted

module Make (P : Zkqac_group.Pairing_intf.PAIRING) = struct
  module Cl = Client.Make (P)
  module Ap2g = Zkqac_core.Ap2g.Make (P)
  module Ads_io = Zkqac_core.Ads_io.Make (P)

  type user_tally = {
    hist : Histogram.t;
    server_hist : Histogram.t;
    network_hist : Histogram.t;
    verify_hist : Histogram.t;
    mutable u_sent : int;
    mutable u_ok : int;
    mutable u_rejected : int;
    mutable u_bad_request : int;
    mutable u_exhausted : int;
    mutable u_retries : int;
    mutable u_records : int;
    mutable u_slow : slow_query list;  (* bounded by [slowest_kept] *)
  }

  let fresh_tally () =
    {
      hist = Histogram.create ();
      server_hist = Histogram.create ();
      network_hist = Histogram.create ();
      verify_hist = Histogram.create ();
      u_sent = 0;
      u_ok = 0;
      u_rejected = 0;
      u_bad_request = 0;
      u_exhausted = 0;
      u_retries = 0;
      u_records = 0;
      u_slow = [];
    }

  let note_slow tally sq = tally.u_slow <- top_slow (sq :: tally.u_slow)

  let user_loop cfg ~mvk ~universe ~hierarchy ~space ~user ~stop_at ~sent_total
      ~uid tally =
    let prng = Prng.create (cfg.seed + (7919 * uid)) in
    let backoff_prng = Prng.split prng in
    let per_user_rate =
      match cfg.qps with
      | None -> None
      | Some q -> Some (Float.max 1e-6 (q /. float_of_int (max 1 cfg.users)))
    in
    let under_cap () =
      cfg.max_queries = 0
      ||
      (* fetch_and_add reserves a send slot; overshoot by at most one
         in-flight query per user. *)
      Atomic.fetch_and_add sent_total 1 < cfg.max_queries
    in
    let rec loop () =
      if Monotonic_clock.now_ns () < stop_at && under_cap () then begin
        (match per_user_rate with
        | None -> ()
        | Some rate ->
          (* Exponential interarrival: open-loop users do not wait for the
             previous response before the clock of the next one starts,
             but a single thread can only have one outstanding query — an
             accepted simplification at these rates. *)
          let u = Float.max 1e-9 (Prng.float prng 1.0) in
          let dt = -.Float.log u /. rate in
          Unix.sleepf (Float.min dt 5.0));
        let query = Workload.range_query prng ~space ~frac:cfg.frac in
        (* The generator mints each query's correlation id itself so it can
           name the query in the report whatever the outcome — the id the
           server logged is the id the report prints. *)
        let rid =
          match Prng.int64 prng with 0L -> 1L | id -> id
        in
        let t0 = Monotonic_clock.now_ns () in
        let outcome =
          Cl.query ~prng:backoff_prng ~req_id:rid cfg.client ~mvk ~universe
            ?hierarchy ~user ~query ()
        in
        let ns = Int64.to_int (Int64.sub (Monotonic_clock.now_ns ()) t0) in
        Histogram.record tally.hist ns;
        tally.u_sent <- tally.u_sent + 1;
        let total_ms = float_of_int ns /. 1e6 in
        (match outcome with
        | Ok s ->
          tally.u_ok <- tally.u_ok + 1;
          tally.u_retries <- tally.u_retries + (s.Cl.attempts - 1);
          tally.u_records <- tally.u_records + List.length s.Cl.records;
          Histogram.record tally.verify_hist
            (int_of_float (s.Cl.verify_ms *. 1e6));
          let server_ms, network_ms =
            match s.Cl.server with
            | None -> (None, None)
            | Some tm ->
              let srv = float_of_int tm.Proto.total_us /. 1e3 in
              let net = Float.max 0.0 (s.Cl.attempt_ms -. srv) in
              Histogram.record tally.server_hist (int_of_float (srv *. 1e6));
              Histogram.record tally.network_hist (int_of_float (net *. 1e6));
              (Some srv, Some net)
          in
          note_slow tally
            {
              s_req_id = rid;
              s_outcome = "ok";
              s_total_ms = total_ms;
              s_server_ms = server_ms;
              s_network_ms = network_ms;
              s_attempts = s.Cl.attempts;
            };
          Metrics.inc m_queries [ ("outcome", "ok") ]
        | Error failure ->
          let code, attempts =
            match failure with
            | Client.Rejected _ ->
              tally.u_rejected <- tally.u_rejected + 1;
              ("rejected", 0)
            | Client.Bad_request _ ->
              tally.u_bad_request <- tally.u_bad_request + 1;
              ("bad-request", 0)
            | Client.Exhausted { attempts; _ } ->
              tally.u_exhausted <- tally.u_exhausted + 1;
              tally.u_retries <- tally.u_retries + (attempts - 1);
              ("exhausted", attempts)
          in
          note_slow tally
            {
              s_req_id = rid;
              s_outcome = code;
              s_total_ms = total_ms;
              s_server_ms = None;
              s_network_ms = None;
              s_attempts = attempts;
            };
          Metrics.inc m_queries [ ("outcome", code) ]);
        loop ()
      end
    in
    loop ()

  let run cfg ~ads =
    match Ads_io.load ~path:ads with
    | Error e -> Error e
    | Ok (mvk, tree) ->
      let universe = Ap2g.universe tree in
      let hierarchy = Ap2g.hierarchy tree in
      let space = Ap2g.space tree in
      let user =
        match cfg.roles with
        | [] ->
          (* Every real role; the implicit pseudo role is never claimable. *)
          Attr.Set.remove Attr.pseudo_role (Universe.attrs universe)
        | roles -> Attr.set_of_list roles
      in
      match Universe.bad_role universe user with
      | Some a -> Error ("unknown role " ^ a)
      | None ->
        let t0 = Monotonic_clock.now_ns () in
        let stop_at =
          Int64.add t0 (Int64.of_float (cfg.duration *. 1e9))
        in
        let sent_total = Atomic.make 0 in
        let tallies = Array.init (max 1 cfg.users) (fun _ -> fresh_tally ()) in
        let threads =
          Array.mapi
            (fun uid tally ->
              Thread.create
                (fun () ->
                  user_loop cfg ~mvk ~universe ~hierarchy ~space ~user ~stop_at
                    ~sent_total ~uid tally)
                ())
            tallies
        in
        Array.iter Thread.join threads;
        let wall =
          Int64.to_float (Int64.sub (Monotonic_clock.now_ns ()) t0) /. 1e9
        in
        let merged f =
          Array.fold_left
            (fun acc t -> Histogram.merge acc (f t))
            (Histogram.create ()) tallies
        in
        let sum f = Array.fold_left (fun acc t -> acc + f t) 0 tallies in
        Ok
          {
            wall;
            sent = sum (fun t -> t.u_sent);
            ok = sum (fun t -> t.u_ok);
            rejected = sum (fun t -> t.u_rejected);
            bad_request = sum (fun t -> t.u_bad_request);
            exhausted = sum (fun t -> t.u_exhausted);
            retries = sum (fun t -> t.u_retries);
            records = sum (fun t -> t.u_records);
            latency = merged (fun t -> t.hist);
            server_lat = merged (fun t -> t.server_hist);
            network_lat = merged (fun t -> t.network_hist);
            verify_lat = merged (fun t -> t.verify_hist);
            slowest =
              top_slow
                (Array.fold_left (fun acc t -> t.u_slow @ acc) [] tallies);
          }
end
