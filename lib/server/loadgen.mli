(** The load generator behind [zkqac loadgen].

    N simulated users replay the TPC-H Q6-style range-query mix against a
    running server through the retrying {!Client}, so every response is
    verified, not just received. Closed loop (no [qps]: next query starts
    when the previous completes) or open loop ([qps]: exponential
    interarrival at the offered rate, the mode that exercises shedding).
    Latency lands in per-user histograms merged into the {!report};
    outcomes also feed the process-wide {!Zkqac_telemetry.Metrics}
    registry for a live [/metrics] endpoint ({!Metrics_http}). *)

type config = {
  client : Client.config;
  users : int;
  qps : float option;  (** [None] = closed loop; total offered rate otherwise *)
  duration : float;  (** wall-clock budget, seconds *)
  max_queries : int;  (** stop earlier after this many sends (0 = no cap) *)
  frac : float;  (** query box covers ~[frac] of the keyspace *)
  roles : string list;  (** claimed roles; [[]] = every role in the universe *)
  seed : int;
}

val default_config : config

type slow_query = {
  s_req_id : int64;
      (** loadgen-minted correlation id — greps straight into the server's
          audit log, /slowlog, and flight dump *)
  s_outcome : string;
  s_total_ms : float;
  s_server_ms : float option;
      (** from the timing footer; [None] when the query failed *)
  s_network_ms : float option;  (** winning attempt wall minus server share *)
  s_attempts : int;  (** 0 = unknown (the failure does not carry it) *)
}

type report = {
  wall : float;  (** seconds the run actually took *)
  sent : int;
  ok : int;
  rejected : int;
      (** typed verification rejections — must be 0 against an honest server *)
  bad_request : int;
  exhausted : int;  (** retry budget ran out on transients *)
  retries : int;
  records : int;  (** result records returned across all verified responses *)
  latency : Zkqac_telemetry.Histogram.t;
      (** per-query wall latency, retries included *)
  server_lat : Zkqac_telemetry.Histogram.t;
      (** server-reported totals from the timing footers *)
  network_lat : Zkqac_telemetry.Histogram.t;
      (** winning-attempt wall minus the server-reported share *)
  verify_lat : Zkqac_telemetry.Histogram.t;  (** local decode+verify *)
  slowest : slow_query list;
      (** worst queries of the run, errors ranked first, bounded *)
}

val report_to_json : report -> Zkqac_telemetry.Json.t

module Make (P : Zkqac_group.Pairing_intf.PAIRING) : sig
  val run : config -> ads:string -> (report, string) result
  (** Load the ADS checkpoint at [ads] (for the public key and universe the
      client verifies against), run the configured users to completion, and
      merge their tallies. *)
end
