(** Tail-based trace sampling: the server's slow-query forensics plane.

    Whether to {e keep} a request is decided only when it finishes, from
    its typed outcome and latency; only then is its span tree gathered
    from the span store's rings ({!Zkqac_telemetry.Flight.gather}), marked
    complete unless a ring may have overwritten part of it. Kept requests
    — incidents — sit in a bounded ring, exposed live as JSON at the
    server's [/slowlog] endpoint and dumpable as one Perfetto trace file
    per incident.

    Sampling policy: keep every request with a non-[ok] typed outcome
    (reason ["error"]), and every request slower than the threshold (reason
    ["slow"]). The threshold is either fixed ([threshold_ms > 0]) or — at
    [threshold_ms = 0] — the live p99 of observed request latencies, with a
    1 ms floor and a 64-request warm-up during which nothing is "slow".

    Fast successful requests leave nothing behind; each request costs one
    histogram record under the slowlog's mutex. *)

type t

type incident = {
  i_req_id : int64;
  i_minted : bool;  (** the server minted the id (the client sent none) *)
  i_conn : int;
  i_time : float;  (** Unix wall-clock time the request finished *)
  i_outcome : string;  (** typed response code *)
  i_reason : string;  (** why it was kept: ["slow"] or ["error"] *)
  i_total_ms : float;
  i_timing : Proto.timing option;
  i_spans : Zkqac_telemetry.Flight.event list;
      (** the request's span tree, root included, in start order *)
  i_complete : bool;
      (** no ring overwrote a record opened after the root before the tree
          was gathered, so no span of the tree is missing *)
}

val create : ?cap:int -> ?threshold_ms:float -> unit -> t
(** A live slowlog holding at most [cap] incidents (default 64; oldest
    evicted). [threshold_ms = 0] (default) selects the dynamic p99
    threshold; positive values are fixed. *)

val observe :
  t ->
  root:int ->
  req_id:int64 ->
  minted:bool ->
  conn:int ->
  outcome:string ->
  total_ms:float ->
  ?timing:Proto.timing ->
  unit ->
  bool
(** Decide retention for a finished request whose root span (id [root],
    from {!Zkqac_telemetry.Trace.ctx_id}) has closed, gathering its span
    tree if kept; returns whether it was kept. Requests without spans (e.g.
    shed connections) are observed with [root = 0] — they still count and
    can still be kept by outcome. *)

val incidents : t -> incident list
(** Retained incidents, oldest first. *)

val sampled : t -> int
(** Incidents ever kept (including ones the ring has evicted). *)

val observed : t -> int

val to_json : t -> Zkqac_telemetry.Json.t
(** The [/slowlog] payload: counters, the effective threshold, and every
    retained incident with its timing split and span tree. Request ids are
    16-hex-digit strings ({!Proto.req_id_hex}). *)

val dump : t -> dir:string -> int
(** Write [slowlog-<pid>.json] plus one [incident-<req_id>.trace.json]
    Perfetto file per retained incident (newest 16; atomic
    {!Zkqac_durable.Durable.replace}, so a dump taken at crash time is
    whole or absent). Returns the number of files written. Wired to
    SIGUSR1 by [zkqac serve]. *)
