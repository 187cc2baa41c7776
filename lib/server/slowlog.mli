(** Tail-based trace sampling: the server's slow-query forensics plane.

    Every request's full span tree is collected while it runs (via the
    {!Zkqac_telemetry.Trace} close hook, which fires regardless of the
    export buffer's retention budget); whether to {e keep} the tree is
    decided only when the request finishes, from its typed outcome and
    latency. Kept requests — incidents — sit in a bounded ring, exposed
    live as JSON at the server's [/slowlog] endpoint and dumpable as one
    Perfetto trace file per incident.

    Sampling policy: keep every request with a non-[ok] typed outcome
    (reason ["error"]), and every request slower than the threshold (reason
    ["slow"]). The threshold is either fixed ([threshold_ms > 0]) or — at
    [threshold_ms = 0] — the live p99 of observed request latencies, with a
    1 ms floor and a 64-request warm-up during which nothing is "slow".

    Fast successful requests leave nothing behind; the constant per-request
    cost is bounded by one hashtable insert/remove plus one lookup per span
    close. *)

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
  i_spans : Zkqac_telemetry.Trace.info list;
      (** complete span tree, root included, in start order *)
}

val create : ?cap:int -> ?threshold_ms:float -> unit -> t
(** A live slowlog holding at most [cap] incidents (default 64; oldest
    evicted). [threshold_ms = 0] (default) selects the dynamic p99
    threshold; positive values are fixed. At most 4096 spans are collected
    per request. Creating a slowlog installs the trace close hook, which
    collects span trees with tracing off; {!close} releases it. *)

val close : t -> unit
(** Deregister from the trace close hook (the last live slowlog clears
    it). Retained incidents stay readable. *)

val track : t -> root:int -> req_id:int64 -> unit
(** Start collecting spans whose {!Zkqac_telemetry.Trace.info.span_root}
    equals [root] (the request's root span id, from
    {!Zkqac_telemetry.Trace.ctx_id}). No-op for [root = 0]. *)

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
(** Finish the request started with {!track} (call {e after} its root span
    closed, so the tree is complete) and decide retention; returns whether
    it was kept. Requests never tracked (e.g. shed connections) may be
    observed with [root = 0] — they carry no spans but still count and can
    still be kept by outcome. *)

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
