(** Process-wide metrics registry with Prometheus and JSON export.

    This is the pull side of the telemetry layer: the op counters
    ({!Telemetry}), the per-stage table ({!Stage}: latency histograms,
    per-stage and per-domain allocation words, GC pauses), trace health
    ({!Trace.dropped}) and verification-rejection counts are exposed as one
    registry of named metrics, scraped all at once by each export. Metrics
    appear in registration order and label sets are sorted, so the
    Prometheus exposition is byte-stable for a given set of recorded
    values — golden tests rely on that.

    Built-in metrics:
    - [zkqac_ops_total{op}] — PAIRING-boundary operation counts
    - [zkqac_stage_latency_seconds{stage}] — per-stage summary
      (p50/p95/p99 quantiles, [_count], [_sum])
    - [zkqac_stage_alloc_words_total{stage,heap}] — GC words per stage
    - [zkqac_domain_alloc_words_total{domain,heap}] — GC words per domain
    - [zkqac_trace_dropped_spans] — spans lost to the trace capacity bound
    - [zkqac_verify_rejections_total{code}] — typed verifier rejections
    - [zkqac_batch_fallbacks_total] — batched verifications that re-ran
      sequentially
    - [zkqac_flight_events_total] / [zkqac_flight_dropped_events_total] /
      [zkqac_flight_trips_total] — flight-recorder health ({!Flight})
    - [zkqac_gc_pause_seconds_total{domain,gc}] /
      [zkqac_gc_pause_seconds_max{domain,gc}] /
      [zkqac_stage_gc_pause_seconds_total{stage,gc}] — GC pauses observed
      by the runtime-events bridge ({!Rte}); present only when it ran

    Other libraries may add their own sources with {!register} /
    {!register_gauge} (e.g. [Zkqac_parallel.Pool] registers its
    worker-domain count). *)

type labels = (string * string) list
(** Label key/value pairs. Stored and exported sorted by key. *)

type kind = Counter | Gauge | Summary

type sample = { suffix : string; labels : labels; value : float }
(** One exposition line: [name ^ suffix ^ labels ^ value]. The suffix is
    ["_count"] / ["_sum"] for summary components, [""] otherwise. *)

type metric = { name : string; kind : kind; help : string; samples : sample list }

val sample : ?suffix:string -> ?labels:labels -> float -> sample

(** {1 Counter families (push side)} *)

type family
(** A mutable labelled counter family, for rare events that have no
    existing registry to pull from: verifier rejections, or accumulated
    durations such as fsync seconds. Cells are floats; the int accessors
    are exact up to 2{^53}. Domain-safe. *)

val counter : name:string -> help:string -> family
(** Create and register a counter family. Call once, at module init. *)

val inc : ?by:int -> family -> labels -> unit
val get : family -> labels -> int

val finc : ?by:float -> family -> labels -> unit
(** Fractional increment, for durations. *)

(** {1 Pull collectors} *)

val register : (unit -> metric list) -> unit
(** Add a source; every export invokes it, after all earlier
    registrations. *)

val register_gauge :
  name:string -> help:string -> (unit -> (labels * float) list) -> unit
(** Convenience wrapper: a single gauge whose labelled values are read at
    collect time. *)

(** {1 Built-in recording hooks} *)

val rejection : string -> unit
(** [rejection code] counts one verifier rejection under the stable
    [Verify_error] code string (feeds
    [zkqac_verify_rejections_total{code}]). *)

val batch_fallback : unit -> unit
(** Count one batched-verification fallback to the sequential path (feeds
    [zkqac_batch_fallbacks_total]; sampled around [System.verify_vo]
    to tell the audit log which path produced a verdict). *)

val batch_fallbacks : unit -> int

val recovery : string -> unit
(** [recovery outcome] counts one crash-recovery operation under a stable
    outcome string — [checkpoint-ok] / [checkpoint-fallback] from
    checkpoint selection, [audit-clean] / [audit-truncated] from
    [Audit.recover] (feeds [zkqac_recoveries_total{outcome}]). *)

(** {1 Export} *)

val to_prometheus : unit -> string
(** Prometheus text exposition (format 0.0.4): [# HELP] / [# TYPE] header
    then one line per sample. Metrics with no samples are omitted
    entirely, as is the whole family when nothing was recorded. *)

val to_json : unit -> Json.t
(** The same snapshot as a JSON object keyed by metric name (the
    BENCH.json ["metrics"] section). *)

val reset : unit -> unit
(** Zero all counter families. Pull collectors reflect their underlying
    registries, which have their own resets ([Telemetry.reset] clears the
    op counters and the {!Stage} table). *)
