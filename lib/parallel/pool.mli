(** Parallel map over OCaml 5 domains — the Section 8.2 optimization.

    The paper parallelizes the independent ABS.Relax jobs of a query across
    OpenMP threads; this module provides the same fan-out with domains. Jobs
    are deterministic-output thunks; the result order matches the input
    order. *)

exception Job_failed of exn
(** Wraps the exception raised by a failed job. *)

val available_cores : unit -> int

val size : unit -> int
(** The worker-domain count to use by default: the value of the
    [ZKQAC_DOMAINS] environment variable if set and non-blank, else
    {!available_cores}.
    @raise Invalid_argument
      if [ZKQAC_DOMAINS] is set to something that is not an integer in
      [1..1024]. *)

val map : threads:int -> (unit -> 'a) list -> 'a list
(** Run the thunks on [threads] domains (static block partitioning, like an
    OpenMP static schedule) and return their results in input order.
    [threads <= 1] runs inline. A raising job does not stop the other jobs;
    once all have run, the failure with the lowest job index is re-raised in
    the caller as [Job_failed e] with the worker's backtrace — deterministic
    even when several jobs fail on different domains.

    When tracing is enabled ([Zkqac_telemetry.Trace]), the parallel branch
    records a [pool.map] span and each worker domain a [pool.worker] span
    parented on it, so spans recorded inside jobs attach to the calling
    query's trace even though they run on other domains. *)

val time : (unit -> 'a) -> 'a * float
(** Timing helper for benches. Durations come from {!Monotonic_clock}, so
    they are immune to wall-clock adjustments. *)

(** {1 Persistent pool}

    {!map} spawns fresh domains per call — fine for a one-shot CLI, wrong
    for a server answering queries for hours. A persistent pool keeps its
    worker domains alive across queries; jobs are submitted individually
    and awaited through futures. A job whose
    thunk raises delivers the failure to its future {e and} retires the
    worker domain that ran it (a fresh domain replaces it, counted in
    {!respawns} and [zkqac_pool_respawns_total]): an escaped exception may
    have left domain-local state mid-update, and domains are cheap relative
    to serving a wrong answer. *)

type pool

type 'a outcome = ('a, exn * Printexc.raw_backtrace) result

type 'a future

val create : ?threads:int -> unit -> pool
(** Spawn a pool of [threads] worker domains (default {!size}).
    @raise Invalid_argument if [threads < 1]. *)

val respawns : pool -> int
(** Worker domains retired after a job exception and replaced so far. *)

val submit :
  ?ctx:Zkqac_telemetry.Trace.ctx ->
  ?req_id:int64 ->
  ?attrs:(string * Zkqac_telemetry.Trace.value) list ->
  pool ->
  (unit -> 'a) ->
  'a future
(** Enqueue a job; it runs on the first free worker. When [ctx] is given,
    the job runs inside a [pool.worker] span (with [req_id] and [attrs])
    parented on it, so spans the job records attach to the submitting
    request's trace across the domain boundary — the {!map} behaviour for
    individually submitted jobs.
    @raise Invalid_argument after {!shutdown}. *)

val await : 'a future -> 'a outcome
(** Block until the job finishes. A raising job yields [Error (e, bt)]
    with the worker's backtrace. The pool's only wait: domains cannot be
    cancelled, so a caller with a deadline checks it inside the job (a
    queued job can still skip its work); a running job is answered when it
    returns, at most one job's run time late. *)

val peek : 'a future -> 'a outcome option
(** Non-blocking probe. *)

val run : pool -> (unit -> 'a) -> 'a outcome
(** [submit] then [await]. *)

val shutdown : pool -> unit
(** Stop accepting jobs, let workers drain the queue, and join every domain
    the pool ever spawned. Any job still queued when the last worker exits
    is run inline, so every future submitted before shutdown is fulfilled.
    Idempotent; concurrent {!submit}s during shutdown raise. *)
