(** The long-lived SP daemon behind [zkqac serve].

    Serves range queries over a loaded ADS checkpoint, speaking {!Proto}
    over TCP, robustness-first:

    - per-connection absolute read/write deadlines ({!Sockio});
    - a bounded in-flight set with typed load shedding
      ([zkqac_server_shed_total]) — overload answers [Overloaded], never
      queues without bound, never hangs. Each handler waits for its own
      job, so the bound also caps the worker pool's backlog;
    - query execution on a persistent worker-domain pool
      ({!Zkqac_parallel.Pool}) with a per-query deadline checked where the
      work runs: a job picked up after its deadline returns at once, and a
      job that finishes over budget is discarded; both answer [Deadline].
      Domains cannot be cancelled, so a running job is answered when it
      returns — at most one query's run time after its deadline;
    - graceful drain ({!begin_drain}, wired to SIGTERM by the CLI): stop
      accepting, let in-flight requests finish within their own deadlines,
      shut the pool down once none is in flight, append a [drain] audit
      entry, and return within [drain_deadline] even if a worker is stuck
      (then the pool is left running and the entry says [clean: false]);
    - an optional live [GET /metrics] HTTP endpoint fed by the
      {!Zkqac_telemetry.Metrics} registry, with the tail sampler's
      [GET /slowlog] mounted alongside (a kept request's span tree is
      gathered from the span store's rings);
    - end-to-end request correlation: every request's id (client-minted,
      or server-minted when the request carries [0L] or does not decode)
      appears identically in the root trace span, its [pool.worker] child,
      the [serve] audit entry, the flight event, the {!Slowlog} incident,
      and the response footer next to its timing split. A shed connection
      is answered before any request is read, so its footer carries [0L]. *)

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port (tests); see {!Make.port} *)
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
          request (1-based), once — so a harness can force exactly one slow
          incident. [default_config] arms it from [ZKQAC_SLOW_INJECT=MS[:N]]. *)
}

val default_config : config

val slow_inject_of_env : unit -> (float * int) option
(** Parse [ZKQAC_SLOW_INJECT=MS[:N]] (milliseconds, 1-based ordinal
    defaulting to 1); [None] when unset or empty, [Invalid_argument] on
    nonsense — a misspelled harness knob must fail loudly. *)

module Make (P : Zkqac_group.Pairing_intf.PAIRING) : sig
  module Ap2g : module type of Zkqac_core.Ap2g.Make (P)
  module Abs : module type of Zkqac_abs.Abs.Make (P)

  type t

  val start : config -> ads:string -> (t, string) result
  (** Read a 32-byte server secret from [/dev/urandom] (an [Error] if that
      fails) — with each request's ordinal it seeds the request's relax
      randomness, so two servers never re-randomize alike — then recover
      the newest valid ADS checkpoint epoch
      ({!Zkqac_core.Ads_io.Make.load_recover}), bind the listener(s), spawn
      the persistent pool and the acceptor (and, when [checkpoint_every] is
      positive, a periodic epoch checkpointer), emit a [recovered] audit
      entry, and flip [/readyz] to ready. The health endpoint comes up
      {e before} recovery so a supervisor can watch it. Returns without
      blocking. *)

  val port : t -> int
  (** The bound query port (useful with [port = 0]). *)

  val metrics_port : t -> int option

  val ready : t -> bool
  (** True once startup recovery completed (what [/readyz] reports). *)

  val recovered_epoch : t -> int
  (** The checkpoint epoch this server resumed from. *)

  val begin_drain : t -> unit
  (** Initiate graceful drain; idempotent, callable from a signal handler. *)

  val wait : t -> unit
  (** Block until the drain completes (acceptor and metrics threads done). *)

  val served : t -> int
  (** Queries answered with a VO so far. *)

  val connections : t -> int
  (** Connections accepted (including shed ones). *)

  val pool : t -> Zkqac_parallel.Pool.pool

  val slowlog : t -> Slowlog.t
  (** The live tail sampler backing [/slowlog]. *)

  val dump_slowlog : t -> int
  (** Dump the slowlog JSON plus per-incident Perfetto files into the
      flight recorder's dump directory ([ZKQAC_FLIGHT_DIR]); returns files
      written, 0 when no dump directory is configured. Wired to SIGUSR1 by
      [zkqac serve], next to the flight dump. *)
end
