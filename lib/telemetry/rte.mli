(** GC pause attribution from the OCaml runtime-events ring.

    A monitor domain consumes [Runtime_events] GC phase events
    ([EV_MINOR], [EV_MAJOR_SLICE]) for the whole process and turns them
    into three views:

    - per-domain pause totals and maxima (exposed as [Metrics] gauges),
    - per-stage pause attribution: {!Trace.with_span} samples
      {!pause_mark} at open and at close, and the difference lands in the
      span's {!Stage} cell next to its allocation words,
    - a bounded buffer of raw pause {!slice}s that the Perfetto export
      renders as extra tracks alongside spans.

    Runtime-events ring indices identify ring slots, not domains, and
    slots are reused as domains spawn and die. {!announce} (called from
    {!start} and from every [Pool] worker) writes a user event carrying
    [Domain.self], letting the monitor map each ring to the domain
    currently writing to it; unmapped rings are labelled ["ring<i>"].

    Attribution is asynchronous: totals advance when the monitor polls
    (default every 500 µs), so the two marks around a very short span may
    observe no delta. *)

type slice = {
  sl_ring : int;
  sl_domain : int;  (** -1 when the ring was never announced *)
  sl_gc : string;  (** "minor" or "major" *)
  sl_t0 : int64;  (** absolute runtime-events timestamp, ns *)
  sl_t1 : int64;
}

type dom_stats = {
  label : string;  (** domain id, or ["ring<i>"] for unmapped rings *)
  minor_s : float;
  major_s : float;
  minor_max_s : float;
  major_max_s : float;
  minor_n : int;
  major_n : int;
}

val start : ?poll_us:int -> unit -> unit
(** Start (or resume) runtime events and the monitor domain. Idempotent.
    A restart reads on from where {!stop} left off, so no pause is
    counted twice. *)

val stop : unit -> unit
(** Drain remaining events, join the monitor domain and pause event
    collection. Idempotent. *)

val started : unit -> bool

val announce : unit -> unit
(** Tell the monitor which domain writes to the caller's ring slot.
    No-op when not started. *)

val pause_mark : unit -> int64 * int64
(** Current (minor, major) pause totals in ns attributed to the calling
    domain; [(0L, 0L)] when not started. *)

val domain_snapshot : unit -> dom_stats list
(** Sorted by label. *)

val slices : unit -> slice list
(** Oldest first; bounded, see {!slices_dropped}. *)

val slices_dropped : unit -> int

val reset : unit -> unit
(** Clear totals and slices (tests); keeps the monitor and ring mappings
    alive. Per-stage pause rows live in {!Stage} and are cleared by
    [Telemetry.reset]. *)
