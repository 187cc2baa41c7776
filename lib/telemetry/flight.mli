(** Always-on flight recorder.

    A bounded per-domain ring buffer of structured events — span closes,
    verify verdicts, pool job failures, wire-limit hits — recorded
    unconditionally (a few atomic operations plus one ring store per event)
    so that a crash or a one-in-a-million verification failure leaves a
    forensic trail even when tracing was off.

    The recorder is enabled by default; {!disable} turns it off, for the
    overhead gate's ablation. Each domain's ring holds 2048 events; once
    full, the oldest events are overwritten and counted in {!dropped}.

    {!trip} is the dump-on-demand path: it records a [trip] event and, when
    a dump directory is configured ({!set_dir} or [ZKQAC_FLIGHT_DIR]),
    writes the merged ring as JSON and text files, at most four times per
    process. {!emergency} additionally prints the text dump to stderr when
    no directory is configured — the last-resort path for SIGUSR1 and
    uncaught exceptions. *)

type event = {
  seq : int;  (** global sequence number, 1-based; total order of events *)
  t_ns : int64;  (** monotonic clock, nanoseconds since recorder start *)
  domain : int;  (** recording domain id *)
  cat : string;  (** event category: "span", "verdict", "pool", "wire", "trip" *)
  name : string;
  detail : string;  (** free-form qualifier, e.g. an error code; "" if none *)
  v : int;  (** numeric payload (duration ns, limit, rows...); 0 if none *)
  req_id : int64;
      (** correlating request id for request-scoped events (the server's
          per-request records); 0 when the event has no request context *)
}

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val capacity : unit -> int
(** Ring capacity per domain. *)

val record :
  ?v:int -> ?req_id:int64 -> ?detail:string -> cat:string -> string -> unit
(** [record ~cat name] appends one event to the calling domain's ring.
    [req_id] ties the event to a wire-propagated request id; it appears in
    JSON dumps as a 16-hex-digit ["req_id"] field (and [req=...] in text)
    when non-zero. No-op when disabled. Never raises. *)

val recorded : unit -> int
(** Total events recorded since start/reset (including overwritten ones). *)

val dropped : unit -> int
(** Events overwritten by ring wraparound. *)

val trips : unit -> int
(** Number of {!trip}/{!emergency} calls. *)

val events : unit -> event list
(** Merged view of all domain rings, sorted by sequence number. *)

val to_json : ?reason:string -> unit -> Json.t
(** Dump shape: [{"flight": 1, "reason", "recorded", "dropped", "trips",
    "events": [{"seq","t_ns","domain","cat","name","detail","v",
    "req_id"?}...]}] — ["req_id"] present only on request-scoped events. *)

val print : out_channel -> unit
(** Human-readable text dump of {!events}. *)

val set_dir : string option -> unit
(** Override the dump directory ([ZKQAC_FLIGHT_DIR] by default). *)

val dump_dir : unit -> string option

val trip : reason:string -> unit
(** Record a [trip] event and write JSON + text dumps if a dump directory
    is configured and the per-process cap is not exhausted. Swallows I/O
    errors: tripping must never turn a typed failure into a crash. *)

val emergency : reason:string -> unit
(** Like {!trip}, but when no dump directory is configured the text dump
    goes to stderr — used by the SIGUSR1 handler and the uncaught-exception
    hook, where losing the dump would defeat the recorder's purpose. *)

val reset : unit -> unit
(** Clear all rings and counters (tests). *)
