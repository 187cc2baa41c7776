(** The span store: an always-on flight recorder.

    One bounded ring of {!event} records per domain holds every span close
    ([Trace.with_span]) and every structured event ({!record}: verdicts,
    pool failures, wire-limit hits, per-request server records), so a
    crash or a rare verification failure leaves a forensic trail even with
    tracing off. Three views read the rings: a flight dump ({!events},
    {!to_json}, {!print}), a Chrome export ([Trace]) and a slowlog incident
    ({!gather}). Each ring holds {!capacity} records; once full, the oldest
    is overwritten and counted in {!dropped}, unless {!retain} is on.
    {!disable} (the overhead gate's ablation) turns the store off: no
    record, no open-span stack entry.

    {!trip} records a [trip] event and, when a dump directory is configured
    ({!set_dir} or [ZKQAC_FLIGHT_DIR]), writes the merged rings as JSON and
    text files, at most four times per process. {!emergency} prints the
    text dump to stderr when no directory is configured — the last resort
    for SIGUSR1 and uncaught exceptions. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type event = {
  seq : int;  (** global sequence number, 1-based; a span's id, drawn at open *)
  parent : int;  (** parent span's [seq]; 0 for roots and events *)
  root : int;  (** its span tree's root [seq] (a root's own); 0 for events *)
  domain : int;  (** recording domain id *)
  t_ns : int;  (** {!now_ns} at a span's start or an event's record *)
  cat : string;  (** ["span"], or an event category ("verdict", "pool"...) *)
  name : string;
  detail : string;  (** free-form qualifier, e.g. an error code; "" if none *)
  mutable v : int;  (** numeric payload: a span's duration in ns; 0 if none *)
  req_id : int64;  (** correlating request id; 0 when not request-scoped *)
  mutable attrs : (string * value) list;  (** a span's attributes *)
}

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val capacity : unit -> int
(** Ring capacity per domain. *)

val record :
  ?v:int -> ?req_id:int64 -> ?detail:string -> cat:string -> string -> unit
(** [record ~cat name] appends one event to the calling domain's ring.
    [req_id] appears in JSON dumps as a 16-hex-digit ["req_id"] field (and
    [req=...] in text) when non-zero. No-op when disabled. Never raises. *)

(** {1 Spans, for [Trace]} *)

val none : event
(** What {!start} returns while the store is disabled. *)

val now_ns : unit -> int
(** [Monotonic_clock.now_ns] as an [int]. *)

val start :
  ?parent:event ->
  req_id:int64 ->
  attrs:(string * value) list ->
  t_ns:int ->
  string ->
  event
(** Open a span and push it on the domain's open-span stack. Its parent is
    [parent] if given ({!none}: a root), else the innermost open span. *)

val finish : event -> ns:int -> unit
(** Set a span's duration, pop it and store it in the ring. *)

val retain : int option -> unit
(** [retain (Some n)]: rings grow rather than overwrite the records from
    now on, and keep at most [n] more span records; later ones are
    {!refused}. [None]: overwrite. *)

val refused : unit -> int
(** Span records refused by {!retain}'s bound since process start. *)

(** {1 Views} *)

val recorded : unit -> int
(** Sequence numbers drawn since start/reset: records and spans opened,
    including overwritten ones. *)

val dropped : unit -> int
(** Records overwritten by ring wraparound. *)

val trips : unit -> int
(** Number of {!trip}/{!emergency} calls. *)

val select : (event -> bool) -> event list
(** The retained records satisfying the predicate, sorted by [seq]. *)

val events : unit -> event list

val gather : root:int -> event list * bool
(** The retained records of the span tree rooted at [root], sorted by
    [seq], and whether the tree is complete: no domain has overwritten or
    refused a record whose [seq] is at least [root]. *)

val to_json : ?reason:string -> unit -> Json.t
(** Dump shape: [{"flight": 1, "reason", "recorded", "dropped", "trips",
    "events": [{"seq","t_ns","domain","cat","name","detail","v",
    "req_id"?}...]}] — ["req_id"] present only on request-scoped records. *)

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
