(** Hierarchical query tracing over the span store, with Perfetto export.

    Where {!Telemetry} answers "how much did this process spend per stage in
    aggregate", [Trace] answers "where did {e this} query spend its time":
    every {!with_span} produces one timed span with a parent link, so a
    range query becomes a tree — the query root, the traversal, the relax
    fan-out, each ABS operation — attributed to the domains that ran them.

    A span's parent is the innermost span open {e on the same domain},
    unless a [?parent] context is passed: [Zkqac_parallel.Pool] hands the
    caller's context to its workers, which is how relax jobs on worker
    domains appear under the query that spawned them.

    Every close stores the span's record in its domain's {!Flight} ring and
    makes one {!Stage.note} (duration, allocation words, GC pause time). A
    trace is the view of the span records stored between {!enable} and
    {!disable}: meanwhile the rings grow instead of overwriting, until the
    capacity given to {!enable} is kept; later spans are counted in
    {!dropped}. With the store disabled, [f] receives {!none}. *)

type value = Flight.value = Int of int | Float of float | Str of string | Bool of bool

type ctx = Flight.event
(** A handle to an open span, used as an explicit parent and to attach
    attributes. Contexts may be sent across domains. *)

val none : ctx
(** The empty context: a span with [~parent:none] is a root. *)

val ctx_id : ctx -> int
(** The span id behind a context (0 for {!none}) — the [root] of every
    descendant of a root context. *)

(** {1 Switching} *)

val enabled : unit -> bool

val enable : ?capacity:int -> unit -> unit
(** Start a trace (clears any previous one) keeping at most [capacity]
    spans across all domains (default 65536).
    @raise Invalid_argument if [capacity < 1]. *)

val disable : unit -> unit
(** End the trace; its records stay readable until the rings wrap. *)

val reset : unit -> unit
(** Start the view afresh and zero the dropped counter; keeps the
    enabled/disabled state and capacity. Timestamps restart near zero. *)

(** {1 Recording} *)

val with_span :
  ?parent:ctx ->
  ?req_id:int64 ->
  ?attrs:(string * value) list ->
  string ->
  (ctx -> 'a) ->
  'a
(** [with_span name f] times [f], passing it the new span's context.
    [req_id] is exported as a ["req_id"] attribute. The span is recorded
    even if [f] raises. *)

val set_attr : ctx -> string -> value -> unit
(** Attach an attribute (result rows, VO bytes, relax count, ...) to a span
    from inside its [with_span] callback. No-op on {!none}. *)

val set_attrs : ctx -> (string * value) list -> unit

(** {1 Inspection and export} *)

val span_count : unit -> int
val dropped : unit -> int

val spans : unit -> Flight.event list
(** The trace's span records merged across domains, in start order. *)

val start_ns : Flight.event -> int
(** A span's start, ns since the last {!enable}/{!reset} (or process
    start before either). *)

val attrs_json : Flight.event -> (string * Json.t) list
(** A span's attributes as JSON, its request id first as ["req_id"]. *)

val chrome_json_of_spans : Flight.event list -> Json.t
(** Chrome trace-event JSON for just the given spans, without GC slices:
    the slowlog's per-incident Perfetto file. *)

val write_chrome : string -> unit
(** Write the trace to a file as Chrome trace-event JSON — loadable in
    Perfetto (https://ui.perfetto.dev) or chrome://tracing. One complete
    ("X") event per span with [ts]/[dur] in microseconds and [tid] = domain
    id; span ids and parent links are in [args]; {!Rte} GC slices ride
    along as [cat = "gc"] tracks. [otherData.dropped_gc_slices] counts
    slices the {!Rte} ring overwrote since its reset (some may predate this
    trace), and [otherData.lost_runtime_events] the runtime events it never
    read ({!Rte.lost_events}). *)

val print_tree : out_channel -> unit
(** Plain-text rendering of the span forest, children indented under
    parents, with durations, tids and attributes. *)
