(** Hierarchical query tracing with per-domain buffers and Perfetto export.

    Where {!Telemetry} answers "how much did this process spend per stage in
    aggregate", [Trace] answers "where did {e this} query spend its time":
    every {!with_span} produces one timed span with a parent link, so a range
    query becomes a tree — the query root, the traversal, the relax fan-out,
    and each ABS operation — with spans attributed to the OCaml domain that
    ran them ([tid]).

    Parent context is explicit: a span's parent is the innermost span open
    {e on the same domain}, unless a [?parent] context is passed. Crossing a
    domain boundary therefore requires handing the parent context over —
    [Zkqac_parallel.Pool] does this for its workers, which is how relax jobs
    running on worker domains appear under the query that spawned them.

    Recording is domain-safe and bounded: closed spans go into per-domain
    buffers whose total size is capped by the capacity given to {!enable};
    beyond it spans are counted in {!dropped} and discarded, so the hot path
    never allocates unboundedly. Every span close, traced or not, makes one
    {!Stage.note} — duration, allocation words and GC pause time — into the
    per-stage table that [Telemetry.snapshot] and [Metrics] report, and one
    {!Flight.record} while the flight recorder is enabled (its default).
    Tracing and the close hook decide only whether the span also gets a
    record on its domain's open-span stack: with both off (the default),
    [f] receives {!none}. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type ctx
(** A handle to a span, used as an explicit parent and to attach attributes.
    Contexts may be sent across domains. *)

val none : ctx
(** The empty context: a span with [~parent:none] is a root. *)

val ctx_id : ctx -> int
(** The span id behind a context (0 for {!none}) — what {!info.span_root}
    of every descendant will report for a root context. *)

(** {1 Switching} *)

val enabled : unit -> bool

val enable : ?capacity:int -> unit -> unit
(** Start recording (clears any previous trace). [capacity] bounds the total
    number of retained spans across all domains (default 65536).
    @raise Invalid_argument if [capacity < 1]. *)

val disable : unit -> unit
(** Stop recording. Buffers are retained for export. *)

val reset : unit -> unit
(** Drop all recorded spans and zero the dropped counter; keeps the
    enabled/disabled state and capacity. Timestamps restart near zero. *)

(** {1 Recording} *)

val with_span :
  ?parent:ctx -> ?attrs:(string * value) list -> string -> (ctx -> 'a) -> 'a
(** [with_span name f] times [f], passing it the new span's context
    ({!none} unless tracing or a close hook is on). Parent: [?parent] if
    given, else the innermost open span of this domain, else none. The span
    is recorded even if [f] raises. *)

val set_attr : ctx -> string -> value -> unit
(** Attach an attribute (result rows, VO bytes, relax count, ...) to a span
    from inside its [with_span] callback. No-op on {!none}. *)

val set_attrs : ctx -> (string * value) list -> unit

(** {1 Inspection and export} *)

val span_count : unit -> int
val dropped : unit -> int

(** A closed span, for programmatic consumption (timestamps relative to the
    last {!enable}/{!reset}, or to process start before either). *)
type info = {
  span_id : int;
  span_parent : int;  (** 0 = root *)
  span_root : int;  (** id of this span's tree root (= [span_id] for roots) *)
  span_name : string;
  span_tid : int;  (** domain id that ran the span *)
  start_ns : int64;
  dur_ns : int64;
  span_attrs : (string * value) list;
}

val set_close_hook : (info -> unit) option -> unit
(** Install (or clear) the process-wide span-close hook. While installed,
    the hook fires once for every span as it closes, tracing enabled or
    not, including spans the retention budget discarded — so a long-lived
    server collects complete per-request trees without retaining any. The
    hook runs on the closing domain's thread: keep it fast; exceptions it
    raises are swallowed. One hook slot exists process-wide (latest wins). *)

val spans : unit -> info list
(** All recorded spans merged across domains, sorted by start time. Take at
    a quiet point (no worker domains recording). *)

val chrome_json_of_spans : info list -> Json.t
(** Chrome trace-event JSON for just the given spans — the per-incident
    export used by the server's slow-query log (one Perfetto file per
    sampled request). GC slices are not included; {!write_chrome} adds
    them. *)

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
