(** The per-stage table: what every span close records, and the op
    counters.

    Every [Trace.with_span] close makes one {!note} for its stage name:
    the span's duration, the allocation deltas of the domain-local
    counters ([Gc.counters]: minor, promoted and major words) and the GC
    pause time the runtime-events bridge ({!Rte}) attributed to the
    domain while the span was open. One cell therefore answers "how often,
    how long, how many words, how much GC" for a stage, and [Telemetry],
    [Metrics] and the bench harness all read the same cells.

    Attribution is inclusive, like span wall time: a parent span's words
    and pauses include its children's. Allocation deltas are exact per
    domain on OCaml 5, so relax jobs fanned out by [Zkqac_parallel.Pool]
    attribute to the worker domain that allocated — the per-domain tables
    double as a per-worker breakdown ({!by_domain}). *)

type cell = {
  hist : Histogram.t;
      (** span durations in ns; its count and sum are the stage's calls
          and seconds *)
  mutable minor : float;  (** words allocated in the minor heap *)
  mutable promoted : float;  (** words promoted from minor to major *)
  mutable major : float;  (** words allocated directly in the major heap *)
  mutable gc_minor_ns : int;  (** minor-GC pause time absorbed, ns *)
  mutable gc_major_ns : int;  (** major-GC pause time absorbed, ns *)
}

val count : cell -> int
(** Spans that contributed (the histogram's count). *)

val note :
  string ->
  ns:int ->
  minor:float ->
  promoted:float ->
  major:float ->
  gc_minor_ns:int ->
  gc_major_ns:int ->
  unit
(** [note stage ~ns ...] records one span close of [stage] in this
    domain's table. Lock-free with respect to other domains; negative
    deltas are clamped to 0. *)

(** {1 Op counters}

    Each domain's state also holds the op counters of [Telemetry]: one
    [int] slot per counter, bumped by the domain that did the op, without
    a lock or an atomic. *)

val op_slots : int
(** Slots per domain, one per [Telemetry.counter]. *)

val add_op : int -> int -> unit
(** [add_op i n] adds [n] to slot [i] of the calling domain's counters. *)

val ops : unit -> int array
(** Every slot summed over all domains, exited ones included. *)

(** {1 Snapshots} *)

val snapshot : unit -> (string * cell) list
(** Merge all domains' tables: every stage observed so far, sorted by
    name. The cells are copies. Taking a snapshot while worker domains are
    actively recording may miss in-flight observations; take it at a
    quiet point. *)

val by_domain : unit -> (int * cell) list
(** Per-domain totals across all stages (domain id, summed cell), sorted
    by domain id; domains that never recorded are omitted. *)

val diff :
  earlier:(string * cell) list ->
  later:(string * cell) list ->
  (string * cell) list
(** Pointwise subtraction of two snapshots; stages with no new spans are
    dropped. *)

val reset : unit -> unit
(** Clear every stage and zero every op counter in every domain's table. *)
