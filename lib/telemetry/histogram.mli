(** Log-bucketed, mergeable latency histograms.

    Buckets are HDR-style: 16 linear sub-buckets per power-of-two octave of
    nanoseconds, so quantile extraction is accurate to ~6% of the value.
    Counts are plain ints, so histograms merge (and diff) pointwise — in
    particular histograms recorded on different worker domains combine
    exactly.

    A histogram is plain data: {!Stage} keeps one per stage name, and the
    server's load generator and slow-query log keep their own. *)

type t

val create : unit -> t

val record : t -> int -> unit
(** [record t ns] adds one observation of [ns] nanoseconds ([ns < 0] is
    clamped to 0). *)

val count : t -> int

val sum_ns : t -> float
(** Sum of all recorded observations, in ns. *)

val mean_ns : t -> float

val max_ns : t -> float
(** Lower bound of the largest nonempty bucket — the maximum recorded
    value to bucket resolution; 0 on an empty histogram. *)

val quantile : t -> float -> float
(** [quantile t q] for [q] in [[0,1]], in nanoseconds, by linear
    interpolation inside the target bucket. 0 on an empty histogram. *)

val merge : t -> t -> t

val sub : t -> t -> t
(** [sub later earlier] is the pointwise difference of two copies of one
    histogram taken at different times (counts and sum clamped at 0). *)

val bucket_of_ns : int -> int
(** The bucket index an observation falls into (exposed for tests). *)

val bucket_bounds : int -> float * float
(** [(lo, hi)] bounds of a bucket in ns: values [v] with
    [lo <= v < hi] land in it (exposed for tests). *)

val to_json : t -> Json.t
(** [{"count": n, "mean_ms": ..., "min_ms": ..., "max_ms": ...,
     "p50_ms": ..., "p95_ms": ..., "p99_ms": ..., "buckets": [[b,c],...]}].
    [min_ms] is the lower bound of the smallest nonempty bucket (the
    minimum to bucket resolution, ~6%), derived from the counts so it stays
    correct under {!merge} and {!sub}; [buckets] is the sparse
    [(bucket index, count)] view of every nonempty bucket, in index order —
    the form BENCH.json carries. *)
