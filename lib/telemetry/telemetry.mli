(** Op-level cost accounting and stage timing for the whole system.

    The paper (Section 10) and related systems account query-authentication
    costs in group/pairing operations; this module makes those counts — and
    per-stage wall time — observable at runtime without changing any
    protocol code path.

    Counting is always on. The counters live in the per-domain {!Stage}
    state: each domain bumps its own slots without a lock or an atomic,
    and every reader ({!get}, {!snapshot}, the [zkqac_ops_total] metric)
    sums the domains, so relax jobs fanned out by [Zkqac_parallel.Pool]
    count correctly. Named spans accumulate in the same per-domain table,
    and are only placed at coarse stage boundaries (DO setup, ADS build,
    SP query, relax fan-out, envelope seal/open, client verify), never
    per-op.

    Typical profiling session:
    {[
      let before = Telemetry.snapshot () in
      ... run a query ...
      let cost = Telemetry.diff ~earlier:before ~later:(Telemetry.snapshot ()) in
      Telemetry.print stdout cost
    ]} *)

(** The expensive primitives we count. [G] is the (symmetric) source group,
    [Gt] the target group of the pairing. *)
type counter =
  | Pairing  (** bilinear map evaluations e(·,·) *)
  | G_exp  (** exponentiations in G *)
  | G_mul  (** multiplications (and inversions) in G *)
  | Gt_exp  (** exponentiations in Gt *)
  | Gt_mul  (** multiplications (and inversions) in Gt *)
  | Sha256_compress  (** SHA-256 compression-function invocations *)
  | Abs_sign  (** ABS.Sign calls *)
  | Abs_verify
      (** ABS verifications: one per single-signature check and one per
          batched pairing product, however many signatures it holds *)
  | Abs_relax  (** ABS.Relax calls *)
  | Cpabe_encrypt  (** CP-ABE encryptions *)
  | Cpabe_decrypt  (** CP-ABE decryption attempts *)
  | Multi_pairing  (** multi-pairing e_prod evaluations (shared Miller loop) *)
  | Multi_pairing_terms  (** total pairing terms folded into e_prod calls *)

val all_counters : counter list

val counter_name : counter -> string
(** Stable snake_case name, used as the JSON key. *)

(** {1 Recording (called from instrumented code)} *)

val bump : counter -> unit
(** Increment a counter in the calling domain's slots. *)

val bump_n : counter -> int -> unit

(** {1 Snapshots} *)

type span_stat = { calls : int; seconds : float }

type snapshot

val snapshot : unit -> snapshot
(** Copy of all counters and of the {!Stage} table at this instant. Take
    it at a quiet point, like {!Stage.snapshot}. *)

val diff : earlier:snapshot -> later:snapshot -> snapshot
(** Pointwise subtraction: the cost of the region between two snapshots.
    This is the reset-free way to profile a code region — nothing global is
    cleared, so concurrent profiled regions do not interfere. *)

val reset : unit -> unit
(** Zero all counters and clear the {!Stage} table (latency, allocation
    and GC-pause rows alike). Prefer {!snapshot}/{!diff}. *)

val get : counter -> int
(** Current value of one counter, summed over all domains. *)

val ops : snapshot -> (counter * int) list
(** All counters in declaration order. *)

val spans : snapshot -> (string * span_stat) list
(** Spans sorted by name: calls and seconds are each stage's histogram
    count and sum. Zero entries (from {!diff}) are dropped. *)

val stages : snapshot -> (string * Stage.cell) list
(** The snapshot's {!Stage} cells, sorted by name — the per-stage
    histograms and allocation words that BENCH.json reports. *)

(** {1 Reporting} *)

val ops_json : snapshot -> Json.t
(** Object mapping counter names to counts. *)

val spans_json : snapshot -> Json.t
(** Object mapping span names to [{"calls": n, "seconds": s}]. *)

val to_json : snapshot -> Json.t
(** [{"ops": ..., "spans": ...}]. *)

val print : out_channel -> snapshot -> unit
(** Human-readable cost breakdown (nonzero counters and all spans). *)
