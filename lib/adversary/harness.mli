(** Deterministic, seeded fault-injection harness simulating a malicious SP.

    Five small honest exchanges — equality, AP²G range, AP²kd range, join,
    and a sealed CP-ABE envelope — are built once; each registered
    {!Scenario} is then applied to each of them (structural tampers on the
    decoded VO before re-encoding, format tampers on the wire bytes, wire
    surgery on the envelope) and the tampered response is pushed through
    the client's decode-and-verify path. Every cell must be rejected with
    the error class the scenario attacks. *)

module Make (P : Zkqac_group.Pairing_intf.PAIRING) : sig
  type kind = Equality_q | Range_q | Kd_q | Join_q | Envelope_q

  val kind_name : kind -> string

  type outcome =
    | Rejected of Zkqac_util.Verify_error.t
        (** rejected, with the error class the scenario expects *)
    | Misclassified of Zkqac_util.Verify_error.t
        (** rejected, but by an unrelated check *)
    | Accepted  (** the attack went through — a security failure *)
    | Not_applicable
        (** the scenario has no target in this query type's VO *)

  type cell = { scenario : Scenario.t; kind : kind; outcome : outcome }

  type report = { seed : int; cells : cell list; ok : bool }
  (** [ok] iff every applicable cell was [Rejected]. *)

  val fixtures :
    unit ->
    (kind * string * (string -> (unit, Zkqac_util.Verify_error.t) result)) list
  (** The honest encoded response and client decode-and-verify function of
      each query-type fixture, for external property tests (e.g. the
      exhaustive single-byte-mutation sweep in the test suite). *)

  val run : ?scenario:string -> ?batched:bool -> seed:int -> unit -> report
  (** Run every scenario (or just [?scenario]) against every fixture.
      Deterministic in [seed]. With [~batched:true] every client check runs
      through the batched verification path (random-linear-combination
      weights derived from the bytes under test, as the CLI derives them
      from the VO file); its batch-reject-then-sequential-fallback contract
      means the matrix must be identical to the sequential one.
      @raise Invalid_argument on an unknown scenario name, or if an
      *untampered* fixture fails verification (harness self-check). *)

  val render : report -> string
  (** The scenario × query-type rejection matrix as a printable table. *)
end
