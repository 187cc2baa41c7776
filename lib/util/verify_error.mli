(** Typed verification-failure taxonomy.

    Every client-side rejection — decode failures, resource-limit hits,
    signature mismatches, completeness gaps, envelope failures — is one of
    these constructors, so a rejection can be attributed (which check
    failed), monitored (stable {!code} strings as telemetry attributes), and
    acted on (distinct {!exit_code}s from the CLI). The adversarial suite
    ([zkqac attack]) asserts that each tamper scenario is rejected with the
    specific error its attack class predicts, never a generic catch-all. *)

type t =
  | Completeness_gap
      (** The VO regions do not account for the whole query range — a result
          row, boundary node, or pruned subtree was omitted or shrunk. *)
  | Bad_abs_signature of string
      (** An APP signature on an accessible record failed ABS.Verify; the
          payload names the failing component or equation. *)
  | Bad_aps_signature of string
      (** An APS (relaxed) signature failed to verify under the user's super
          policy — the inaccessibility proof is forged or replayed. *)
  | Bad_aps_policy of string
      (** An APS entry is structurally inconsistent with its claimed region
          (e.g. a leaf region that is not the unit cell of its key). *)
  | Record_outside_query of int array
      (** A returned record's key lies outside the query box. *)
  | Policy_not_satisfied of int array
      (** A record was returned as accessible although the verifying user
          does not satisfy its policy. *)
  | Malformed of { offset : int }
      (** Wire decoding failed at byte [offset] ([-1] when the position is
          unknown): truncation, trailing garbage, inflated length field, or
          an unparseable embedded structure. *)
  | Limit_exceeded of { what : string; limit : int }
      (** A reader resource bound ({!Wire.limits}) was hit before decoding
          could go pathological: oversized input, oversized collection count,
          or nesting too deep. *)
  | Digest_mismatch of string
      (** A checksum or MAC over the payload did not match. *)
  | Envelope_open_failed of string
      (** The CP-ABE response envelope could not be opened (the user's roles
          do not satisfy the sealing policy). *)
  | Query_mismatch
      (** The response is bound to a different query than the one issued. *)
  | Invalid_shape of string
      (** The VO decoded but has the wrong shape for the query type (e.g. an
          equality VO with more than one entry, a duplicated join pair). *)

val to_string : t -> string
(** Human-readable one-line description. *)

val code : t -> string
(** Stable kebab-case tag (one per constructor), used as the value of the
    [verify_error] telemetry span attribute and in the attack matrix. *)

val exit_code : t -> int
(** Distinct CLI exit code per constructor, in [10, 21]. [zkqac verify]
    exits with this on rejection; codes below 10 keep their usual CLI
    meanings. *)

val as_aps : t -> t
(** Reinterpret a signature failure in APS position:
    [Bad_abs_signature w] becomes [Bad_aps_signature w] (other errors pass
    through) — used by verifiers that share one signature check between APP
    and APS claims. *)
