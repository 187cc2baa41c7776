(** The prime field F_p. Elements live in Montgomery form ({!Mont}) from
    decode to encode: a curve coordinate or an F_p² component is a
    {!Mont.t}, and only the byte codecs and hash-to-point see canonical
    {!Zkqac_bigint.Bigint.t} residues, through {!Mont.of_fp} and
    {!Mont.to_fp}. *)

type ctx
(** The modulus and its Montgomery constants. Read-only once created, so one
    context serves any number of domains. *)

val create : Zkqac_bigint.Bigint.t -> ctx
(** @raise Invalid_argument unless the modulus is odd and > 2. *)

val modulus : ctx -> Zkqac_bigint.Bigint.t

(** {1 Canonical residues}

    A product and an inverse of residues in [[0, p)], for callers that
    time one field operation from outside the library. No type-A path
    calls them. *)

val mul : ctx -> Zkqac_bigint.Bigint.t -> Zkqac_bigint.Bigint.t -> Zkqac_bigint.Bigint.t
(** Two kernel products; no conversion into Montgomery form. *)

val inv : ctx -> Zkqac_bigint.Bigint.t -> Zkqac_bigint.Bigint.t
(** @raise Division_by_zero on 0. *)

(** {1 Montgomery form}

    A residue a is held as a·R mod p in a fixed number of 26-bit limbs,
    R = 2^(26·limbs), always reduced below p, so equal residues have equal
    limbs. Every operation returns a fresh value. *)

module Mont : sig
  type t

  val of_fp : ctx -> Zkqac_bigint.Bigint.t -> t
  (** Into Montgomery form, from a canonical residue. *)

  val to_fp : ctx -> t -> Zkqac_bigint.Bigint.t
  (** Back to the canonical residue. *)

  val zero : ctx -> t
  val one : ctx -> t
  val is_zero : t -> bool
  val equal : t -> t -> bool
  val add : ctx -> t -> t -> t
  val sub : ctx -> t -> t -> t
  val neg : ctx -> t -> t
  val mul : ctx -> t -> t -> t
  val sqr : ctx -> t -> t

  val inv : ctx -> t -> t
  (** @raise Division_by_zero on 0. *)

  val pow : ctx -> t -> Zkqac_bigint.Bigint.t -> t
  (** @raise Invalid_argument on a negative exponent. *)

  val sqrt : ctx -> t -> t option
  (** a^((p+1)/4) when p ≡ 3 (mod 4), Tonelli–Shanks otherwise. *)
end
