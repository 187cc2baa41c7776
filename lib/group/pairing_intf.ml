(** The symmetric bilinear-pairing abstraction the whole system is built on.

    The paper (like the PBC library its authors used) works with a symmetric
    ("type-1") pairing e : G x G -> Gt on groups of prime order [order]. Two
    implementations are provided:

    - {!Typea}: a real supersingular-curve Tate pairing, the same curve family
      as PBC's default "type a" parameters;
    - {!Mock}: the generic-group model of the paper's own security proof
      (Appendix B), where elements are opaque discrete logs. It satisfies
      every equation of the protocols at a fraction of the cost, and is the
      default backend for large benchmarks. *)

module type PAIRING = sig
  val name : string

  val order : Zkqac_bigint.Bigint.t
  (** Prime order of G and Gt; scalars live in Z_order. *)

  module G : sig
    type t

    val one : t
    (** Identity element. *)

    val g : t
    (** Fixed generator. *)

    val mul : t -> t -> t
    val inv : t -> t
    val pow : t -> Zkqac_bigint.Bigint.t -> t
    val equal : t -> t -> bool
    val is_one : t -> bool

    val to_bytes : t -> string
    (** Fixed-width canonical encoding (used for VO sizing and hashing). *)

    val of_bytes : string -> t option

    val of_bytes_unchecked : string -> t option
    (** As {!of_bytes} but without the subgroup check: the encoding must
        be canonical and, on a curve, name a point of the curve, which may
        lie outside the order-[order] subgroup. Only for bytes whose group
        membership no verifier relies on: the SP decodes its own
        checkpoint's signatures with it, and the client's decode checks
        every element it is sent (DESIGN.md §7). *)

    val hash_to : string -> t
    (** Hash arbitrary bytes to a group element of full order. *)

    type table
    (** Precomputed powers of one fixed base. *)

    val precompute : t -> table

    val pow_prod : (table * Zkqac_bigint.Bigint.t) list -> t
    (** [pow_prod [(t1, k1); ...; (tn, kn)]] is ∏ bᵢ^kᵢ, where tᵢ is the
        table of bᵢ; each exponent is reduced mod [order], so negative and
        ≥ [order] ones need no care. Equal to folding {!mul} over {!pow},
        but the type-A backend adds up table entries in one Jacobian
        accumulator with one final inversion and no doubling. The empty
        product is {!one}. *)
  end

  module Gt : sig
    type t

    val one : t
    val mul : t -> t -> t
    val inv : t -> t
    val pow : t -> Zkqac_bigint.Bigint.t -> t
    val equal : t -> t -> bool
    val is_one : t -> bool
    val to_bytes : t -> string
    val of_bytes : string -> t option
  end

  val e : G.t -> G.t -> Gt.t
  (** The bilinear map. *)

  val e_prod : (G.t * G.t) list -> Gt.t
  (** [e_prod [(p1,q1); ...; (pn,qn)]] is the product ∏ e(pi, qi).

      Semantically equivalent to folding {!Gt.mul} over individual {!e}
      calls, but implementations share work across the terms: the type-A
      backend runs one accumulated Miller loop over all pairs and performs
      a single final exponentiation, so n-term products cost roughly one
      pairing plus (n-1) Miller loops instead of n full pairings. The
      empty product is {!Gt.one}; identity arguments contribute nothing. *)

  val rand_scalar : Zkqac_hashing.Drbg.t -> Zkqac_bigint.Bigint.t
  (** Uniform in [1, order). *)

  val rand_g : Zkqac_hashing.Drbg.t -> G.t
  (** Uniform non-identity group element. *)
end

type t = (module PAIRING)
