(** The prime field F_p, as a context of operations over canonical residues.

    Elements are {!Zkqac_bigint.Bigint.t} values in [[0, p)]; all operations
    assume (and preserve) canonical form. Products, squares and powers run
    on the fixed-width Montgomery kernel {!Mont}. *)

type ctx
(** The modulus and its Montgomery constants. Read-only once created, so one
    context serves any number of domains. *)

val create : Zkqac_bigint.Bigint.t -> ctx
(** @raise Invalid_argument unless the modulus is odd and > 2. *)

val modulus : ctx -> Zkqac_bigint.Bigint.t
val zero : Zkqac_bigint.Bigint.t
val one : Zkqac_bigint.Bigint.t
val of_bigint : ctx -> Zkqac_bigint.Bigint.t -> Zkqac_bigint.Bigint.t
val of_int : ctx -> int -> Zkqac_bigint.Bigint.t
val add : ctx -> Zkqac_bigint.Bigint.t -> Zkqac_bigint.Bigint.t -> Zkqac_bigint.Bigint.t
val sub : ctx -> Zkqac_bigint.Bigint.t -> Zkqac_bigint.Bigint.t -> Zkqac_bigint.Bigint.t
val neg : ctx -> Zkqac_bigint.Bigint.t -> Zkqac_bigint.Bigint.t
val mul : ctx -> Zkqac_bigint.Bigint.t -> Zkqac_bigint.Bigint.t -> Zkqac_bigint.Bigint.t
val sqr : ctx -> Zkqac_bigint.Bigint.t -> Zkqac_bigint.Bigint.t
val inv : ctx -> Zkqac_bigint.Bigint.t -> Zkqac_bigint.Bigint.t
(** @raise Division_by_zero on 0. *)

val div : ctx -> Zkqac_bigint.Bigint.t -> Zkqac_bigint.Bigint.t -> Zkqac_bigint.Bigint.t
val pow : ctx -> Zkqac_bigint.Bigint.t -> Zkqac_bigint.Bigint.t -> Zkqac_bigint.Bigint.t
val sqrt : ctx -> Zkqac_bigint.Bigint.t -> Zkqac_bigint.Bigint.t option
val equal : Zkqac_bigint.Bigint.t -> Zkqac_bigint.Bigint.t -> bool
val is_zero : Zkqac_bigint.Bigint.t -> bool

(** {1 Montgomery form}

    The kernel every product runs on. A residue a is held as a·R mod p in
    a fixed number of 26-bit limbs, R = 2^(26·limbs). Scalar
    multiplications, tables, decodes and pairings convert into this form
    when they start and out of it when they end. Every operation returns a
    fresh value. *)

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
  (** The same root {!val-sqrt} returns, in Montgomery form. *)
end
