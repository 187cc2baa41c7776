(** The quadratic extension F_p² = F_p[i] / (i² + 1).

    Valid whenever p ≡ 3 (mod 4), which the type-A curve parameters
    guarantee; then −1 is a quadratic non-residue so i² = −1 is irreducible.
    Elements are pairs (re, im) of canonical F_p residues. *)

type t = { re : Zkqac_bigint.Bigint.t; im : Zkqac_bigint.Bigint.t }

val zero : t
val one : t
val make : Zkqac_bigint.Bigint.t -> Zkqac_bigint.Bigint.t -> t
val equal : t -> t -> bool
val is_zero : t -> bool
val is_one : t -> bool
val add : Fp.ctx -> t -> t -> t
val sub : Fp.ctx -> t -> t -> t
val neg : Fp.ctx -> t -> t
val mul : Fp.ctx -> t -> t -> t
val sqr : Fp.ctx -> t -> t
val inv : Fp.ctx -> t -> t
(** @raise Division_by_zero on 0. *)

val conj : Fp.ctx -> t -> t
(** Conjugation (a + bi ↦ a − bi); this is the p-power Frobenius. *)

val pow : Fp.ctx -> t -> Zkqac_bigint.Bigint.t -> t
(** Runs in Montgomery form. @raise Invalid_argument on a negative
    exponent. *)

(** F_p² over {!Fp.Mont}: the Miller loop's accumulator and the final
    exponentiation run here, and convert to {!t} once, at the end. *)
module Mont : sig
  type fp2 := t
  type t = { re : Fp.Mont.t; im : Fp.Mont.t }

  val to_fp2 : Fp.ctx -> t -> fp2
  val make : Fp.Mont.t -> Fp.Mont.t -> t
  val one : Fp.ctx -> t
  val conj : Fp.ctx -> t -> t
  val mul : Fp.ctx -> t -> t -> t
  val sqr : Fp.ctx -> t -> t
  val inv : Fp.ctx -> t -> t
  val pow : Fp.ctx -> t -> Zkqac_bigint.Bigint.t -> t
end

val to_bytes : Fp.ctx -> t -> string
(** Fixed-width big-endian [re || im]. *)

val of_bytes : Fp.ctx -> string -> t option
