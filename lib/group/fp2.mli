(** The quadratic extension F_p² = F_p[i] / (i² + 1), the type-A target
    group's field.

    Valid whenever p ≡ 3 (mod 4), which the type-A curve parameters
    guarantee; then −1 is a quadratic non-residue so i² = −1 is irreducible.
    Elements are pairs (re, im) in Montgomery form ({!Fp.Mont}); only
    {!to_bytes} and {!of_bytes} see canonical residues. *)

type t = { re : Fp.Mont.t; im : Fp.Mont.t }

val make : Fp.Mont.t -> Fp.Mont.t -> t
val one : Fp.ctx -> t
val equal : t -> t -> bool
val is_one : Fp.ctx -> t -> bool

val conj : Fp.ctx -> t -> t
(** Conjugation (a + bi ↦ a − bi); this is the p-power Frobenius. *)

val mul : Fp.ctx -> t -> t -> t
val sqr : Fp.ctx -> t -> t

val inv : Fp.ctx -> t -> t
(** @raise Division_by_zero on 0. *)

val pow : Fp.ctx -> t -> Zkqac_bigint.Bigint.t -> t
(** @raise Invalid_argument on a negative exponent. *)

val to_bytes : Fp.ctx -> t -> string
(** Fixed-width big-endian canonical [re || im]. *)

val of_bytes : Fp.ctx -> string -> t option
(** [None] unless both halves are below p. *)
