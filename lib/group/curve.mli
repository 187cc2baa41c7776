(** The supersingular curve E : y² = x³ + x over F_p (p ≡ 3 mod 4).

    With p ≡ 3 (mod 4), E is supersingular with #E(F_p) = p + 1 and embedding
    degree 2 — the same curve family as the PBC library's "type a" pairing
    parameters used by the paper's implementation.

    Coordinates are in Montgomery form ({!Fp.Mont}) everywhere: affine
    points, Jacobian points and table entries. Canonical residues appear
    only in {!to_bytes}, {!of_bytes} and {!hash_to_point}. *)

type point = Infinity | Affine of Fp.Mont.t * Fp.Mont.t

val equal : point -> point -> bool
val is_infinity : point -> bool
val neg : Fp.ctx -> point -> point
val is_on_curve : Fp.ctx -> point -> bool
val add : Fp.ctx -> point -> point -> point
val double : Fp.ctx -> point -> point

val mul : Fp.ctx -> Zkqac_bigint.Bigint.t -> point -> point
(** Scalar multiplication; scalar must be >= 0. Runs in Jacobian
    coordinates and inverts once, to return the affine result. *)

val mul_is_infinity : Fp.ctx -> Zkqac_bigint.Bigint.t -> point -> bool
(** [mul_is_infinity c k p] is [is_infinity (mul c k p)], without the
    final inversion: the subgroup check of a decode. *)

(** {2 Jacobian coordinates}

    [{x; y; z}] stands for the affine point (x / z², y / z³); z = 0 is
    infinity. The Miller loop keeps its running point in this form. *)

type jacobian = { x : Fp.Mont.t; y : Fp.Mont.t; z : Fp.Mont.t }

val of_affine : Fp.ctx -> point -> jacobian

val jdouble : Fp.ctx -> jacobian -> jacobian * Fp.Mont.t
(** [2V] and M = 3X² + Z⁴: the tangent at V has slope M / 2YZ. *)

val jadd :
  Fp.ctx ->
  jacobian ->
  Fp.Mont.t ->
  Fp.Mont.t ->
  [ `Sum of jacobian * Fp.Mont.t | `Same | `Opposite ]
(** [jadd c v xp yp] for finite V and affine P = (xp, yp): [`Sum (V + P, R)]
    where the chord through V and P has slope R / z(V + P); [`Same] if
    V = P, [`Opposite] if V = −P. *)

(** {2 Fixed-base tables} *)

type table
(** Affine multiples of one base for 4-bit windows: 15 entries per window,
    [d·16^i·P] for each digit d of window i. *)

val precompute : Fp.ctx -> bits:int -> point -> table
(** The table of [P] for scalars of at most [bits] bits. Built in Jacobian
    form and made affine with one batch inversion. *)

val mul_prod : Fp.ctx -> (table * Zkqac_bigint.Bigint.t) list -> point
(** [mul_prod c [(t1, k1); ...]] is Σ kᵢ·Pᵢ: one mixed addition per
    non-zero scalar nibble into one Jacobian accumulator, and one final
    inversion. @raise Invalid_argument on a negative scalar or one wider
    than its table. *)

val hash_to_point : Fp.ctx -> domain:string -> string -> point
(** Try-and-increment: hash to an x-coordinate, bump until x³+x is square.
    The result is on the full curve; callers multiply by the cofactor to land
    in the prime-order subgroup. *)

val to_bytes : Fp.ctx -> point -> string
(** Compressed encoding: one tag byte (0 = infinity, 2/3 = parity of the
    canonical y) plus the canonical x-coordinate, fixed width. *)

val of_bytes : Fp.ctx -> string -> point option
