(** Arbitrary-precision signed integers.

    Sign-magnitude representation over base-[2^26] limbs. This module is the
    arithmetic substrate for the finite fields, elliptic curves and pairings
    used by the rest of the library; it intentionally exposes only the
    operations those layers need, all of which are total unless documented
    otherwise. *)

type t

val zero : t
val one : t
val two : t

(** {1 Conversions} *)

val of_int : int -> t
val to_int : t -> int
(** @raise Failure if the value does not fit in an OCaml [int]. *)

val of_string : string -> t
(** Decimal, with optional leading [-]; also accepts a [0x] prefix for
    hexadecimal. @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** Decimal rendering. *)

val to_hex : t -> string
(** Lowercase hexadecimal of the magnitude, with a [-] prefix if negative. *)

val of_bytes_be : string -> t
(** Big-endian unsigned magnitude. The empty string is [zero]. *)

val to_bytes_be_pad : int -> t -> string
(** Big-endian magnitude of [abs t], left-padded with zero bytes to exactly
    the given length. @raise Invalid_argument if the magnitude does not
    fit. *)

(** {1 Predicates and comparison} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val is_zero : t -> bool
val is_one : t -> bool
val is_even : t -> bool

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val div : t -> t -> t
val rem : t -> t -> t
(** [div a b] and [rem a b] are [q] and [r] with [a = q*b + r] and
    [0 <= r < |b|] (Euclidean remainder: [r] is always non-negative).
    @raise Division_by_zero. *)

val erem : t -> t -> t
(** Euclidean remainder, always in [0, |b|). Alias of {!rem}. *)

(** {1 Bit operations} *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t
val testbit : t -> int -> bool
val num_bits : t -> int
(** Number of significant bits of the magnitude; [num_bits zero = 0]. *)

(** {1 Modular arithmetic} *)

val powmod : t -> t -> t -> t
(** [powmod b e m] is [b^e mod m] for [e >= 0], result in [0, m).
    @raise Invalid_argument if [e < 0] or [m <= 0]. *)

val invmod : t -> t -> t
(** Modular inverse in [0, m). @raise Division_by_zero if not invertible. *)

val gcd : t -> t -> t

(** {1 Fixed-width limbs} *)

val limb_bits : int
(** Bits per limb: 26. *)

val to_limbs : int -> t -> int array
(** [to_limbs n x] is [x] as exactly [n] little-endian limbs of
    {!limb_bits} bits each; the result is a fresh array.
    @raise Invalid_argument if [x] is negative or needs more than [n]
    limbs. *)

val of_limbs : int array -> t
(** The non-negative value of little-endian limbs, each in
    [[0, 2^limb_bits)]. The result shares nothing with the argument. *)

(** {1 Infix operators} *)

module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( mod ) : t -> t -> t
  val ( = ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
end

val pp : Format.formatter -> t -> unit
