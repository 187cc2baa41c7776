(** Primality testing and prime generation (for pairing parameter setup). *)

val is_probable_prime : Zkqac_bigint.Bigint.t -> bool
(** Deterministic trial division by small primes followed by Miller–Rabin
    with 32 pseudo-random bases. *)

val random_prime : Zkqac_rng.Prng.t -> bits:int -> Zkqac_bigint.Bigint.t
(** Random prime with exactly [bits] significant bits. *)

val sqrt_mod :
  Zkqac_bigint.Bigint.t -> Zkqac_bigint.Bigint.t -> Zkqac_bigint.Bigint.t option
(** [sqrt_mod a p] is a square root of [a] modulo an odd prime [p], if one
    exists. Uses the p ≡ 3 (mod 4) shortcut when applicable, Tonelli–Shanks
    otherwise. *)

val legendre : Zkqac_bigint.Bigint.t -> Zkqac_bigint.Bigint.t -> int
(** Legendre symbol (a|p) in {-1, 0, 1} for odd prime p. *)
