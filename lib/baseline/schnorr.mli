(** Schnorr signatures over the pairing group G.

    The classical baselines of Figure 1 (signature chaining and Merkle hash
    trees) need an ordinary digital signature; Schnorr over the same group
    infrastructure keeps the comparison apples-to-apples. *)

module Make (P : Zkqac_group.Pairing_intf.PAIRING) : sig
  type secret
  type public
  type signature

  val keygen : Zkqac_hashing.Drbg.t -> secret * public
  val sign : Zkqac_hashing.Drbg.t -> secret -> string -> signature
  val verify : public -> string -> signature -> bool
  val to_bytes : signature -> string
  val of_bytes : string -> signature option
end
