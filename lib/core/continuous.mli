(** Continuous query attributes under relaxed confidentiality (Section 9.2).

    When zero-knowledge is relaxed to access-policy confidentiality, the DO
    can treat the gaps between consecutive (1-D, continuous) keys as pseudo
    *regions* with policy Role_∅ instead of discretizing the whole domain:
    the DO signs one APP signature per gap — (-∞, o₁), (o₁, o₂), …,
    (o_n, +∞) — and the SP proves emptiness of any queried gap with a
    relaxed signature. This discloses the distribution of the keys (which
    gap boundaries exist) but nothing about inaccessible contents or
    policies. *)

module Make (P : Zkqac_group.Pairing_intf.PAIRING) : sig
  module Abs : module type of Zkqac_abs.Abs.Make (P)

  type t

  type entry =
    | Rec_accessible of { record : Record.t; app : Abs.signature }
    | Rec_inaccessible of { key : int; value_hash : string; aps : Abs.signature }
    | Gap of { lo : int option; hi : int option; aps : Abs.signature }
        (** the open interval (lo, hi); [None] encodes ±∞ *)

  type vo = entry list

  val build :
    Zkqac_hashing.Drbg.t ->
    mvk:Abs.mvk ->
    sk:Abs.signing_key ->
    universe:Zkqac_policy.Universe.t ->
    Record.t list ->
    t
  (** Records must have 1-D distinct keys (arbitrary ints — no keyspace
      bound: the domain is "continuous"). *)

  val num_signatures : t -> int

  val equality_vo :
    Zkqac_hashing.Drbg.t -> mvk:Abs.mvk -> t -> user:Zkqac_policy.Attr.Set.t -> int -> entry

  val range_vo :
    Zkqac_hashing.Drbg.t ->
    mvk:Abs.mvk ->
    t ->
    user:Zkqac_policy.Attr.Set.t ->
    lo:int ->
    hi:int ->
    vo

  val verify_range :
    ?batch:Zkqac_hashing.Drbg.t ->
    mvk:Abs.mvk ->
    t_universe:Zkqac_policy.Universe.t ->
    user:Zkqac_policy.Attr.Set.t ->
    lo:int ->
    hi:int ->
    vo ->
    (Record.t list, Vo.Make(P).error) result
  (** Gap-chain completeness plus soundness per entry: the returned records
      and open gaps must jointly cover every integer of [lo, hi]. Structure
      is checked first, then every signature in one {!Abs.check} with
      [batch] passed through. *)
end
