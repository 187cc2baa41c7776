(** Continuous query attributes under relaxed confidentiality (Section 9.2).

    When zero-knowledge is relaxed to access-policy confidentiality, the DO
    can treat the gaps between consecutive (1-D, continuous) keys as pseudo
    *regions* with policy Role_∅ instead of discretizing the whole domain:
    the DO signs one APP signature per gap — (-∞, o₁), (o₁, o₂), …,
    (o_n, +∞) — and the SP proves emptiness of any queried gap with a
    relaxed signature. This discloses the distribution of the keys (which
    gap boundaries exist) but nothing about inaccessible contents or
    policies.

    A VO is a {!Vo.Make.t} under [`Plain] binding: a record is an
    [Accessible] or [Inaccessible_leaf] entry on its unit cell, and the gap
    between keys a < b is an [Inaccessible_node] on the half-open box
    [a + 1, b), signed over {!Record.node_message} of that box. The VO
    codec writes every coordinate as a u32, so the key domain is
    [0, 2{^32} − 1): the infinite ends are 0 and 2{^32} − 1, a key needs
    its unit cell inside the domain, and a query must lie in it too (any
    part outside is a [Completeness_gap]). *)

module Make (P : Zkqac_group.Pairing_intf.PAIRING) : sig
  module Abs : module type of Zkqac_abs.Abs.Make (P)

  type t

  val build :
    Zkqac_hashing.Drbg.t ->
    mvk:Abs.mvk ->
    sk:Abs.signing_key ->
    universe:Zkqac_policy.Universe.t ->
    Record.t list ->
    t
  (** Records must have 1-D distinct keys in [0, 2{^32} − 1) — no
      keyspace grid: the domain is "continuous".
      @raise Invalid_argument otherwise. *)

  val num_signatures : t -> int

  val equality_vo :
    Zkqac_hashing.Drbg.t ->
    mvk:Abs.mvk ->
    t ->
    user:Zkqac_policy.Attr.Set.t ->
    int ->
    Vo.Make(P).entry
  (** The record at the key, or the gap holding it.
      @raise Invalid_argument for a key outside the domain. *)

  val range_vo :
    Zkqac_hashing.Drbg.t ->
    mvk:Abs.mvk ->
    t ->
    user:Zkqac_policy.Attr.Set.t ->
    lo:int ->
    hi:int ->
    Vo.Make(P).t * Vo.Make(P).query_stats
  (** The records in [lo, hi] in key order, then the gaps that meet it. *)

  val verify_range :
    ?batch:Zkqac_hashing.Drbg.t ->
    mvk:Abs.mvk ->
    t_universe:Zkqac_policy.Universe.t ->
    user:Zkqac_policy.Attr.Set.t ->
    lo:int ->
    hi:int ->
    Vo.Make(P).t ->
    (Record.t list, Vo.Make(P).error) result
  (** {!Vo.Make.verify} over [lo, hi]. The gaps reach past the query and
      are clipped to it like any region; an entry that misses the query is
      refused. *)
end
