(** Equality-query authentication (Algorithm 1) over a flat signed-record
    ADS, and the paper's "Basic" range baseline (one equality proof per
    discrete key of the range — the strawman AP²G-tree is compared against
    in Figures 7–11).

    Every key of the keyspace carries exactly one signed record — real, or a
    pseudo record with policy Role_∅ — so an equality query always has one
    matching record and the two negative outcomes ("none exists" /
    "inaccessible to you") are indistinguishable. *)

module Make (P : Zkqac_group.Pairing_intf.PAIRING) : sig
  module Abs : module type of Zkqac_abs.Abs.Make (P)
  module Vo : module type of Vo.Make (P)
  module Ap2g : module type of Ap2g.Make (P)

  type t

  val of_ap2g : Ap2g.t -> t
  (** The ADS of Algorithm 1 is exactly the leaf level of an AP²G-tree: one
      APP signature per key of the space, over a real or pseudo record. *)

  val universe : t -> Zkqac_policy.Universe.t
  val space : t -> Keyspace.t

  type outcome =
    | Result of Record.t  (** accessible: the record itself *)
    | Denied
        (** inaccessible or non-existent — indistinguishable by design *)

  val query_vo :
    Zkqac_hashing.Drbg.t ->
    mvk:Abs.mvk ->
    t ->
    user:Zkqac_policy.Attr.Set.t ->
    int array ->
    Vo.entry
  (** SP-side response for one key. *)

  val verify_equality :
    ?batch:Zkqac_hashing.Drbg.t ->
    mvk:Abs.mvk ->
    t_universe:Zkqac_policy.Universe.t ->
    user:Zkqac_policy.Attr.Set.t ->
    key:int array ->
    Vo.entry ->
    (outcome, Vo.error) result

  val range_vo :
    Zkqac_hashing.Drbg.t ->
    mvk:Abs.mvk ->
    t ->
    user:Zkqac_policy.Attr.Set.t ->
    Box.t ->
    Vo.t * Vo.query_stats
  (** The Basic baseline: one entry per key in the box. *)

  val verify_range :
    ?batch:Zkqac_hashing.Drbg.t ->
    mvk:Abs.mvk ->
    t_universe:Zkqac_policy.Universe.t ->
    user:Zkqac_policy.Attr.Set.t ->
    query:Box.t ->
    Vo.t ->
    (Record.t list, Vo.error) result
end
