(** Verified aggregation over authenticated range queries — the paper's
    stated future work ("extend the proposed techniques to support more
    complex queries, such as aggregation"), implemented the natural way: the
    user verifies the range VO as usual (soundness + completeness over the
    accessible records) and then folds the aggregate locally over the
    verified result set. The guarantee inherited from Theorem 7.6 is that
    the aggregate is exactly the aggregate over the accessible records in
    range — no record can be injected, dropped or altered without detection,
    and nothing beyond accessible records influences (or is revealed by) the
    value. *)

module Make (P : Zkqac_group.Pairing_intf.PAIRING) : sig
  module Ap2g : module type of Ap2g.Make (P)
  module Vo : module type of Vo.Make (P)

  type 'a verified = { value : 'a; over : int (** records aggregated *) }

  val count :
    ?batch:Zkqac_hashing.Drbg.t ->
    mvk:Ap2g.Abs.mvk ->
    tree_universe:Zkqac_policy.Universe.t ->
    ?hierarchy:Zkqac_policy.Hierarchy.t ->
    user:Zkqac_policy.Attr.Set.t ->
    query:Box.t ->
    Vo.t ->
    (int verified, Vo.error) result
  (** Verified COUNT of accessible records in range. *)

  val fold :
    ?batch:Zkqac_hashing.Drbg.t ->
    mvk:Ap2g.Abs.mvk ->
    tree_universe:Zkqac_policy.Universe.t ->
    ?hierarchy:Zkqac_policy.Hierarchy.t ->
    user:Zkqac_policy.Attr.Set.t ->
    query:Box.t ->
    extract:(Record.t -> 'a option) ->
    combine:('b -> 'a -> 'b) ->
    init:'b ->
    Vo.t ->
    ('b verified, Vo.error) result
  (** General verified fold; records whose payload fails to [extract] are
      skipped (but still counted in [over] as verified results). *)

  val sum :
    ?batch:Zkqac_hashing.Drbg.t ->
    mvk:Ap2g.Abs.mvk ->
    tree_universe:Zkqac_policy.Universe.t ->
    ?hierarchy:Zkqac_policy.Hierarchy.t ->
    user:Zkqac_policy.Attr.Set.t ->
    query:Box.t ->
    extract:(Record.t -> float option) ->
    Vo.t ->
    (float verified, Vo.error) result
end
