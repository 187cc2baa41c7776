(** The access-policy-preserving k-d tree (AP²kd-tree, Section 9.1).

    Usable when zero-knowledge confidentiality is relaxed to access-policy
    confidentiality: the tree shape may (and does) depend on the data. Each
    internal node splits its region into two half-spaces at the hyperplane
    minimizing the DNF clause-set intersection objective (Algorithm 7), so a
    typical user can be pruned with a single APS signature per inaccessible
    half-space. Empty regions become single pseudo-region nodes (the
    Section 9.2 treatment) instead of exponentially many pseudo records.

    Leaf messages bind the leaf's region box in addition to the record
    (the [`Boxed] VO binding) because, unlike the grid tree, a leaf's region
    is data-dependent and must be authenticated for completeness. *)

module Make (P : Zkqac_group.Pairing_intf.PAIRING) : sig
  module Abs : module type of Zkqac_abs.Abs.Make (P)
  module Vo : module type of Vo.Make (P)

  type t

  type build_stats = {
    leaf_signatures : int;
    node_signatures : int;
    pseudo_regions : int;
    sign_time : float;
    structure_bytes : int;
    signature_bytes : int;
  }

  val build :
    Zkqac_hashing.Drbg.t ->
    mvk:Abs.mvk ->
    sk:Abs.signing_key ->
    space:Keyspace.t ->
    universe:Zkqac_policy.Universe.t ->
    ?split:[ `Clause_objective | `Midpoint ] ->
    Record.t list ->
    t
  (** DO-side construction. [`Clause_objective] (default) uses Algorithm 7;
      [`Midpoint] is the ablation baseline that splits every region in half
      like the grid tree. *)

  val stats : t -> build_stats
  val space : t -> Keyspace.t
  val universe : t -> Zkqac_policy.Universe.t

  type query_stats = Vo.query_stats = {
    relax_calls : int;
    nodes_visited : int;
    sp_time : float;
  }

  val range_vo :
    Zkqac_hashing.Drbg.t ->
    mvk:Abs.mvk ->
    t ->
    user:Zkqac_policy.Attr.Set.t ->
    Box.t ->
    Vo.t * query_stats

  val verify :
    ?batch:Zkqac_hashing.Drbg.t ->
    mvk:Abs.mvk ->
    t_universe:Zkqac_policy.Universe.t ->
    user:Zkqac_policy.Attr.Set.t ->
    query:Box.t ->
    Vo.t ->
    (Record.t list, Vo.error) result
end
