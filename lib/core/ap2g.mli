(** The access-policy-preserving grid tree (AP²G-tree, Section 6.1).

    A complete 2^dims-ary tree over the whole keyspace: every level halves
    every dimension, every leaf is a unit cell holding exactly one record
    (real, or a pseudo record with policy Role_∅), so the tree shape is
    data-independent and leaks nothing. Non-leaf nodes carry the OR of their
    children's policies and an APP signature over the grid box
    (Definitions 6.1/6.2); a user who can access no record below a node can
    be answered with one relaxed signature for the whole subtree. *)

module Make (P : Zkqac_group.Pairing_intf.PAIRING) : sig
  module Abs : module type of Zkqac_abs.Abs.Make (P)
  module Vo : module type of Vo.Make (P)

  type t

  type build_stats = {
    leaf_signatures : int;   (** record APP signatures (incl. pseudo) *)
    node_signatures : int;   (** non-leaf APP signatures *)
    sign_time : float;       (** seconds spent in ABS.Sign *)
    structure_bytes : int;   (** boxes + policies *)
    signature_bytes : int;   (** serialized APP signatures *)
  }

  val build :
    Zkqac_hashing.Drbg.t ->
    mvk:Abs.mvk ->
    sk:Abs.signing_key ->
    space:Keyspace.t ->
    universe:Zkqac_policy.Universe.t ->
    ?hierarchy:Zkqac_policy.Hierarchy.t ->
    pseudo_seed:string ->
    Record.t list ->
    t
  (** DO-side ADS generation (the first half of Algorithm 3). Records must
      have distinct, valid keys. When a hierarchy is supplied, record
      policies are augmented with implied ancestors (Section 8.1). *)

  val stats : t -> build_stats
  val space : t -> Keyspace.t
  val universe : t -> Zkqac_policy.Universe.t
  val hierarchy : t -> Zkqac_policy.Hierarchy.t option
  val num_records : t -> int

  val super_policy_for : t -> user:Zkqac_policy.Attr.Set.t -> Zkqac_policy.Expr.t
  (** The inaccessibility predicate used for this tree's VOs: the plain super
      policy, or the hierarchy-reduced one when the tree was built with a
      hierarchy. *)

  type query_stats = Vo.query_stats = {
    relax_calls : int;
    nodes_visited : int;
    sp_time : float;
  }

  val range_vo :
    ?pmap:((unit -> Vo.entry) list -> Vo.entry list) ->
    Zkqac_hashing.Drbg.t ->
    mvk:Abs.mvk ->
    t ->
    user:Zkqac_policy.Attr.Set.t ->
    Box.t ->
    Vo.t * query_stats
  (** SP-side VO construction: {!Vo.Make.walk} over the tree. An
      inaccessible node that meets the query is one APS entry, even where
      it reaches past the query. [pmap] lets the caller parallelize the
      ABS.Relax jobs (Section 8.2); the default runs them sequentially. *)

  val verify :
    ?batch:Zkqac_hashing.Drbg.t ->
    mvk:Abs.mvk ->
    t_universe:Zkqac_policy.Universe.t ->
    ?hierarchy:Zkqac_policy.Hierarchy.t ->
    user:Zkqac_policy.Attr.Set.t ->
    query:Box.t ->
    Vo.t ->
    (Record.t list, Vo.error) result
  (** User-side verification; a convenience wrapper over {!Vo.verify} that
      computes the user's super policy exactly as the SP must have. *)

  val to_bytes : t -> string
  (** Versioned binary encoding of the whole outsourced ADS (structure,
      policies, signatures). *)

  val of_bytes : string -> t option

  val decode :
    ?limits:Zkqac_util.Wire.limits ->
    ?off:int ->
    ?len:int ->
    string ->
    (t, Zkqac_util.Verify_error.t) result
  (** As {!of_bytes}, with typed failures and reader resource limits (the
      recursive tree structure is depth-guarded). Rejects trailing bytes.
      [off]/[len] decode that slice of the string in place (default: all
      of it), never reading outside it. Nodes with the same policy string
      share one physical {!Zkqac_policy.Expr.t}. Each node's signature is
      kept as a slice of [data] ({!Abs.stored_of_slice}): its frame is
      checked here, its elements only when the SP answers the node. *)

  val root : t -> Vo.node
  (** The tree itself, read-only: the join (Algorithm 4) walks two trees
      at once, and {!Equality.of_ap2g} reads the leaves. Its nodes are
      [Leaf] (a unit cell's real or pseudo record, under that record's
      policy) and [Children]. *)
end
