(** Authenticated equi-join queries (Section 6.2, Algorithm 4).

    For [R ⋈_{R.o = S.o} S ∧ R.o ∈ [α, β]] over two AP²G-trees built on the
    same keyspace, the SP descends R's tree; an accessible R region is joined
    against the smallest covering S node, and whichever side is inaccessible
    contributes one APS signature proving that the region cannot contribute
    join results. Completeness is the *union* coverage check: result cells
    and APS regions together cover the query range (APS regions from the S
    tree may overlap each other, unlike in Algorithm 3). *)

module Make (P : Zkqac_group.Pairing_intf.PAIRING) : sig
  module Abs : module type of Zkqac_abs.Abs.Make (P)
  module Vo : module type of Vo.Make (P)
  module Ap2g : module type of Ap2g.Make (P)

  type entry =
    | Pair of {
        r_record : Record.t;
        r_app : Abs.signature;
        s_record : Record.t;
        s_app : Abs.signature;
      }  (** a join result: matching accessible records from both tables *)
    | R_side of Vo.entry  (** inaccessibility proof from R's tree *)
    | S_side of Vo.entry  (** inaccessibility proof from S's tree *)

  type t = entry list

  type stats = Vo.query_stats = {
    relax_calls : int;
    nodes_visited : int;
    sp_time : float;
  }

  val join_vo :
    Zkqac_hashing.Drbg.t ->
    mvk:Abs.mvk ->
    r:Ap2g.t ->
    s:Ap2g.t ->
    user:Zkqac_policy.Attr.Set.t ->
    Box.t ->
    t * stats
  (** SP-side construction (Algorithm 4): the walk of Algorithm 3 over both
      trees, ending in {!Vo.prove}. {!verify} checks every APS entry under
      the plain super policy of one universe and pairs leaves cell by cell,
      so the trees must share dims, depth and universe and neither may be
      built with a role hierarchy; otherwise raises [Invalid_argument]. *)

  val verify :
    ?batch:Zkqac_hashing.Drbg.t ->
    mvk:Abs.mvk ->
    t_universe:Zkqac_policy.Universe.t ->
    user:Zkqac_policy.Attr.Set.t ->
    query:Box.t ->
    t ->
    ((Record.t * Record.t) list, Vo.error) result
  (** User-side soundness (signatures; matching keys; accessibility; no
      duplicated pair) and completeness (union coverage) checks; returns the
      verified join pairs. Structure is checked first, then every signature
      in one {!Abs.check} with [batch] passed through, as in {!Vo.verify}. *)

  val size : t -> int
  (** Serialized size in bytes, i.e. [String.length (to_bytes vo)]. *)

  val to_bytes : t -> string
  val of_bytes : string -> t option

  val decode :
    ?limits:Zkqac_util.Wire.limits ->
    string ->
    (t, Zkqac_util.Verify_error.t) result
  (** As {!of_bytes}, with typed failures and reader resource limits.
      Rejects trailing bytes. *)
end
