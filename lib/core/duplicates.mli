(** Duplicate query keys (Appendix E).

    Two treatments are provided:

    - {b zero-knowledge}: merge records sharing (key, policy) into
      super-records, then lift the keyspace by one *virtual dimension* and
      spread the remaining same-key records along it; queries extend over
      the whole virtual axis. Everything then runs on the ordinary AP²G-tree
      with distinct keys, and nothing about the duplicate distribution
      leaks.
    - {b non-ZK} ([`embedded`]): keep a grid tree over the base keyspace
      whose leaves hold each key's duplicates, and authenticate the
      duplicate count per key. Cheaper, but the duplicate distribution is
      disclosed. *)

module Make (P : Zkqac_group.Pairing_intf.PAIRING) : sig
  module Abs : module type of Zkqac_abs.Abs.Make (P)

  (** {1 Zero-knowledge treatment: the virtual dimension} *)

  val lift :
    space:Keyspace.t ->
    Record.t list ->
    Keyspace.t * Record.t list
  (** Merge records sharing both key and (canonical) policy into
      super-records with newline-joined values, then append the virtual
      dimension (same depth as the base dimensions) and assign distinct
      virtual coordinates within each key group.
      @raise Invalid_argument if some key has more duplicates than the
      virtual axis can hold. *)

  val lift_query : lifted_space:Keyspace.t -> Box.t -> Box.t
  (** Extend a base-space query over the whole virtual axis. *)

  (** {1 Non-ZK treatment: embedded duplicate counts}

      The VO is a {!Vo.Make.t} under [`Boxed] binding over the lifted
      space. Duplicate [id] of a key with [n] duplicates is the leaf at
      key ++ [id] on its unit cell, except that the last one's region runs
      [n - 1, side) along the virtual axis. Each leaf message binds its
      region, so a key's regions tile the virtual axis only when no
      duplicate is missing or added; the regions disclose the count per
      key, as dup_num | dup_id would. Tree nodes sign the message of their
      lifted box. *)

  type t

  val build :
    Zkqac_hashing.Drbg.t ->
    mvk:Abs.mvk ->
    sk:Abs.signing_key ->
    space:Keyspace.t ->
    universe:Zkqac_policy.Universe.t ->
    pseudo_seed:string ->
    Record.t list ->
    t
  (** Grid tree over the base space whose leaves hold duplicate groups.
      @raise Invalid_argument if some key has more duplicates than the
      virtual axis can hold ([Keyspace.side space]). *)

  val range_vo :
    Zkqac_hashing.Drbg.t ->
    mvk:Abs.mvk ->
    t ->
    user:Zkqac_policy.Attr.Set.t ->
    Box.t ->
    Vo.Make(P).t * Vo.Make(P).query_stats
  (** The VO for a base-space query box. *)

  val verify :
    mvk:Abs.mvk ->
    space:Keyspace.t ->
    t_universe:Zkqac_policy.Universe.t ->
    user:Zkqac_policy.Attr.Set.t ->
    query:Box.t ->
    Vo.Make(P).t ->
    (Record.t list, Vo.Make(P).error) result
  (** {!Vo.Make.verify} over the base-space [query] lifted over the virtual
      axis of [space] (the base keyspace [build] took); result keys are
      stripped back to the base space. *)
end
