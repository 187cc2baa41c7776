(** Duplicate query keys (Appendix E).

    Two treatments are provided:

    - {b zero-knowledge}: merge records sharing (key, policy) into
      super-records, then lift the keyspace by one *virtual dimension* and
      spread the remaining same-key records along it; queries extend over
      the whole virtual axis. Everything then runs on the ordinary AP²G-tree
      with distinct keys, and nothing about the duplicate distribution
      leaks.
    - {b non-ZK} ([`embedded`]): keep the base keyspace and embed
      [dup_num | dup_id] into every APP message, so completeness per key is
      checked against the authenticated duplicate count. Cheaper, but the
      duplicate distribution is disclosed. *)

module Make (P : Zkqac_group.Pairing_intf.PAIRING) : sig
  module Abs : module type of Zkqac_abs.Abs.Make (P)

  (** {1 Zero-knowledge treatment: the virtual dimension} *)

  val merge_same_policy : Record.t list -> Record.t list
  (** Merge records sharing both key and (canonical) policy into
      super-records with concatenated values. *)

  val lift :
    space:Keyspace.t ->
    Record.t list ->
    Keyspace.t * Record.t list
  (** Append the virtual dimension (same depth as the base dimensions) and
      assign distinct virtual coordinates within each key group.
      @raise Invalid_argument if some key has more duplicates than the
      virtual axis can hold. *)

  val lift_query : lifted_space:Keyspace.t -> Box.t -> Box.t
  (** Extend a base-space query over the whole virtual axis. *)

  val strip_key : int array -> int array
  (** Drop the virtual coordinate of a result key. *)

  (** {1 Non-ZK treatment: embedded duplicate counts} *)

  type t

  type entry =
    | Dup_accessible of {
        key : int array;
        dup_num : int;
        dup_id : int;
        value : string;
        policy : Zkqac_policy.Expr.t;
        app : Abs.signature;
      }
    | Dup_inaccessible of {
        key : int array;
        dup_num : int;
        dup_id : int;
        value_hash : string;
        aps : Abs.signature;
      }
    | Cell_inaccessible of { region : Box.t; aps : Abs.signature }

  type vo = entry list

  val build :
    Zkqac_hashing.Drbg.t ->
    mvk:Abs.mvk ->
    sk:Abs.signing_key ->
    space:Keyspace.t ->
    universe:Zkqac_policy.Universe.t ->
    pseudo_seed:string ->
    Record.t list ->
    t
  (** Grid tree over the base space whose leaves hold duplicate groups. *)

  val range_vo :
    Zkqac_hashing.Drbg.t ->
    mvk:Abs.mvk ->
    t ->
    user:Zkqac_policy.Attr.Set.t ->
    Box.t ->
    vo * Vo.Make(P).query_stats

  val verify :
    mvk:Abs.mvk ->
    t_universe:Zkqac_policy.Universe.t ->
    user:Zkqac_policy.Attr.Set.t ->
    query:Box.t ->
    vo ->
    (Record.t list, Vo.Make(P).error) result

  val size : vo -> int
end
