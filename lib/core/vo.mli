(** Verification objects for range (and equality) queries, with the
    client-side soundness + completeness checks of Algorithm 3.

    A VO is the complete query response: accessible records travel inside it
    together with their APP signatures; inaccessible leaves and pruned
    subtrees travel as APS signatures. Every entry carries the region of key
    space it accounts for, and verification checks that the regions tile the
    query box exactly ("one and only one entry per indexing space"). *)

module Make (P : Zkqac_group.Pairing_intf.PAIRING) : sig
  module Abs : module type of Zkqac_abs.Abs.Make (P)

  type entry =
    | Accessible of {
        region : Box.t;
        record : Record.t;
        app : Abs.signature;
      }  (** a query result, with the DO's original APP signature *)
    | Inaccessible_leaf of {
        region : Box.t;
        key : int array;
        value_hash : string;
        aps : Abs.signature;
      }  (** a single record (real or pseudo) proven out of reach *)
    | Inaccessible_node of {
        region : Box.t;
        aps : Abs.signature;
      }  (** a whole pruned subtree proven out of reach *)

  type t = entry list

  val entry_region : entry -> Box.t

  (** How leaf messages are bound. [`Plain] is the AP²G-tree convention
      (hash(o)|hash(v): the region of a record is derivable from its key).
      [`Boxed] additionally binds the region box into every leaf message —
      required by the AP²kd-tree, whose leaf regions are data-dependent and
      would otherwise be forgeable. *)
  type binding = [ `Plain | `Boxed ]

  (** Verification failures. This is {!Zkqac_util.Verify_error.t} re-exported
      with its constructors, so [Vo.Completeness_gap] and friends pattern-match
      directly and errors flow unchanged into telemetry attributes and CLI
      exit codes. *)
  type error = Zkqac_util.Verify_error.t =
    | Completeness_gap
    | Bad_abs_signature of string
    | Bad_aps_signature of string
    | Bad_aps_policy of string
    | Record_outside_query of int array
    | Policy_not_satisfied of int array
    | Malformed of { offset : int }
    | Limit_exceeded of { what : string; limit : int }
    | Digest_mismatch of string
    | Envelope_open_failed of string
    | Query_mismatch
    | Invalid_shape of string

  val error_to_string : error -> string

  val leaf_message : binding -> region:Box.t -> key:int array -> value_hash:string -> string
  val node_aps_message : region:Box.t -> string

  (** {2 The prover side}

      Every SP query builder makes its APS entries here, so the message an
      entry signs is chosen by the same module on both sides. *)

  (** What an APS entry accounts for: one leaf (a real or pseudo record in
      its region) or one whole subtree. *)
  type shape = Leaf of { region : Box.t; record : Record.t } | Node of Box.t

  val aps_job :
    Zkqac_hashing.Drbg.t ->
    mvk:Abs.mvk ->
    binding ->
    keep:Zkqac_policy.Attr.Set.t ->
    policy:Zkqac_policy.Expr.t ->
    Abs.signature ->
    shape ->
    unit ->
    entry
  (** [aps_job drbg ~mvk binding ~keep ~policy sigma shape] forks a job DRBG
      from [drbg] at once (one 32-byte draw) and returns a thunk that relaxes
      [sigma] over the message {!verify} checks for [shape]:
      [leaf_message binding] for a leaf, [node_aps_message] for a node. The
      thunk owns its randomness, so it may run on any domain. *)

  type query_stats = { relax_calls : int; nodes_visited : int; sp_time : float }

  val prove :
    pmap:((unit -> 'e) list -> 'e list) ->
    Zkqac_telemetry.Trace.ctx ->
    t0:int64 ->
    visited:int ->
    ('e, unit -> 'e) Either.t list ->
    'e list * query_stats
  (** The common end of every index walk. The walk hands over its entries
      in order, each slot a finished entry or a relax thunk; [prove] runs
      the thunks under an [sp.relax] span with [pmap], sets the
      [nodes_visited], [relax_calls] and [vo_entries] attributes on [ctx],
      and returns the entries in slot order. [sp_time] runs from [t0]. *)

  val aps_claim :
    binding -> super_policy:Zkqac_policy.Expr.t -> entry -> (Abs.claim, error) result
  (** The check {!verify} makes of an APS entry: under [`Plain] an
      inaccessible leaf's region must be its key's unit cell; the claim is
      the entry's message and signature under [super_policy]. An
      [Accessible] entry is [Invalid_shape]. *)

  val verify :
    ?clip:bool ->
    ?batch:Zkqac_hashing.Drbg.t ->
    mvk:Abs.mvk ->
    binding:binding ->
    super_policy:Zkqac_policy.Expr.t ->
    user:Zkqac_policy.Attr.Set.t ->
    query:Box.t ->
    t ->
    (Record.t list, error) result
  (** The user-side check: soundness (every signature valid, results inside
      the query and readable by the user, inaccessibility proven under
      exactly the user's super policy) and completeness (regions tile the
      query). Returns the accessible result records on success.

      Every structural check runs over the whole VO before any signature;
      the signatures then go to {!Abs.check} in one call, with [batch]
      passed through (APS signatures batch under the super policy, APP
      signatures by record policy). The returned typed error (and exit
      code) is the same with and without [batch].

      With [clip] (default [false]) the regions are first intersected with
      the query, for trees whose regions are data-dependent and may spill
      outside it; an [Accessible] entry must then meet the query, and only
      its records inside the query are returned. Without [clip] every
      accessible record must lie inside the query. Either way a violation
      is [Record_outside_query]. *)

  val size : t -> int
  (** Serialized size in bytes — the "VO size" metric of the paper. *)

  val to_bytes : t -> string
  val of_bytes : string -> t option

  val put_entry : Zkqac_util.Wire.writer -> entry -> unit
  val get_entry : Zkqac_util.Wire.reader -> entry
  (** One entry of {!to_bytes}, for codecs that embed VO entries. *)

  val decode :
    ?limits:Zkqac_util.Wire.limits ->
    string ->
    (t, Zkqac_util.Verify_error.t) result
  (** As {!of_bytes}, with typed failures ([Malformed] carrying the reader
      offset, [Limit_exceeded] when a resource bound trips) and reader
      resource limits. Rejects trailing bytes. *)
end
