(** Verification objects for range (and equality) queries, with the
    client-side soundness + completeness checks of Algorithm 3.

    A VO is the complete query response: accessible records travel inside it
    together with their APP signatures; inaccessible leaves and pruned
    subtrees travel as APS signatures. Every entry carries the region of key
    space it accounts for, and verification checks that the regions, clipped
    to the query, tile the query box exactly ("one and only one entry per
    indexing space"). *)

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

  (** {2 The prover side}

      Every SP query builder makes its APS entries here, so the message an
      entry signs is chosen by the same module on both sides. *)

  (** A node of an index tree: its region, the OR of the policies below it,
      the DO's APP signature, kept encoded, and what it holds. A [Leaf]'s
      policy is its record's and its signature is over [leaf_message] of
      its box; any other node is signed over {!Record.node_message} of its
      box. *)
  type node = {
    box : Box.t;
    policy : Zkqac_policy.Expr.t;
    signature : Abs.stored;
    content : content;
  }

  and content =
    | Leaf of Record.t  (** one record, real or pseudo *)
    | Pseudo  (** an empty region, under Role_∅ *)
    | Children of node list  (** visited breadth-first *)
    | Group of node list
        (** leaves visited with their node, not queued: a cell of
            embedded duplicates, whose relax jobs keep the cell's turn *)

  val aps_job :
    Zkqac_hashing.Drbg.t ->
    mvk:Abs.mvk ->
    binding ->
    keep:Zkqac_policy.Attr.Set.t ->
    node ->
    unit ->
    entry
  (** [aps_job drbg ~mvk binding ~keep node] forks a job DRBG from [drbg] at
      once (one 32-byte draw) and returns a thunk that relaxes the node's
      signature over the message {!verify} checks: [leaf_message binding]
      for a [Leaf] (an [Inaccessible_leaf] entry), the node message
      otherwise (an [Inaccessible_node]). The thunk owns its randomness
      and decodes the stored signature itself, so it may run on any
      domain. @raise Invalid_argument from the thunk if the signature does
      not decode. *)

  val answer :
    Zkqac_hashing.Drbg.t ->
    mvk:Abs.mvk ->
    binding ->
    keep:Zkqac_policy.Attr.Set.t ->
    user:Zkqac_policy.Attr.Set.t ->
    node ->
    (entry, unit -> entry) Either.t
  (** One entry for [node]: [Accessible] for a leaf [user] may read, with
      its signature decoded, an {!aps_job} for anything else. *)

  type query_stats = { relax_calls : int; nodes_visited : int; sp_time : float }

  val prove :
    pmap:((unit -> 'e) list -> 'e list) ->
    Zkqac_telemetry.Trace.ctx ->
    t0:int64 ->
    visited:int ->
    ('e, unit -> 'e) Either.t list ->
    'e list * query_stats
  (** The common end of every query builder. It hands over its entries in
      order, each slot a finished entry or a relax thunk; [prove] runs the
      thunks under an [sp.relax] span with [pmap], sets the
      [nodes_visited], [relax_calls] and [vo_entries] attributes on [ctx],
      and returns the entries in slot order. [sp_time] runs from [t0]. *)

  val bfs : 'n -> ('n -> ('n -> unit) -> unit) -> int
  (** [bfs root visit] is the breadth-first search of Algorithm 3: it
      calls [visit n push] on each node in turn, from [root] on, where
      [push] queues a child. Returns the number of nodes visited. *)

  val walk :
    pmap:((unit -> entry) list -> entry list) ->
    Zkqac_hashing.Drbg.t ->
    mvk:Abs.mvk ->
    binding ->
    keep:Zkqac_policy.Attr.Set.t ->
    user:Zkqac_policy.Attr.Set.t ->
    Zkqac_telemetry.Trace.ctx ->
    t0:int64 ->
    Box.t ->
    node ->
    t * query_stats
  (** [walk drbg ~mvk binding ~keep ~user ctx ~t0 query root] is the SP's
      tree walk (the BFS of Algorithm 3), for every tree. One rule: a node
      that misses [query] is skipped; an accessible [Children] or [Group]
      node is descended; any other node is {!answer}ed with one entry, so
      an inaccessible node that meets the query is one APS entry, even
      where it reaches past the query. Relax jobs are created in visit
      order. The VO lists the accessible entries, then the APS entries,
      each in visit order; it ends in {!prove} with [pmap]. *)

  val aps_claim :
    binding ->
    super_policy:Zkqac_policy.Expr.t ->
    query:Box.t ->
    entry ->
    (Abs.claim, error) result
  (** The check {!verify} makes of an APS entry: its region must meet
      [query] ([Completeness_gap] otherwise); under [`Plain] an
      inaccessible leaf's region must be its key's unit cell; the claim is
      the entry's message and signature under [super_policy]. An
      [Accessible] entry is [Invalid_shape]. *)

  val verify :
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
      exactly the user's super policy) and completeness (the regions,
      clipped to the query, tile it). Returns the accessible result
      records on success.

      Every structural check runs over the whole VO before any signature;
      the signatures then go to {!Abs.check} in one call, with [batch]
      passed through (APS signatures batch under the super policy, APP
      signatures by record policy). The returned typed error (and exit
      code) is the same with and without [batch].

      A region may reach past the query: the walk answers a whole node
      that meets it, and AP²kd leaves and continuous gaps are
      data-dependent. Every entry must meet the query, in VO order: an
      [Accessible] one that misses it is [Record_outside_query], an APS
      one {!aps_claim}'s [Completeness_gap]. Only the accessible records
      inside the query are returned. *)

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
