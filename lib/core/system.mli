(** The full three-party protocol of Figure 2: data owner (DO), service
    provider (SP), and users, wired end-to-end.

    - the DO encrypts record contents with CP-ABE under each record's policy
      (content confidentiality), signs the AP²G-tree ADS, and hands
      everything to the SP;
    - the SP answers range queries with a result+VO payload, sealed with
      AES + CP-ABE under the AND of the user's claimed roles (so an impostor
      claiming roles it lacks cannot even read the response);
    - the user opens the envelope, verifies soundness + completeness, and
      decrypts the contents of its accessible records. *)

val batch_weights : string -> Zkqac_hashing.Drbg.t
(** The small-exponent batch weights for a VO, derived Fiat–Shamir style
    from its encoded bytes under one fixed tag. Every batched verifier
    ({!Make.verify_vo}, the adversary harness, the bench ablation) takes
    its weights from here. *)

module Make (P : Zkqac_group.Pairing_intf.PAIRING) : sig
  module Abs : module type of Zkqac_abs.Abs.Make (P)
  module Cpabe : module type of Zkqac_cpabe.Cpabe.Make (P)
  module Envelope : module type of Zkqac_cpabe.Envelope.Make (P)
  module Ap2g : module type of Ap2g.Make (P)
  module Vo : module type of Vo.Make (P)

  type owner
  type server
  type user

  type plain_record = {
    key : int array;
    content : string;
    policy : Zkqac_policy.Expr.t;
  }

  val setup :
    seed:string ->
    space:Keyspace.t ->
    roles:Zkqac_policy.Attr.t list ->
    ?hierarchy:Zkqac_policy.Hierarchy.t ->
    plain_record list ->
    owner * server
  (** DO-side system setup: key generation, CP-ABE encryption of contents,
      ADS generation; returns the outsourced SP state. *)

  val register_user : owner -> Zkqac_policy.Attr.Set.t -> user
  (** Issue a user its role set: CP-ABE decryption key + public verification
      material. @raise Invalid_argument on roles outside the universe. *)

  type response
  (** The sealed payload the SP sends back. *)

  val range_query :
    server ->
    claimed_roles:Zkqac_policy.Attr.Set.t ->
    Box.t ->
    response
  (** SP-side query processing: constructs the VO and seals it under the
      claimed roles. When tracing is enabled the whole call records one
      [system.range_query] root span. *)

  val response_size : response -> int

  type verified = {
    results : (int array * string) list;  (** key, decrypted content *)
    vo_entries : int;
    vo_size : int;
  }

  val verify_vo :
    ?envelope_open_ms:float ->
    mvk:Zkqac_abs.Abs.Make(P).mvk ->
    universe:Zkqac_policy.Universe.t ->
    ?hierarchy:Zkqac_policy.Hierarchy.t ->
    roles:Zkqac_policy.Attr.Set.t ->
    query:Box.t ->
    string ->
    (Record.t list * int, Zkqac_util.Verify_error.t) result
  (** The user-side decision on raw VO bytes: decode, verify every
      signature in small-exponent batches weighted by {!batch_weights}
      (a rejected batch falls back to one-by-one verification, so the
      typed error is the same either way), and return the accessible
      records in the query plus the VO's entry count.

      The decision is recorded once: a flight-recorder verdict, a
      [zkqac_verify_rejections_total] count and a flight trip on
      rejection, and, when an audit sink is enabled, one [verify] entry
      whose [path] is [batch] or [batch-fallback]. [envelope_open_ms]
      adds the caller's envelope-open time to the entry's [stages_ms]. *)

  val open_and_verify :
    user -> query:Box.t -> response -> (verified, string) result
  (** User side: open the envelope (fails for impostors), verify the VO
      with {!verify_vo} (fails on any tampering or omission), decrypt
      accessible contents. A mismatched query or an envelope that does not
      open is recorded the same way as a VO rejection. The error code is
      also recorded as a [verify_error] span attribute; the returned error
      is its rendering. *)

  val user_roles : user -> Zkqac_policy.Attr.Set.t
  val universe : owner -> Zkqac_policy.Universe.t
end
