(** Attribute-based signatures with predicate relaxation (Section 5.2).

    This is the paper's variant of the Maji–Prabhakaran–Rosulek ABS
    (Practical Instantiation 4): signatures attest "someone whose attributes
    satisfy Υ signed m", and — the novelty — a signature under Υ can be
    *relaxed* by anyone into a signature under the weaker predicate
    [∨_{a ∈ A'} a] provided [Υ(𝔸∖A') = 0], without the signing key
    (ABS.Relax, Algorithm 2). Relaxation is what lets the service provider
    turn the data owner's APP signature into an APS signature proving
    inaccessibility without revealing the record's policy.

    The module is a functor over the pairing backend; all randomness comes
    from a caller-supplied DRBG. *)

module Make (P : Zkqac_group.Pairing_intf.PAIRING) : sig
  type msk
  (** Master signing key (a0, a, b) — held by the data owner only — and the
      mvk {!setup} made with it. *)

  type mvk
  (** Master verification key (g, h0, h, A0, A, B, C) — public. *)

  type signing_key
  (** Per-attribute-set signing key (K_base, K0, {K_u}), as fixed-base
      tables, with tables of its issuer's C and g and of A·B^u for each of
      its attributes: every base {!sign} raises. *)

  type signature

  val setup : Zkqac_hashing.Drbg.t -> msk * mvk

  val keygen : Zkqac_hashing.Drbg.t -> msk -> Zkqac_policy.Attr.Set.t -> signing_key
  (** ABS.KeyGen. The data owner typically calls this once on the full
      attribute universe (including the pseudo role) for itself. Building
      the tables makes this the cost of a few exponentiations per
      attribute, and the key a few hundred group elements per attribute. *)

  val sign :
    Zkqac_hashing.Drbg.t ->
    mvk ->
    signing_key ->
    msg:string ->
    policy:Zkqac_policy.Expr.t ->
    signature
  (** ABS.Sign, from the key's tables only; a policy label outside the
      key's attributes gets its table built for this call. The DRBG draws
      (τ, r0, then one r per row) and so every signature are the same as
      with plain exponentiations. @raise Invalid_argument if the key's
      attributes do not satisfy the policy, or if [mvk] (compared by value)
      is not the one the key was issued under. *)

  val verify : mvk -> msg:string -> policy:Zkqac_policy.Expr.t -> signature -> bool
  (** ABS.Verify: checks Y ≠ 1, the key-binding pairing equation, and the
      span-program equations for every column. *)

  val relax :
    Zkqac_hashing.Drbg.t ->
    mvk ->
    signature ->
    msg:string ->
    policy:Zkqac_policy.Expr.t ->
    keep:Zkqac_policy.Attr.Set.t ->
    signature option
  (** ABS.Relax (Algorithm 2): derive a signature under [∨_{a∈keep} a] from
      a signature under [policy]. Returns [None] exactly when
      [Υ(𝔸∖keep) ≠ 0] (the purge step fails), in which case relaxation is
      cryptographically impossible. The output is re-randomized, so — as
      required for perfect privacy — it is distributed identically to a
      fresh signature on the relaxed predicate. *)

  type claim = {
    msg : string;
    policy : Zkqac_policy.Expr.t;
    sigma : signature;
    blame : Zkqac_util.Verify_error.t -> Zkqac_util.Verify_error.t;
        (** maps a rejection of this claim to the caller's typed error *)
  }

  val check :
    ?batch:Zkqac_hashing.Drbg.t ->
    mvk ->
    claim list ->
    (unit, Zkqac_util.Verify_error.t) result
  (** The one signature check of every VO verifier. Without [batch],
      {!verify} on each claim in order, the first rejection — named by the
      check that failed (shape mismatch, degenerate Y, key binding, or the
      first failing span-program column) as [Bad_abs_signature] — mapped by
      its [blame]. With [batch], one small-exponent pairing product over
      every claim, whatever its policy: one weight per claim and shared
      column and key-binding weights, all drawn from [batch], so a bad
      claim survives with probability about 2/order. If it rejects, the
      fallback is counted ([zkqac_batch_fallbacks_total], a
      [vo.batch_fallback] flight event) and the sequential pass returns its
      error, or [Bad_aps_signature "batched APS verification"] if it
      accepts. *)

  val relaxed_policy : Zkqac_policy.Attr.Set.t -> Zkqac_policy.Expr.t
  (** The super-policy shape [∨_{a∈keep} a] that relaxed signatures verify
      under (attributes in canonical order). *)

  val to_bytes : signature -> string

  val of_bytes : string -> signature option
  (** The client's decode: every element canonical and in the group.
      Trailing bytes are rejected. *)

  (** {2 The stored form}

      The SP keeps each APP signature of its index trees as its encoding,
      a slice of the string it was read from, and decodes it only where it
      relaxes or answers it (DESIGN.md §9). *)

  type stored

  val store : signature -> stored
  (** The signature's {!to_bytes}. *)

  val stored_of_slice : string -> off:int -> len:int -> stored option
  (** The [len] bytes of the string from [off], kept in place, not copied,
      if they are framed as a signature (the tau length, the element
      counts and the exact length); no element is decoded. *)

  val of_stored : stored -> signature
  (** The SP's decode: the frame of {!of_bytes}, and each element by
      [G.of_bytes_unchecked], so canonical and on the curve but not
      checked for the subgroup (DESIGN.md §7). Every call decodes afresh:
      nothing is memoized, so any domain may call it on any [stored].
      @raise Invalid_argument if an element does not decode. *)

  val stored_size : stored -> int
  (** The length of the encoding. *)

  val put_stored : Zkqac_util.Wire.writer -> stored -> unit
  (** Writes the encoding as one length-prefixed field, as
      [Wire.bytes w (to_bytes sigma)] would, without decoding it. *)

  val size : signature -> int
  (** Serialized size in bytes (the VO-size unit of the paper's
      experiments). *)

  val mvk_to_bytes : mvk -> string
  val mvk_of_bytes : string -> mvk option
end
