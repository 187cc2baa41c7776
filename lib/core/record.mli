(** Data records ⟨o_i, v_i, Υ_i⟩ and the byte messages their APP signatures
    bind (Definition 5.1).

    A record couples a discrete, distinct query key with an opaque content
    value and an access policy. Pseudo records (Section 5) are derived
    deterministically from a data-owner secret so they never need to be
    stored: any party holding the seed can re-derive the pseudo value for a
    key, and nobody else can distinguish it from a real encrypted value. *)

type t = {
  key : int array;         (** query attribute o_i (a point in the keyspace) *)
  value : string;          (** content attribute v_i (possibly CP-ABE ciphertext) *)
  policy : Zkqac_policy.Expr.t;  (** access policy Υ_i *)
}

val make : key:int array -> value:string -> policy:Zkqac_policy.Expr.t -> t

val value_hash : string -> string
(** hash(v_i). *)

val message : key:int array -> value_hash:string -> string
(** The signed message [hash(o_i) | hash(v_i)]: reconstructible by a verifier
    who knows the key and is given only the value hash — exactly what the
    inaccessible branch of Algorithm 1 requires. *)

val message_of : t -> string

val node_message : Box.t -> string
(** [hash(gb_i)], the message of a non-leaf AP²G-tree node (Definition 6.1). *)

val pseudo : seed:string -> key:int array -> t
(** The pseudo record at [key]: a 32-byte value derived by PRF from the
    data-owner seed, under policy [Role_∅]. [pseudo ~seed] prepares the
    PRF's key, so a build applies it once and calls the result per key. *)
