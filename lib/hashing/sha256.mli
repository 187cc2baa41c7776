(** SHA-256 (FIPS 180-4), implemented from the specification.

    This is the collision-resistant hash [hash(.)] of the paper: it binds
    record contents into APP signatures, derives the [hash(tau, m)] scalar of
    the ABS scheme, and feeds the hash-to-field / hash-to-group maps. *)

type ctx

val init : unit -> ctx
val update : ctx -> string -> unit
val copy : ctx -> ctx
(** An independent context in the same state, with its own chaining words
    and block buffer: the copy and the original may be used from different
    domains. *)

val finalize : ctx -> string
(** 32-byte raw digest. The context must not be reused afterwards. *)

val digest : string -> string
(** One-shot 32-byte raw digest. *)

val digest_sub : string -> int -> int -> string
(** [digest_sub s off n] is [digest (String.sub s off n)], without the copy.
    @raise Invalid_argument if the bytes are not within [s]. *)

val hex : string -> string
(** One-shot digest rendered as 64 lowercase hex characters. *)

val digest_list : string list -> string
(** Digest of the length-prefixed concatenation of the parts: unlike a bare
    concatenation this is unambiguous, so ["ab"]+["c"] and ["a"]+["bc"] hash
    differently. *)
