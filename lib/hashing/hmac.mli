(** HMAC-SHA256 (RFC 2104). *)

type key
(** A key with its ipad and opad blocks already hashed. Immutable: one
    [key] may serve MACs on several domains at once. *)

val prepare : string -> key

val mac_with : key -> string -> string
(** 32-byte raw tag; [mac_with (prepare key) msg = mac ~key msg]. *)

val mac : key:string -> string -> string
(** 32-byte raw tag. *)
