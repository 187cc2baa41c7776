(** Hashing byte strings into Z_p with domain separation. *)

val to_zp :
  domain:string -> p:Zkqac_bigint.Bigint.t -> string -> Zkqac_bigint.Bigint.t
(** Statistically-uniform element of [[0, p)]. *)

val to_zp_list :
  domain:string ->
  p:Zkqac_bigint.Bigint.t ->
  string list ->
  Zkqac_bigint.Bigint.t
(** Like {!to_zp} on an unambiguous (length-prefixed) encoding of the parts. *)
