(** Dense linear algebra over the prime field Z_p.

    Used as the executable oracle for monotone span programs
    (Definition 5.3 of the paper): a policy accepts an attribute set iff the
    MSP rows labelled by held attributes span [e1 = (1,0,...,0)]. *)

type matrix = Zkqac_bigint.Bigint.t array array
(** Row-major; all entries must be canonical residues mod p. *)

val spans_e1 : p:Zkqac_bigint.Bigint.t -> matrix -> cols:int -> bool
(** Whether the rows span the target vector [(1, 0, ..., 0)] of width
    [cols]. An empty row set spans nothing. *)

val mul_vec_mat :
  p:Zkqac_bigint.Bigint.t ->
  Zkqac_bigint.Bigint.t array ->
  matrix ->
  cols:int ->
  Zkqac_bigint.Bigint.t array
(** Row-vector times matrix. *)
