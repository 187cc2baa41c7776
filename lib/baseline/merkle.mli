(** The Merkle-hash-tree baseline (Figure 1b, Merkle B-tree style).

    Classic query authentication *without* access control: a binary MHT over
    the records sorted by key, the root digest signed by the owner. Range
    VOs carry the result records, the two boundary records, and the sibling
    digests to reconstruct the root. Used by tests and benches to quantify
    what the paper's schemes add — and by the leakage demos to show what an
    MHT reveals (every record in range, access-controlled or not). *)

module Make (P : Zkqac_group.Pairing_intf.PAIRING) : sig
  module Sig : module type of Schnorr.Make (P)

  type t

  val build : Zkqac_hashing.Drbg.t -> Sig.secret -> Zkqac_core.Record.t list -> t
  (** Records must have distinct 1-D keys. *)

  val num_records : t -> int

  type vo

  val range_vo : t -> lo:int -> hi:int -> vo
  (** All records with key in [lo, hi], plus boundaries and copath. *)

  val verify :
    public:Sig.public -> lo:int -> hi:int -> vo -> (Zkqac_core.Record.t list, string) result

  val vo_size : vo -> int
end
