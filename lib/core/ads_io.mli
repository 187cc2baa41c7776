(** Persistence of the outsourced ADS: what the data owner actually ships to
    the service provider (the full AP²G-tree with policies and APP
    signatures), as a versioned binary file.

    This is the "outsource all ⟨o,v,Υ,σ⟩ and ⟨gb,p,sig⟩ to SP" step of
    Algorithm 3 made concrete: [save] on the DO side, [load] on the SP side,
    integrity-tagged with a SHA-256 checksum.

    Since v2 every checkpoint is epoch-stamped and ends in a commit footer
    (SHA-256 of every preceding byte, then a marker written last), written
    through {!Zkqac_durable.Durable.replace}: a crash mid-save leaves the old
    file intact, and a file that passes the footer check is guaranteed to be
    exactly what [save] produced. [load_recover] uses this to resume from the
    newest valid epoch after a kill -9. *)

val reset_epoch_gauge : unit -> unit
(** Forget the process-wide [zkqac_checkpoint_epoch] gauge value (test
    isolation for golden expositions). *)

module Make (P : Zkqac_group.Pairing_intf.PAIRING) : sig
  module Ap2g : module type of Ap2g.Make (P)
  module Abs : module type of Zkqac_abs.Abs.Make (P)

  val save : ?epoch:int -> path:string -> mvk:Abs.mvk -> Ap2g.t -> unit
  (** Atomically replace [path] with the tree and the public verification
      key, stamped with [epoch] (default 0). Raises [Sys_error] if the
      durable-replace protocol fails; the previous file is then untouched. *)

  val decode_typed :
    string -> (Abs.mvk * Ap2g.t * int, Zkqac_util.Verify_error.t) result
  (** Decode a checkpoint's bytes, treating them as hostile: truncation and
      bit flips map to typed errors ([Malformed], [Digest_mismatch],
      [Limit_exceeded], [Invalid_shape] for a wrong magic or a missing
      commit marker) and no exception escapes — including from parsers
      embedded in the key and tree decoders. Returns the stamped epoch. *)

  val load_typed :
    path:string ->
    ( Abs.mvk * Ap2g.t * int,
      [ `Io of string | `Bad of Zkqac_util.Verify_error.t ] )
    result
  (** {!decode_typed} over a file's contents; [`Io] is an OS-level read
      failure (missing file, permissions), [`Bad] a corrupt checkpoint. *)

  val load : path:string -> (Abs.mvk * Ap2g.t, string) result
  (** Read back; fails with a message on version/checksum/shape mismatch.
      The message names the offending path and the typed error code. *)

  (** {1 Epoch checkpoints and crash recovery} *)

  val save_epoch : path:string -> mvk:Abs.mvk -> epoch:int -> Ap2g.t -> unit
  (** Atomically write the epoch sibling ["<path>.e<epoch>"] and prune
      all but the newest two siblings (the base file is never pruned).
      Raises [Sys_error] on durable-replace failure. *)

  type recovered = {
    r_mvk : Abs.mvk;
    r_tree : Ap2g.t;
    r_epoch : int;
    r_source : string;
    r_skipped : (string * string) list;
        (** candidates rejected during selection: (path, typed error code or
            io message) *)
  }

  val load_recover : path:string -> (recovered, string) result
  (** Select the newest valid epoch among [path] and its epoch siblings.
      Candidates are ranked by the epoch in their header and decoded
      newest-first until one is valid, so older ones are never decoded.
      Every rejected candidate ranked before the chosen one is skipped and
      flight-logged; the outcome feeds
      [zkqac_recoveries_total{outcome}] ([checkpoint-ok] when nothing was
      skipped, [checkpoint-fallback] otherwise, [checkpoint-failed] when no
      candidate decodes). *)
end
