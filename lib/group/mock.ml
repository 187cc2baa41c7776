(* Generic-group ("mock") pairing backend.

   Elements are wrapped discrete logarithms modulo a 255-bit prime group
   order; e(g^a, g^b) = gt^(a*b). This is literally the generic group model
   in which the paper proves its ABS unforgeable (Appendix B): every group
   and pairing equation of the protocols holds identically, so protocol
   behaviour, VO structure and operation counts are faithful, while each
   operation costs a single modular multiplication. Encodings are padded to
   the sizes of the real type-A backend at its default (512-bit) parameters
   so that VO-size measurements remain comparable.

   It is *not* hiding: serialized elements expose their logs. The real
   backend exists for cryptographic validity; this one exists for running
   paper-scale benchmarks in reasonable time. *)

module B = Zkqac_bigint.Bigint

(* 2^255 - 19 (the Curve25519 field prime): a convenient large prime order. *)
let default_order =
  B.of_string "57896044618658097711785492504343953926634992332820282019728792003956564819949"

let g_encoded_size = 65 (* 512-bit x-coordinate + tag byte, as in type-A *)
let gt_encoded_size = 128 (* F_p2 element at 512-bit p *)

let create ?(order = default_order) () : (module Pairing_intf.PAIRING) =
  (module struct
    let name = Printf.sprintf "mock(order=%d bits)" (B.num_bits order)
    let order = order

    module G = struct
      type t = B.t (* the discrete log; the group is written multiplicatively *)

      let one = B.zero
      let g = B.one
      let mul a b = B.erem (B.add a b) order
      let inv a = B.erem (B.neg a) order
      let pow a k = B.erem (B.mul a k) order
      let equal = B.equal
      let is_one = B.is_zero

      let to_bytes a =
        B.to_bytes_be_pad 32 a ^ String.make (g_encoded_size - 32) '\000'

      (* Encodings must be canonical: the padding bytes are part of the
         encoding, so a non-zero byte there is a distinct bit string that
         must not decode to the same element (signatures would otherwise be
         malleable at the wire level). *)
      let of_bytes s =
        if String.length s <> g_encoded_size then None
        else if not (String.for_all (Char.equal '\000') (String.sub s 32 (g_encoded_size - 32)))
        then None
        else begin
          let v = B.of_bytes_be (String.sub s 0 32) in
          if B.compare v order < 0 then Some v else None
        end

      (* Every canonical log is in the group. *)
      let of_bytes_unchecked = of_bytes

      let hash_to msg =
        let v = Zkqac_hashing.Hash_to_field.to_zp ~domain:"mock-g" ~p:order msg in
        if B.is_zero v then B.one else v

      type table = t

      let precompute a = a
      let pow_prod terms = List.fold_left (fun acc (b, k) -> mul acc (pow b k)) one terms
    end

    module Gt = struct
      type t = B.t

      let one = B.zero
      let mul a b = B.erem (B.add a b) order
      let inv a = B.erem (B.neg a) order
      let pow a k = B.erem (B.mul a k) order
      let equal = B.equal
      let is_one = B.is_zero

      let to_bytes a =
        B.to_bytes_be_pad 32 a ^ String.make (gt_encoded_size - 32) '\000'

      (* Canonical encodings only, as in {!G.of_bytes}. *)
      let of_bytes s =
        if String.length s <> gt_encoded_size then None
        else if not (String.for_all (Char.equal '\000') (String.sub s 32 (gt_encoded_size - 32)))
        then None
        else begin
          let v = B.of_bytes_be (String.sub s 0 32) in
          if B.compare v order < 0 then Some v else None
        end
    end

    let e a b = B.erem (B.mul a b) order

    (* In the discrete-log model a product of pairings is a sum of
       products of logs. *)
    let e_prod ps =
      List.fold_left (fun acc (a, b) -> B.erem (B.add acc (B.mul a b)) order) B.zero ps
    let rand_scalar drbg = Zkqac_hashing.Drbg.nonzero_bigint drbg order
    let rand_g drbg = rand_scalar drbg
  end)
