(* Telemetry-counting wrapper over a PAIRING backend.

   Wraps every expensive operation crossing the PAIRING interface boundary
   with a Zkqac_telemetry counter bump; cheap structural operations
   (equality, encoding, constants) pass through untouched. Applied by
   Backend.instantiate, so all protocol code is counted without the
   backends themselves knowing about telemetry. Each wrapped call bumps
   one slot of the calling domain's counters. *)

module T = Zkqac_telemetry.Telemetry

module Make (P : Pairing_intf.PAIRING) : Pairing_intf.PAIRING = struct
  let name = P.name
  let order = P.order

  module G = struct
    type t = P.G.t

    let one = P.G.one
    let g = P.G.g

    let mul a b =
      T.bump T.G_mul;
      P.G.mul a b

    let inv a =
      T.bump T.G_mul;
      P.G.inv a

    let pow a k =
      T.bump T.G_exp;
      P.G.pow a k

    let equal = P.G.equal
    let is_one = P.G.is_one
    let to_bytes = P.G.to_bytes
    let of_bytes = P.G.of_bytes
    let of_bytes_unchecked = P.G.of_bytes_unchecked
    let hash_to = P.G.hash_to

    type table = P.G.table

    let precompute = P.G.precompute

    (* Counted as the fold it equals: one exponentiation per term and one
       multiplication per join. *)
    let pow_prod terms =
      let n = List.length terms in
      T.bump_n T.G_exp n;
      if n > 1 then T.bump_n T.G_mul (n - 1);
      P.G.pow_prod terms
  end

  module Gt = struct
    type t = P.Gt.t

    let one = P.Gt.one

    let mul a b =
      T.bump T.Gt_mul;
      P.Gt.mul a b

    let inv a =
      T.bump T.Gt_mul;
      P.Gt.inv a

    let pow a k =
      T.bump T.Gt_exp;
      P.Gt.pow a k

    let equal = P.Gt.equal
    let is_one = P.Gt.is_one
    let to_bytes = P.Gt.to_bytes
    let of_bytes = P.Gt.of_bytes
  end

  let e a b =
    T.bump T.Pairing;
    P.e a b

  let e_prod ps =
    T.bump T.Multi_pairing;
    T.bump_n T.Multi_pairing_terms (List.length ps);
    P.e_prod ps

  let rand_scalar = P.rand_scalar
  let rand_g = P.rand_g
end
