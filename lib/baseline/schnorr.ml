module B = Zkqac_bigint.Bigint
module Htf = Zkqac_hashing.Hash_to_field

module Make (P : Zkqac_group.Pairing_intf.PAIRING) = struct
  module G = P.G

  type secret = B.t
  type public = G.t
  type signature = { s : B.t; e : B.t }

  let challenge commitment public msg =
    Htf.to_zp_list ~domain:"zkqac-schnorr" ~p:P.order
      [ G.to_bytes commitment; G.to_bytes public; msg ]

  let keygen drbg =
    let x = P.rand_scalar drbg in
    (x, G.pow G.g x)

  let sign drbg x msg =
    let k = P.rand_scalar drbg in
    let r = G.pow G.g k in
    let public = G.pow G.g x in
    let e = challenge r public msg in
    let s = B.erem (B.sub k (B.mul x e)) P.order in
    { s; e }

  let verify public msg { s; e } =
    (* r' = g^s * y^e; accept iff H(r', y, m) = e. *)
    let r' = G.mul (G.pow G.g s) (G.pow public e) in
    B.equal (challenge r' public msg) e

  let scalar_width = (B.num_bits P.order + 7) / 8

  let to_bytes { s; e } =
    B.to_bytes_be_pad scalar_width s ^ B.to_bytes_be_pad scalar_width e

  let of_bytes data =
    if String.length data <> 2 * scalar_width then None
    else begin
      let s = B.of_bytes_be (String.sub data 0 scalar_width) in
      let e = B.of_bytes_be (String.sub data scalar_width scalar_width) in
      if B.compare s P.order < 0 && B.compare e P.order < 0 then Some { s; e }
      else None
    end

end
