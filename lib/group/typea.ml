(* The type-A symmetric pairing: Tate pairing on the supersingular curve
   E : y^2 = x^3 + x over F_p, embedding degree 2, with the distortion map
   psi(x, y) = (-x, i*y) providing symmetry.

   Denominator elimination applies throughout: psi maps x-coordinates into
   F_p, so every vertical-line value lies in F_p*, and so does every nonzero
   F_p factor a line value is scaled by. The (p - 1) factor of the final
   exponentiation (p^2 - 1)/r = (p-1) * cofactor sends all of them to 1.
   The Miller loop therefore only accumulates the tangent/chord lines, and
   it keeps its running point in Jacobian coordinates, scaling each line by
   the F_p factor that clears the point's denominators: the loop never
   inverts. *)

module B = Zkqac_bigint.Bigint

(* Multi-pairing ∏ e(Pi, Qi) on curve points: because squaring distributes
   over the product, a single Miller accumulator [f] is squared once per bit
   of r while every pair contributes its own tangent/chord line values, and
   one final exponentiation covers all terms. Pairs with an identity
   argument contribute nothing; the empty product is 1. The evaluation
   point psi(Q) = (-xq, yq*i) has F_p real coordinate and purely imaginary
   y, so a line a + b*x + c*y with F_p coefficients takes the value
   (a + b*(-xq), c*yq). *)
let e_prod { Typea_params.r; cofactor; fp; _ } pairs =
  let module M = Fp.Mont in
  let infinity = Curve.of_affine fp Curve.Infinity in
  let pairs =
    List.filter_map
      (fun pair ->
        match pair with
        | Curve.Infinity, _ | _, Curve.Infinity -> None
        | (Curve.Affine (xp, yp) as p), Curve.Affine (xq, yq) ->
          Some (xp, yp, M.neg fp xq, yq, ref (Curve.of_affine fp p)))
      pairs
  in
  if pairs = [] then Fp2.one fp
  else begin
    let f = ref (Fp2.one fp) in
    let line re im = f := Fp2.mul fp !f (Fp2.make re im) in
    (* V := 2V, times the tangent at V scaled by 2YZ^3:
       -2Y^2 - M*(xq'*Z^2 - X) + 2YZ^3*yq*i. At Y = 0 the tangent is
       vertical and V becomes infinity. *)
    let tangent v xq' yq =
      let { Curve.x; y; z } = !v in
      if M.is_zero y then v := infinity
      else begin
        let v2, m = Curve.jdouble fp !v in
        let zz = M.sqr fp z in
        let yy = M.sqr fp y in
        line
          (M.sub fp (M.neg fp (M.add fp yy yy)) (M.mul fp m (M.sub fp (M.mul fp xq' zz) x)))
          (M.mul fp (M.mul fp v2.z zz) yq);
        v := v2
      end
    in
    for i = B.num_bits r - 2 downto 0 do
      f := Fp2.sqr fp !f;
      List.iter
        (fun (xp, yp, xq', yq, v) ->
          if not (M.is_zero !v.Curve.z) then tangent v xq' yq;
          if B.testbit r i && not (M.is_zero !v.Curve.z) then
            match Curve.jadd fp !v xp yp with
            | `Sum (s, rr) ->
              (* The chord scaled by z(V + P) = Z*H:
                 -Z3*yp - R*(xq' - xp) + Z3*yq*i. *)
              line
                (M.sub fp (M.neg fp (M.mul fp s.z yp)) (M.mul fp rr (M.sub fp xq' xp)))
                (M.mul fp s.z yq);
              v := s
            | `Same -> tangent v xq' yq
            | `Opposite -> v := infinity (* vertical chord: eliminated *))
        pairs
    done;
    (* Final exponentiation: f^(p-1) via Frobenius (conjugation), then
       raise to the cofactor (p+1)/r. *)
    let f1 = Fp2.mul fp (Fp2.conj fp !f) (Fp2.inv fp !f) in
    Fp2.pow fp f1 cofactor
  end

let create (params : Typea_params.t) : (module Pairing_intf.PAIRING) =
  let { Typea_params.r; p; cofactor; fp; g = gen } = params in
  (module struct
    let name = Printf.sprintf "typea(r=%d bits, p=%d bits)" (B.num_bits r) (B.num_bits p)
    let order = r

    module G = struct
      type t = Curve.point

      let one = Curve.Infinity
      let g = gen
      let mul = Curve.add fp
      let inv = Curve.neg fp
      let pow pt k = Curve.mul fp (B.erem k r) pt
      let equal = Curve.equal
      let is_one = Curve.is_infinity
      let to_bytes = Curve.to_bytes fp

      let of_bytes s =
        match Curve.of_bytes fp s with
        | Some pt when Curve.mul_is_infinity fp r pt ->
          Some pt
        | Some _ | None -> None

      let of_bytes_unchecked = Curve.of_bytes fp

      let hash_to msg =
        let rec go ctr =
          let pt = Curve.hash_to_point fp ~domain:"typea-g" (msg ^ "#" ^ string_of_int ctr) in
          let pt = Curve.mul fp cofactor pt in
          if Curve.is_infinity pt then go (ctr + 1) else pt
        in
        go 0

      type table = Curve.table

      let precompute = Curve.precompute fp ~bits:(B.num_bits r)
      let pow_prod terms = Curve.mul_prod fp (List.map (fun (t, k) -> (t, B.erem k r)) terms)
    end

    module Gt = struct
      type t = Fp2.t

      let one = Fp2.one fp
      let mul = Fp2.mul fp
      let inv = Fp2.inv fp
      let pow a k = Fp2.pow fp a (B.erem k r)
      let equal = Fp2.equal
      let is_one = Fp2.is_one fp
      let to_bytes = Fp2.to_bytes fp

      (* Membership in the order-r subgroup of F_p2* must be checked on
         decode, mirroring [G.of_bytes]'s r*P = infinity check: pairing
         outputs satisfy x^r = 1, and untrusted inputs (the CP-ABE
         [c_tilde] component decodes through here) must not smuggle in
         arbitrary in-range field elements. *)
      let of_bytes s =
        match Fp2.of_bytes fp s with
        | Some x when Fp2.is_one fp (Fp2.pow fp x r) -> Some x
        | Some _ | None -> None
    end

    let e_prod = e_prod params
    let e a b = e_prod [ (a, b) ]

    let rand_scalar drbg = Zkqac_hashing.Drbg.nonzero_bigint drbg r

    let rand_g drbg =
      let k = rand_scalar drbg in
      G.pow gen k
  end)
