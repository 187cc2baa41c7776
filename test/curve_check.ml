(* A test-only reference for the type-A arithmetic: affine double-and-add
   and the affine Miller loop, one inversion per curve step, as the library
   computed them before it moved to Jacobian coordinates. It shares only
   the field layer (Fp, Fp2) with the code under test. *)

module B = Zkqac_bigint.Bigint
module Curve = Zkqac_group.Curve
module Fp = Zkqac_group.Fp
module Fp2 = Zkqac_group.Fp2

let on_curve fp pt = Curve.is_on_curve fp pt

(* Tangent slope (3x^2 + 1) / 2y of y^2 = x^3 + x. *)
let tangent_slope fp x y =
  Fp.div fp (Fp.add fp (Fp.mul fp (Fp.of_int fp 3) (Fp.sqr fp x)) Fp.one) (Fp.add fp y y)

let double fp = function
  | Curve.Infinity -> Curve.Infinity
  | Curve.Affine (x, y) ->
    if Fp.is_zero y then Curve.Infinity
    else begin
      let l = tangent_slope fp x y in
      let x3 = Fp.sub fp (Fp.sqr fp l) (Fp.add fp x x) in
      Curve.Affine (x3, Fp.sub fp (Fp.mul fp l (Fp.sub fp x x3)) y)
    end

let add fp p q =
  match (p, q) with
  | Curve.Infinity, s | s, Curve.Infinity -> s
  | Curve.Affine (x1, y1), Curve.Affine (x2, y2) ->
    if B.equal x1 x2 then (if B.equal y1 y2 then double fp p else Curve.Infinity)
    else begin
      let l = Fp.div fp (Fp.sub fp y2 y1) (Fp.sub fp x2 x1) in
      let x3 = Fp.sub fp (Fp.sub fp (Fp.sqr fp l) x1) x2 in
      Curve.Affine (x3, Fp.sub fp (Fp.mul fp l (Fp.sub fp x1 x3)) y1)
    end

let mul fp k p =
  let acc = ref Curve.Infinity in
  for i = B.num_bits k - 1 downto 0 do
    acc := double fp !acc;
    if B.testbit k i then acc := add fp !acc p
  done;
  !acc

(* f_{r,P}(psi(Q)) with psi(x, y) = (-x, i*y), unscaled affine lines; the
   running point stays at infinity once it gets there. *)
let miller fp r (xp, yp) (xq, yq) =
  let xq' = Fp.neg fp xq in
  let line l xv yv = Fp2.make (Fp.sub fp (Fp.neg fp yv) (Fp.mul fp l (Fp.sub fp xq' xv))) yq in
  let f = ref Fp2.one and v = ref (Curve.Affine (xp, yp)) in
  for i = B.num_bits r - 2 downto 0 do
    f := Fp2.sqr fp !f;
    (match !v with
    | Curve.Infinity -> ()
    | Curve.Affine (xv, yv) ->
      if Fp.is_zero yv then v := Curve.Infinity
      else begin
        f := Fp2.mul fp !f (line (tangent_slope fp xv yv) xv yv);
        v := double fp !v
      end);
    if B.testbit r i then begin
      match !v with
      | Curve.Infinity -> ()
      | Curve.Affine (xv, yv) ->
        if B.equal xv xp then begin
          if B.equal yv yp then begin
            f := Fp2.mul fp !f (line (tangent_slope fp xv yv) xv yv);
            v := double fp !v
          end
          else v := Curve.Infinity
        end
        else begin
          f := Fp2.mul fp !f (line (Fp.div fp (Fp.sub fp yp yv) (Fp.sub fp xp xv)) xv yv);
          v := add fp !v (Curve.Affine (xp, yp))
        end
    end
  done;
  !f

(* The product of reference pairings, each with its own final
   exponentiation f^((p-1) * cofactor). *)
let e_prod (params : Zkqac_group.Typea_params.t) pairs =
  let fp = params.fp in
  List.fold_left
    (fun acc pair ->
      match pair with
      | Curve.Infinity, _ | _, Curve.Infinity -> acc
      | Curve.Affine (xp, yp), Curve.Affine (xq, yq) ->
        let f = miller fp params.r (xp, yp) (xq, yq) in
        let f1 = Fp2.mul fp (Fp2.conj fp f) (Fp2.inv fp f) in
        Fp2.mul fp acc (Fp2.pow fp f1 params.cofactor))
    Fp2.one pairs
