(* A test-only reference for the type-A arithmetic: affine double-and-add
   and the affine Miller loop, one inversion per curve step, on canonical
   residues with plain Bigint modular arithmetic. It has its own point and
   F_p² types and shares no code with Fp.Mont, Fp2 or Curve; tests compare
   it with the library at the boundary, through [of_point] and [of_gt]
   (Fp.Mont.to_fp) or the byte codecs. *)

module B = Zkqac_bigint.Bigint
module M = Zkqac_group.Fp.Mont

type point = Inf | Pt of B.t * B.t
type fp2 = { re : B.t; im : B.t }

let of_point fp = function
  | Zkqac_group.Curve.Infinity -> Inf
  | Zkqac_group.Curve.Affine (x, y) -> Pt (M.to_fp fp x, M.to_fp fp y)

let of_gt fp (a : Zkqac_group.Fp2.t) = { re = M.to_fp fp a.re; im = M.to_fp fp a.im }

let to_string = function
  | Inf -> "O"
  | Pt (x, y) -> B.to_hex x ^ "," ^ B.to_hex y

let fp2_to_string a = B.to_hex a.re ^ "+" ^ B.to_hex a.im ^ "i"

let equal a b =
  match (a, b) with
  | Inf, Inf -> true
  | Pt (x1, y1), Pt (x2, y2) -> B.equal x1 x2 && B.equal y1 y2
  | Inf, Pt _ | Pt _, Inf -> false

let fp2_equal a b = B.equal a.re b.re && B.equal a.im b.im

(* F_p, mod [p]. *)
let add p a b = B.erem (B.add a b) p
let sub p a b = B.erem (B.sub a b) p
let mul p a b = B.erem (B.mul a b) p
let div p a b = mul p a (B.invmod b p)

let on_curve p = function
  | Inf -> true
  | Pt (x, y) -> B.equal (mul p y y) (add p (mul p (mul p x x) x) x)

(* Tangent slope (3x^2 + 1) / 2y of y^2 = x^3 + x. *)
let tangent_slope p x y = div p (add p (mul p (B.of_int 3) (mul p x x)) B.one) (add p y y)

let double p = function
  | Inf -> Inf
  | Pt (x, y) ->
    if B.is_zero y then Inf
    else begin
      let l = tangent_slope p x y in
      let x3 = sub p (mul p l l) (add p x x) in
      Pt (x3, sub p (mul p l (sub p x x3)) y)
    end

let add_points p a b =
  match (a, b) with
  | Inf, s | s, Inf -> s
  | Pt (x1, y1), Pt (x2, y2) ->
    if B.equal x1 x2 then (if B.equal y1 y2 then double p a else Inf)
    else begin
      let l = div p (sub p y2 y1) (sub p x2 x1) in
      let x3 = sub p (sub p (mul p l l) x1) x2 in
      Pt (x3, sub p (mul p l (sub p x1 x3)) y1)
    end

let scalar_mul p k pt =
  let acc = ref Inf in
  for i = B.num_bits k - 1 downto 0 do
    acc := double p !acc;
    if B.testbit k i then acc := add_points p !acc pt
  done;
  !acc

(* F_p² = F_p[i] / (i² + 1), schoolbook. *)
let f2one = { re = B.one; im = B.zero }

let f2mul p a b =
  { re = sub p (mul p a.re b.re) (mul p a.im b.im); im = add p (mul p a.re b.im) (mul p a.im b.re) }

let f2inv p a =
  let n = B.invmod (add p (mul p a.re a.re) (mul p a.im a.im)) p in
  { re = mul p a.re n; im = B.erem (B.neg (mul p a.im n)) p }

let f2pow p a e =
  let r = ref f2one in
  for i = B.num_bits e - 1 downto 0 do
    r := f2mul p !r !r;
    if B.testbit e i then r := f2mul p !r a
  done;
  !r

(* f_{r,P}(psi(Q)) with psi(x, y) = (-x, i*y), unscaled affine lines; the
   running point stays at infinity once it gets there. *)
let miller p r (xp, yp) (xq, yq) =
  let xq' = B.erem (B.neg xq) p in
  let line l xv yv = { re = sub p (B.erem (B.neg yv) p) (mul p l (sub p xq' xv)); im = yq } in
  let f = ref f2one and v = ref (Pt (xp, yp)) in
  for i = B.num_bits r - 2 downto 0 do
    f := f2mul p !f !f;
    (match !v with
    | Inf -> ()
    | Pt (xv, yv) ->
      if B.is_zero yv then v := Inf
      else begin
        f := f2mul p !f (line (tangent_slope p xv yv) xv yv);
        v := double p !v
      end);
    if B.testbit r i then begin
      match !v with
      | Inf -> ()
      | Pt (xv, yv) ->
        if B.equal xv xp then begin
          if B.equal yv yp then begin
            f := f2mul p !f (line (tangent_slope p xv yv) xv yv);
            v := double p !v
          end
          else v := Inf
        end
        else begin
          f := f2mul p !f (line (div p (sub p yp yv) (sub p xp xv)) xv yv);
          v := add_points p !v (Pt (xp, yp))
        end
    end
  done;
  !f

(* The product of reference pairings, each with its own final
   exponentiation f^((p-1) * cofactor); f^p is the conjugate. *)
let e_prod (params : Zkqac_group.Typea_params.t) pairs =
  let p = params.p in
  List.fold_left
    (fun acc pair ->
      match pair with
      | Inf, _ | _, Inf -> acc
      | Pt (xp, yp), Pt (xq, yq) ->
        let f = miller p params.r (xp, yp) (xq, yq) in
        let conj = { f with im = B.erem (B.neg f.im) p } in
        f2mul p acc (f2pow p (f2mul p conj (f2inv p f)) params.cofactor))
    f2one pairs
