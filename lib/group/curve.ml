module B = Zkqac_bigint.Bigint
module M = Fp.Mont

type point = Infinity | Affine of M.t * M.t

let equal a b =
  match (a, b) with
  | Infinity, Infinity -> true
  | Affine (x1, y1), Affine (x2, y2) -> M.equal x1 x2 && M.equal y1 y2
  | Infinity, Affine _ | Affine _, Infinity -> false

let is_infinity = function Infinity -> true | Affine _ -> false

let neg c = function
  | Infinity -> Infinity
  | Affine (x, y) -> Affine (x, M.neg c y)

(* x³ + x, the right-hand side of the curve equation. *)
let rhs c x = M.add c (M.mul c (M.sqr c x) x) x

let is_on_curve c = function
  | Infinity -> true
  | Affine (x, y) -> M.equal (M.sqr c y) (rhs c x)

(* Jacobian coordinates: (X, Y, Z) stands for the affine point
   (X / Z², Y / Z³), and Z = 0 for infinity. Doubling and adding need no
   inversion; [to_affine] pays the one inversion a result costs. *)
type jacobian = { x : M.t; y : M.t; z : M.t }

let jinfinity c = { x = M.one c; y = M.one c; z = M.zero c }

let of_affine c = function
  | Infinity -> jinfinity c
  | Affine (x, y) -> { x; y; z = M.one c }

let to_affine c v =
  if M.is_zero v.z then Infinity
  else begin
    let zi = M.inv c v.z in
    let zi2 = M.sqr c zi in
    Affine (M.mul c v.x zi2, M.mul c v.y (M.mul c zi2 zi))
  end

let jdouble c v =
  let dbl a = M.add c a a in
  let xx = M.sqr c v.x and yy = M.sqr c v.y and zz = M.sqr c v.z in
  (* M = 3X² + Z⁴ for y² = x³ + x; S = 4XY². *)
  let m = M.add c (M.add c (dbl xx) xx) (M.sqr c zz) in
  let s = dbl (dbl (M.mul c v.x yy)) in
  let x = M.sub c (M.sqr c m) (dbl s) in
  let y = M.sub c (M.mul c m (M.sub c s x)) (dbl (dbl (dbl (M.sqr c yy)))) in
  ({ x; y; z = M.mul c (dbl v.y) v.z }, m)

let jadd c v xp yp =
  let zz = M.sqr c v.z in
  let h = M.sub c (M.mul c xp zz) v.x in
  let rr = M.sub c (M.mul c yp (M.mul c zz v.z)) v.y in
  if M.is_zero h then if M.is_zero rr then `Same else `Opposite
  else begin
    let hh = M.sqr c h in
    let hhh = M.mul c h hh and u = M.mul c v.x hh in
    let x = M.sub c (M.sub c (M.sqr c rr) hhh) (M.add c u u) in
    let y = M.sub c (M.mul c rr (M.sub c u x)) (M.mul c v.y hhh) in
    `Sum ({ x; y; z = M.mul c v.z h }, rr)
  end

(* V + P for Jacobian V and affine P, every case included. *)
let add_affine c v p =
  match p with
  | Infinity -> v
  | Affine (xp, yp) ->
    if M.is_zero v.z then of_affine c p
    else begin
      match jadd c v xp yp with
      | `Sum (s, _) -> s
      | `Same -> fst (jdouble c v)
      | `Opposite -> jinfinity c
    end

let double c p = to_affine c (fst (jdouble c (of_affine c p)))
let add c p q = to_affine c (add_affine c (of_affine c p) q)

(* Left-to-right double-and-add in Jacobian coordinates with mixed
   additions of the affine [p], from its top bit. *)
let mul_jacobian c k p =
  if B.sign k < 0 then invalid_arg "Curve.mul: negative scalar";
  let v = ref (if B.is_zero k then jinfinity c else of_affine c p) in
  for i = B.num_bits k - 2 downto 0 do
    v := fst (jdouble c !v);
    if B.testbit k i then v := add_affine c !v p
  done;
  !v

let mul c k p = to_affine c (mul_jacobian c k p)
let mul_is_infinity c k p = M.is_zero (mul_jacobian c k p).z

(* V + W for Jacobian V and W, every case included. *)
let add_jacobian c v w =
  if M.is_zero v.z then w
  else if M.is_zero w.z then v
  else begin
    let z1z1 = M.sqr c v.z and z2z2 = M.sqr c w.z in
    let u1 = M.mul c v.x z2z2 and u2 = M.mul c w.x z1z1 in
    let s1 = M.mul c v.y (M.mul c w.z z2z2) and s2 = M.mul c w.y (M.mul c v.z z1z1) in
    let h = M.sub c u2 u1 and rr = M.sub c s2 s1 in
    if M.is_zero h then if M.is_zero rr then fst (jdouble c v) else jinfinity c
    else begin
      let hh = M.sqr c h in
      let hhh = M.mul c h hh and u = M.mul c u1 hh in
      let x = M.sub c (M.sub c (M.sqr c rr) hhh) (M.add c u u) in
      let y = M.sub c (M.mul c rr (M.sub c u x)) (M.mul c s1 hhh) in
      { x; y; z = M.mul c (M.mul c v.z w.z) h }
    end
  end

(* Affine forms of many Jacobian points for one inversion (Montgomery's
   trick): invert the product of the non-zero z's, then peel each inverse
   off the running prefix products. *)
let batch_to_affine c vs =
  let n = Array.length vs in
  let prefix = Array.make n (M.one c) in
  let acc = ref (M.one c) in
  Array.iteri
    (fun i v ->
      prefix.(i) <- !acc;
      if not (M.is_zero v.z) then acc := M.mul c !acc v.z)
    vs;
  let inv = ref (M.inv c !acc) in
  let out = Array.make n Infinity in
  for i = n - 1 downto 0 do
    let v = vs.(i) in
    if not (M.is_zero v.z) then begin
      let zi = M.mul c !inv prefix.(i) in
      inv := M.mul c !inv v.z;
      let zi2 = M.sqr c zi in
      out.(i) <- Affine (M.mul c v.x zi2, M.mul c v.y (M.mul c zi2 zi))
    end
  done;
  out

(* Fixed-base tables: 4-bit windows, entry [15 * i + d - 1] = d * 16^i * P
   for d = 1..15, all affine and in Montgomery form. A scalar of at most
   [4 * windows] bits then costs one mixed addition per non-zero nibble and
   no doubling. *)
type table = point array

let window = 4
let digits = (1 lsl window) - 1

let precompute c ~bits p =
  let windows = (bits + window - 1) / window in
  let jac = Array.make (windows * digits) (jinfinity c) in
  let base = ref (of_affine c p) in
  for i = 0 to windows - 1 do
    let b = !base and at d = (digits * i) + d - 1 in
    jac.(at 1) <- b;
    for d = 2 to digits do
      jac.(at d) <- add_jacobian c jac.(at (d - 1)) b
    done;
    base := add_jacobian c jac.(at digits) b
  done;
  batch_to_affine c jac

let mul_prod c terms =
  let acc = ref (jinfinity c) in
  List.iter
    (fun (t, k) ->
      if B.sign k < 0 then invalid_arg "Curve.mul_prod: negative scalar";
      let windows = Array.length t / digits in
      if B.num_bits k > windows * window then invalid_arg "Curve.mul_prod: scalar too wide";
      for i = 0 to windows - 1 do
        let d = ref 0 in
        for b = window - 1 downto 0 do
          d := (2 * !d) + Bool.to_int (B.testbit k ((window * i) + b))
        done;
        if !d <> 0 then acc := add_affine c !acc t.((digits * i) + !d - 1)
      done)
    terms;
  to_affine c !acc

(* A y with y² = x³ + x for the canonical [x], if there is one, and [x]
   in Montgomery form. *)
let y_of_x c x =
  let x = M.of_fp c x in
  Option.map (fun y -> (x, y)) (M.sqrt c (rhs c x))

let hash_to_point c ~domain msg =
  let p = Fp.modulus c in
  let rec try_ctr ctr =
    let x =
      Zkqac_hashing.Hash_to_field.to_zp ~domain:(domain ^ ":h2p") ~p
        (msg ^ ":" ^ string_of_int ctr)
    in
    match y_of_x c x with
    | Some (xm, y) ->
      (* Deterministic sign choice keyed on the counter stream. *)
      Affine (xm, if B.testbit x 0 then y else M.neg c y)
    | None -> try_ctr (ctr + 1)
  in
  try_ctr 0

let to_bytes c pt =
  let w = (B.num_bits (Fp.modulus c) + 7) / 8 in
  match pt with
  | Infinity -> String.make (w + 1) '\000'
  | Affine (x, y) ->
    let tag = if B.testbit (M.to_fp c y) 0 then '\003' else '\002' in
    String.make 1 tag ^ B.to_bytes_be_pad w (M.to_fp c x)

let of_bytes c s =
  let w = (B.num_bits (Fp.modulus c) + 7) / 8 in
  if String.length s <> w + 1 then None
  else begin
    match s.[0] with
    | '\000' ->
      (* Canonical encodings only: infinity is the all-zero string, not any
         string with a zero tag. *)
      if String.for_all (Char.equal '\000') s then Some Infinity else None
    | ('\002' | '\003') as tag ->
      let x = B.of_bytes_be (String.sub s 1 w) in
      if B.compare x (Fp.modulus c) >= 0 then None
      else begin
        match y_of_x c x with
        | None -> None
        | Some (xm, y) ->
          let want_odd = tag = '\003' in
          Some (Affine (xm, if B.testbit (M.to_fp c y) 0 = want_odd then y else M.neg c y))
      end
    | _ -> None
  end
