module B = Zkqac_bigint.Bigint

type point = Infinity | Affine of B.t * B.t

let equal a b =
  match (a, b) with
  | Infinity, Infinity -> true
  | Affine (x1, y1), Affine (x2, y2) -> B.equal x1 x2 && B.equal y1 y2
  | Infinity, Affine _ | Affine _, Infinity -> false

let is_infinity = function Infinity -> true | Affine _ -> false

let neg c = function
  | Infinity -> Infinity
  | Affine (x, y) -> Affine (x, Fp.neg c y)

let is_on_curve c = function
  | Infinity -> true
  | Affine (x, y) ->
    let lhs = Fp.sqr c y in
    let rhs = Fp.add c (Fp.mul c (Fp.sqr c x) x) x in
    Fp.equal lhs rhs

(* Jacobian coordinates: (X, Y, Z) stands for the affine point
   (X / Z², Y / Z³), and Z = 0 for infinity. Doubling and adding need no
   inversion; [to_affine] pays the one inversion a result costs. *)
type jacobian = { x : B.t; y : B.t; z : B.t }

let jinfinity = { x = B.one; y = B.one; z = B.zero }

let of_affine = function
  | Infinity -> jinfinity
  | Affine (x, y) -> { x; y; z = B.one }

let to_affine c v =
  if Fp.is_zero v.z then Infinity
  else begin
    let zi = Fp.inv c v.z in
    let zi2 = Fp.sqr c zi in
    Affine (Fp.mul c v.x zi2, Fp.mul c v.y (Fp.mul c zi2 zi))
  end

let jdouble c v =
  let dbl a = Fp.add c a a in
  let xx = Fp.sqr c v.x and yy = Fp.sqr c v.y and zz = Fp.sqr c v.z in
  (* M = 3X² + Z⁴ for y² = x³ + x; S = 4XY². *)
  let m = Fp.add c (Fp.add c (dbl xx) xx) (Fp.sqr c zz) in
  let s = dbl (dbl (Fp.mul c v.x yy)) in
  let x = Fp.sub c (Fp.sqr c m) (dbl s) in
  let y = Fp.sub c (Fp.mul c m (Fp.sub c s x)) (dbl (dbl (dbl (Fp.sqr c yy)))) in
  ({ x; y; z = Fp.mul c (dbl v.y) v.z }, m)

let jadd c v xp yp =
  let zz = Fp.sqr c v.z in
  let h = Fp.sub c (Fp.mul c xp zz) v.x in
  let rr = Fp.sub c (Fp.mul c yp (Fp.mul c zz v.z)) v.y in
  if Fp.is_zero h then if Fp.is_zero rr then `Same else `Opposite
  else begin
    let hh = Fp.sqr c h in
    let hhh = Fp.mul c h hh and u = Fp.mul c v.x hh in
    let x = Fp.sub c (Fp.sub c (Fp.sqr c rr) hhh) (Fp.add c u u) in
    let y = Fp.sub c (Fp.mul c rr (Fp.sub c u x)) (Fp.mul c v.y hhh) in
    `Sum ({ x; y; z = Fp.mul c v.z h }, rr)
  end

(* V + P for Jacobian V and affine P, every case included. *)
let add_affine c v p =
  match p with
  | Infinity -> v
  | Affine (xp, yp) ->
    if Fp.is_zero v.z then of_affine p
    else begin
      match jadd c v xp yp with
      | `Sum (s, _) -> s
      | `Same -> fst (jdouble c v)
      | `Opposite -> jinfinity
    end

let double c p = to_affine c (fst (jdouble c (of_affine p)))
let add c p q = to_affine c (add_affine c (of_affine p) q)

(* Left-to-right double-and-add in Jacobian coordinates with mixed
   additions of the affine [p]; one inversion in all. *)
let mul c k p =
  if B.sign k < 0 then invalid_arg "Curve.mul: negative scalar";
  let v = ref jinfinity in
  for i = B.num_bits k - 1 downto 0 do
    v := fst (jdouble c !v);
    if B.testbit k i then v := add_affine c !v p
  done;
  to_affine c !v

(* V + W for Jacobian V and W, every case included. *)
let add_jacobian c v w =
  if Fp.is_zero v.z then w
  else if Fp.is_zero w.z then v
  else begin
    let z1z1 = Fp.sqr c v.z and z2z2 = Fp.sqr c w.z in
    let u1 = Fp.mul c v.x z2z2 and u2 = Fp.mul c w.x z1z1 in
    let s1 = Fp.mul c v.y (Fp.mul c w.z z2z2) and s2 = Fp.mul c w.y (Fp.mul c v.z z1z1) in
    let h = Fp.sub c u2 u1 and rr = Fp.sub c s2 s1 in
    if Fp.is_zero h then if Fp.is_zero rr then fst (jdouble c v) else jinfinity
    else begin
      let hh = Fp.sqr c h in
      let hhh = Fp.mul c h hh and u = Fp.mul c u1 hh in
      let x = Fp.sub c (Fp.sub c (Fp.sqr c rr) hhh) (Fp.add c u u) in
      let y = Fp.sub c (Fp.mul c rr (Fp.sub c u x)) (Fp.mul c s1 hhh) in
      { x; y; z = Fp.mul c (Fp.mul c v.z w.z) h }
    end
  end

(* Affine forms of many Jacobian points for one inversion (Montgomery's
   trick): invert the product of the non-zero z's, then peel each inverse
   off the running prefix products. *)
let batch_to_affine c vs =
  let n = Array.length vs in
  let prefix = Array.make n Fp.one in
  let acc = ref Fp.one in
  Array.iteri
    (fun i v ->
      prefix.(i) <- !acc;
      if not (Fp.is_zero v.z) then acc := Fp.mul c !acc v.z)
    vs;
  let inv = ref (Fp.inv c !acc) in
  let out = Array.make n Infinity in
  for i = n - 1 downto 0 do
    let v = vs.(i) in
    if not (Fp.is_zero v.z) then begin
      let zi = Fp.mul c !inv prefix.(i) in
      inv := Fp.mul c !inv v.z;
      let zi2 = Fp.sqr c zi in
      out.(i) <- Affine (Fp.mul c v.x zi2, Fp.mul c v.y (Fp.mul c zi2 zi))
    end
  done;
  out

(* Fixed-base tables: 4-bit windows, entry [15 * i + d - 1] = d * 16^i * P
   for d = 1..15, all affine. A scalar of at most [4 * windows] bits then
   costs one mixed addition per non-zero nibble and no doubling. *)
type table = point array

let window = 4
let digits = (1 lsl window) - 1

let precompute c ~bits p =
  let windows = (bits + window - 1) / window in
  let jac = Array.make (windows * digits) jinfinity in
  let base = ref (of_affine p) in
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
  let acc = ref jinfinity in
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

let hash_to_point c ~domain msg =
  let p = Fp.modulus c in
  let rec try_ctr ctr =
    let x =
      Zkqac_hashing.Hash_to_field.to_zp ~domain:(domain ^ ":h2p") ~p
        (msg ^ ":" ^ string_of_int ctr)
    in
    let rhs = Fp.add c (Fp.mul c (Fp.sqr c x) x) x in
    match Fp.sqrt c rhs with
    | Some y ->
      (* Deterministic sign choice keyed on the counter stream. *)
      let y = if B.testbit x 0 then y else Fp.neg c y in
      Affine (x, y)
    | None -> try_ctr (ctr + 1)
  in
  try_ctr 0

let to_bytes c pt =
  let w = (B.num_bits (Fp.modulus c) + 7) / 8 in
  match pt with
  | Infinity -> String.make (w + 1) '\000'
  | Affine (x, y) ->
    let tag = if B.testbit y 0 then '\003' else '\002' in
    String.make 1 tag ^ B.to_bytes_be_pad w x

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
        let rhs = Fp.add c (Fp.mul c (Fp.sqr c x) x) x in
        match Fp.sqrt c rhs with
        | None -> None
        | Some y ->
          let want_odd = tag = '\003' in
          let y = if B.testbit y 0 = want_odd then y else Fp.neg c y in
          Some (Affine (x, y))
      end
    | _ -> None
  end
