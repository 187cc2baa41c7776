module B = Zkqac_bigint.Bigint
module M = Fp.Mont

type t = { re : M.t; im : M.t }

let make re im = { re; im }
let one c = { re = M.one c; im = M.zero c }
let equal a b = M.equal a.re b.re && M.equal a.im b.im
let is_one c a = M.is_zero a.im && M.equal a.re (M.one c)
let conj c a = { a with im = M.neg c a.im }

(* (a + bi)(c + di) = (ac - bd) + (ad + bc)i, via Karatsuba: three base
   multiplications instead of four. *)
let mul c x y =
  let ac = M.mul c x.re y.re in
  let bd = M.mul c x.im y.im in
  let cross = M.mul c (M.add c x.re x.im) (M.add c y.re y.im) in
  { re = M.sub c ac bd; im = M.sub c (M.sub c cross ac) bd }

(* (a + bi)^2 = (a+b)(a-b) + 2ab i. *)
let sqr c x =
  let ab = M.mul c x.re x.im in
  { re = M.mul c (M.add c x.re x.im) (M.sub c x.re x.im); im = M.add c ab ab }

(* 1 / (a + bi) = (a - bi) / (a^2 + b^2). *)
let inv c a =
  let ninv = M.inv c (M.add c (M.sqr c a.re) (M.sqr c a.im)) in
  { re = M.mul c a.re ninv; im = M.neg c (M.mul c a.im ninv) }

let pow c a e =
  if B.sign e < 0 then invalid_arg "Fp2.pow: negative exponent";
  let r = ref (one c) in
  for i = B.num_bits e - 1 downto 0 do
    r := sqr c !r;
    if B.testbit e i then r := mul c !r a
  done;
  !r

let to_bytes c a =
  let w = (B.num_bits (Fp.modulus c) + 7) / 8 in
  B.to_bytes_be_pad w (M.to_fp c a.re) ^ B.to_bytes_be_pad w (M.to_fp c a.im)

let of_bytes c s =
  let w = (B.num_bits (Fp.modulus c) + 7) / 8 in
  if String.length s <> 2 * w then None
  else begin
    let re = B.of_bytes_be (String.sub s 0 w) in
    let im = B.of_bytes_be (String.sub s w w) in
    if B.compare re (Fp.modulus c) < 0 && B.compare im (Fp.modulus c) < 0 then
      Some { re = M.of_fp c re; im = M.of_fp c im }
    else None
  end
