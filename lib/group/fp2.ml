module B = Zkqac_bigint.Bigint

type t = { re : B.t; im : B.t }

let zero = { re = B.zero; im = B.zero }
let one = { re = B.one; im = B.zero }
let make re im = { re; im }
let equal a b = B.equal a.re b.re && B.equal a.im b.im
let is_zero a = B.is_zero a.re && B.is_zero a.im
let is_one a = B.is_one a.re && B.is_zero a.im
let add c a b = { re = Fp.add c a.re b.re; im = Fp.add c a.im b.im }
let sub c a b = { re = Fp.sub c a.re b.re; im = Fp.sub c a.im b.im }
let neg c a = { re = Fp.neg c a.re; im = Fp.neg c a.im }

(* (a + bi)(c + di) = (ac - bd) + (ad + bc)i, via Karatsuba: three base
   multiplications instead of four. *)
let mul c x y =
  let ac = Fp.mul c x.re y.re in
  let bd = Fp.mul c x.im y.im in
  let cross = Fp.mul c (Fp.add c x.re x.im) (Fp.add c y.re y.im) in
  { re = Fp.sub c ac bd; im = Fp.sub c (Fp.sub c cross ac) bd }

(* (a + bi)^2 = (a+b)(a-b) + 2ab i. *)
let sqr c x =
  let re = Fp.mul c (Fp.add c x.re x.im) (Fp.sub c x.re x.im) in
  let ab = Fp.mul c x.re x.im in
  { re; im = Fp.add c ab ab }

let conj c a = { a with im = Fp.neg c a.im }

(* 1 / (a + bi) = (a - bi) / (a^2 + b^2). *)
let inv c a =
  let norm = Fp.add c (Fp.sqr c a.re) (Fp.sqr c a.im) in
  let ninv = Fp.inv c norm in
  { re = Fp.mul c a.re ninv; im = Fp.neg c (Fp.mul c a.im ninv) }

module Mont = struct
  module M = Fp.Mont

  type fp2 = t
  type t = { re : M.t; im : M.t }

  let make re im = { re; im }
  let of_fp2 c (a : fp2) = { re = M.of_fp c a.re; im = M.of_fp c a.im }
  let to_fp2 c a : fp2 = { re = M.to_fp c a.re; im = M.to_fp c a.im }
  let one c = { re = M.one c; im = M.zero c }
  let conj c a = { a with im = M.neg c a.im }

  let mul c x y =
    let ac = M.mul c x.re y.re in
    let bd = M.mul c x.im y.im in
    let cross = M.mul c (M.add c x.re x.im) (M.add c y.re y.im) in
    { re = M.sub c ac bd; im = M.sub c (M.sub c cross ac) bd }

  let sqr c x =
    let ab = M.mul c x.re x.im in
    { re = M.mul c (M.add c x.re x.im) (M.sub c x.re x.im); im = M.add c ab ab }

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
end

let pow c a e = Mont.to_fp2 c (Mont.pow c (Mont.of_fp2 c a) e)

let to_bytes c a =
  let w = (B.num_bits (Fp.modulus c) + 7) / 8 in
  B.to_bytes_be_pad w a.re ^ B.to_bytes_be_pad w a.im

let of_bytes c s =
  let w = (B.num_bits (Fp.modulus c) + 7) / 8 in
  if String.length s <> 2 * w then None
  else begin
    let re = B.of_bytes_be (String.sub s 0 w) in
    let im = B.of_bytes_be (String.sub s w w) in
    if B.compare re (Fp.modulus c) < 0 && B.compare im (Fp.modulus c) < 0 then
      Some { re; im }
    else None
  end
