module B = Zkqac_bigint.Bigint

let limb_bits = B.limb_bits
let mask = (1 lsl limb_bits) - 1

(* Montgomery arithmetic over [n] limbs of 26 bits with R = 2^(26n) > p.
   A residue a is held as the [n]-limb array of a·R mod p. Limb products
   stay below 2^52, so a product, a second product and a carry fit in one
   63-bit [int] without splitting. Every operation writes a fresh array and
   never mutates its arguments, so values and the context are safe to share
   across domains. *)
type ctx = {
  p : B.t;
  n : int;
  pl : int array;  (* p *)
  pinv : int;  (* -p⁻¹ mod 2^26 *)
  unit : int array;  (* the integer 1, which [mul] by it takes out of Montgomery form *)
  mzero : int array;
  mone : int array;  (* R mod p *)
  r2 : int array;  (* R² mod p *)
  r3 : int array;  (* R³ mod p *)
  sqrt_exp : B.t option;  (* (p + 1) / 4 when p ≡ 3 (mod 4) *)
}

let create p =
  if B.compare p B.two <= 0 || B.is_even p then invalid_arg "Fp.create: modulus not an odd number > 2";
  let n = (B.num_bits p + limb_bits - 1) / limb_bits in
  let p0 = (B.to_limbs n p).(0) in
  (* Newton's iteration x ← x(2 − p0·x) doubles the correct low bits of p0⁻¹,
     from the 3 that x = p0 has for odd p0. *)
  let x = ref p0 in
  for _ = 1 to 4 do
    x := !x * ((2 - (p0 * !x land mask)) land mask) land mask
  done;
  let rpow k = B.to_limbs n (B.erem (B.shift_left B.one (limb_bits * n * k)) p) in
  {
    p;
    n;
    pl = B.to_limbs n p;
    pinv = - !x land mask;
    unit = B.to_limbs n B.one;
    mzero = Array.make n 0;
    mone = rpow 1;
    r2 = rpow 2;
    r3 = rpow 3;
    sqrt_exp = (if B.testbit p 1 then Some (B.shift_right (B.add p B.one) 2) else None);
  }

module Mont = struct
  type t = int array

  let geq_p c t =
    let p = c.pl and j = ref (c.n - 1) in
    while !j > 0 && t.(!j) = p.(!j) do
      decr j
    done;
    t.(!j) >= p.(!j)

  (* [t] + hi·R is below 2p: subtract p once if it is at least p. *)
  let reduce_once c t hi =
    let n = c.n and p = c.pl in
    if hi <> 0 || geq_p c t then begin
      let borrow = ref 0 in
      for j = 0 to n - 1 do
        let d = t.(j) - p.(j) - !borrow in
        t.(j) <- d land mask;
        borrow := -(d asr limb_bits)
      done
    end;
    t

  (* Coarsely integrated operand scanning: for each limb b_i, add a·b_i and
     the multiple u·p that zeroes the low limb, and shift one limb down, in
     one pass. The running value stays below 2p, so the limb above [t] is
     0 or 1. *)
  let mul c a b =
    let n = c.n and p = c.pl and pinv = c.pinv in
    let t = Array.make n 0 in
    let hi = ref 0 in
    for i = 0 to n - 1 do
      let bi = b.(i) in
      let s0 = t.(0) + (a.(0) * bi) in
      let u = (s0 land mask) * pinv land mask in
      let carry = ref ((s0 + (u * p.(0))) lsr limb_bits) in
      for j = 1 to n - 1 do
        let s = t.(j) + (a.(j) * bi) + (u * p.(j)) + !carry in
        t.(j - 1) <- s land mask;
        carry := s lsr limb_bits
      done;
      let s = !hi + !carry in
      t.(n - 1) <- s land mask;
      hi := s lsr limb_bits
    done;
    reduce_once c t !hi

  let sqr c a = mul c a a

  let add c a b =
    let n = c.n in
    let t = Array.make n 0 in
    let carry = ref 0 in
    for j = 0 to n - 1 do
      let s = a.(j) + b.(j) + !carry in
      t.(j) <- s land mask;
      carry := s lsr limb_bits
    done;
    reduce_once c t !carry

  let sub c a b =
    let n = c.n and p = c.pl in
    let t = Array.make n 0 in
    let borrow = ref 0 in
    for j = 0 to n - 1 do
      let d = a.(j) - b.(j) - !borrow in
      t.(j) <- d land mask;
      borrow := -(d asr limb_bits)
    done;
    if !borrow <> 0 then begin
      let carry = ref 0 in
      for j = 0 to n - 1 do
        let s = t.(j) + p.(j) + !carry in
        t.(j) <- s land mask;
        carry := s lsr limb_bits
      done
    end;
    t

  let is_zero (a : t) =
    let j = ref (Array.length a - 1) in
    while !j >= 0 && a.(!j) = 0 do
      decr j
    done;
    !j < 0

  let equal (a : t) (b : t) =
    let j = ref (Array.length a - 1) in
    while !j >= 0 && a.(!j) = b.(!j) do
      decr j
    done;
    !j < 0

  let zero c = c.mzero
  let one c = c.mone
  let neg c a = if is_zero a then a else sub c c.mzero a
  let of_fp c x = mul c (B.to_limbs c.n x) c.r2
  let to_fp c a = B.of_limbs (mul c a c.unit)

  (* aR ↦ (aR)⁻¹ = a⁻¹R⁻¹ by Euclid, then times R³ back to a⁻¹R. *)
  let inv c a =
    if is_zero a then raise Division_by_zero;
    mul c (B.to_limbs c.n (B.invmod (B.of_limbs a) c.p)) c.r3

  let pow c a e =
    if B.sign e < 0 then invalid_arg "Fp.Mont.pow: negative exponent";
    let r = ref c.mone in
    for i = B.num_bits e - 1 downto 0 do
      r := sqr c !r;
      if B.testbit e i then r := mul c !r a
    done;
    !r

  (* For p ≡ 3 (mod 4) the candidate a^((p+1)/4) squares back to a exactly
     when a is a residue; other primes go through Tonelli–Shanks. *)
  let sqrt c a =
    match c.sqrt_exp with
    | Some e ->
      let r = pow c a e in
      if equal (sqr c r) a then Some r else None
    | None -> Option.map (of_fp c) (Zkqac_numth.Primes.sqrt_mod (to_fp c a) c.p)
end

let modulus c = c.p

(* mont(a, b) = a·b·R⁻¹, and mont(a·b·R⁻¹, R²) = a·b: two Montgomery
   products and no conversion into the form. *)
let mul c a b =
  let n = c.n in
  B.of_limbs (Mont.mul c (Mont.mul c (B.to_limbs n a) (B.to_limbs n b)) c.r2)

let inv c a = B.invmod a c.p
