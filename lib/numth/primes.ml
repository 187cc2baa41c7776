module B = Zkqac_bigint.Bigint
module Prng = Zkqac_rng.Prng

let small_primes =
  [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67;
    71; 73; 79; 83; 89; 97; 101; 103; 107; 109; 113; 127; 131; 137; 139; 149;
    151; 157; 163; 167; 173; 179; 181; 191; 193; 197; 199; 211; 223; 227; 229 ]

(* Miller-Rabin witness loop with a deterministic DRBG for the bases, so
   primality results are reproducible. *)
let rounds = 32

let miller_rabin n =
  let n1 = B.sub n B.one in
  let rec split d s = if B.is_even d then split (B.shift_right d 1) (s + 1) else (d, s) in
  let d, s = split n1 0 in
  let drbg = Zkqac_hashing.Drbg.create ~seed:("mr:" ^ B.to_string n) in
  let witness a =
    let x = ref (B.powmod a d n) in
    if B.is_one !x || B.equal !x n1 then false
    else begin
      let composite = ref true in
      (try
         for _ = 1 to s - 1 do
           x := B.rem (B.mul !x !x) n;
           if B.equal !x n1 then begin
             composite := false;
             raise Exit
           end
         done
       with Exit -> ());
      !composite
    end
  in
  let rec loop i =
    if i = rounds then true
    else begin
      let a = B.add (Zkqac_hashing.Drbg.bigint drbg (B.sub n (B.of_int 3))) B.two in
      if witness a then false else loop (i + 1)
    end
  in
  if B.compare n B.two < 0 then false else loop 0

let is_probable_prime n =
  if B.compare n B.two < 0 then false
  else begin
    let rec trial = function
      | [] -> miller_rabin n
      | p :: rest ->
        let bp = B.of_int p in
        if B.equal n bp then true
        else if B.is_zero (B.rem n bp) then false
        else trial rest
    in
    trial small_primes
  end

let random_prime rng ~bits =
  if bits < 2 then invalid_arg "Primes.random_prime";
  let top = B.shift_left B.one (bits - 1) in
  let rec go () =
    (* Uniform in [0, 2^(bits-1)), then force the top bit (exact bit length)
       and the low bit (odd). *)
    let v = Prng.bigint rng top in
    let v = B.add top v in
    let v = if B.is_even v then B.add v B.one else v in
    if is_probable_prime v then v else go ()
  in
  go ()

let legendre a p =
  let a = B.erem a p in
  if B.is_zero a then 0
  else begin
    let e = B.shift_right (B.sub p B.one) 1 in
    let r = B.powmod a e p in
    if B.is_one r then 1 else -1
  end

let sqrt_mod a p =
  let a = B.erem a p in
  if B.is_zero a then Some B.zero
  else if B.testbit p 0 && B.testbit p 1 then begin
    (* p = 3 (mod 4): sqrt = a^((p+1)/4). The candidate squares back to [a]
       exactly when [a] is a residue, so that check is the existence test. *)
    let e = B.shift_right (B.add p B.one) 2 in
    let r = B.powmod a e p in
    if B.equal (B.rem (B.mul r r) p) a then Some r else None
  end
  else if legendre a p <> 1 then None
  else begin
    (* Tonelli-Shanks for p = 1 (mod 4). *)
    let p1 = B.sub p B.one in
    let rec split q s = if B.is_even q then split (B.shift_right q 1) (s + 1) else (q, s) in
    let q, s = split p1 0 in
    (* Find a quadratic non-residue. *)
    let rec find_z z = if legendre z p = -1 then z else find_z (B.add z B.one) in
    let z = find_z B.two in
    let m = ref s in
    let c = ref (B.powmod z q p) in
    let t = ref (B.powmod a q p) in
    let r = ref (B.powmod a (B.shift_right (B.add q B.one) 1) p) in
    let result = ref None in
    (try
       while true do
         if B.is_one !t then begin
           result := Some !r;
           raise Exit
         end;
         (* Least i with t^(2^i) = 1. *)
         let rec least_i tt i =
           if B.is_one tt then i else least_i (B.rem (B.mul tt tt) p) (i + 1)
         in
         let i = least_i !t 0 in
         if i = !m then raise Exit (* no root; should not happen after legendre *)
         else begin
           let b = ref !c in
           for _ = 1 to !m - i - 1 do
             b := B.rem (B.mul !b !b) p
           done;
           m := i;
           c := B.rem (B.mul !b !b) p;
           t := B.rem (B.mul !t !c) p;
           r := B.rem (B.mul !r !b) p
         end
       done
     with Exit -> ());
    !result
  end
