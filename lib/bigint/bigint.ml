(* Sign-magnitude arbitrary-precision integers over base-2^26 limbs.

   The limb width 26 is chosen so that a product of two limbs (<= 2^52) plus
   carries stays comfortably within OCaml's 63-bit native ints, which keeps
   every inner loop in plain [int] arithmetic with no boxing. Magnitudes are
   little-endian [int array]s with no trailing zero limbs; the canonical zero
   is [{ sign = 0; mag = [||] }]. *)

let limb_bits = 26
let base = 1 lsl limb_bits
let mask = base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

(* Strip trailing zero limbs and canonicalize the sign of zero. *)
let normalize sign mag =
  let n = Array.length mag in
  let rec top i = if i > 0 && mag.(i - 1) = 0 then top (i - 1) else i in
  let k = top n in
  if k = 0 then zero
  else if k = n then { sign; mag }
  else { sign; mag = Array.sub mag 0 k }

let of_int i =
  if i = 0 then zero
  else begin
    let sign = if i < 0 then -1 else 1 in
    (* min_int negation overflows; go through two limbs manually. *)
    let lo = i land mask in
    let rest = if i < 0 then -(i asr limb_bits) else i asr limb_bits in
    let lo = if i < 0 && lo <> 0 then base - lo else lo in
    let rest = if i < 0 && lo <> 0 then rest - 1 else rest in
    (* Above is fiddly; use the straightforward route for the common case. *)
    if i <> min_int then begin
      let v = Stdlib.abs i in
      let rec limbs v acc = if v = 0 then acc else limbs (v lsr limb_bits) ((v land mask) :: acc) in
      let l = List.rev (limbs v []) in
      normalize sign (Array.of_list l)
    end
    else begin
      ignore lo; ignore rest;
      let v = { sign = 1; mag = [| 0; 0; 1 lsl (62 - 2 * limb_bits) |] } in
      { v with sign = -1 }
    end
  end

let one = of_int 1
let two = of_int 2

let sign t = t.sign
let is_zero t = t.sign = 0
let is_even t = t.sign = 0 || t.mag.(0) land 1 = 0

let num_bits t =
  let n = Array.length t.mag in
  if n = 0 then 0
  else begin
    let top = t.mag.(n - 1) in
    let rec bits v acc = if v = 0 then acc else bits (v lsr 1) (acc + 1) in
    ((n - 1) * limb_bits) + bits top 0
  end

let cmp_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else if a.sign >= 0 then cmp_mag a.mag b.mag
  else cmp_mag b.mag a.mag

let equal a b = compare a b = 0
let is_one t = equal t one

(* Magnitude addition: |a| + |b|. *)
let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lmax = Stdlib.max la lb in
  let r = Array.make (lmax + 1) 0 in
  let carry = ref 0 in
  for i = 0 to lmax - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land mask;
    carry := s lsr limb_bits
  done;
  r.(lmax) <- !carry;
  r

(* Magnitude subtraction: |a| - |b|, requires |a| >= |b|. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let s = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if s < 0 then begin r.(i) <- s + base; borrow := 1 end
    else begin r.(i) <- s; borrow := 0 end
  done;
  assert (!borrow = 0);
  r

let neg t = if t.sign = 0 then t else { t with sign = -t.sign }
let abs t = if t.sign < 0 then neg t else t

let rec add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then normalize a.sign (add_mag a.mag b.mag)
  else begin
    match cmp_mag a.mag b.mag with
    | 0 -> zero
    | c when c > 0 -> normalize a.sign (sub_mag a.mag b.mag)
    | _ -> normalize b.sign (sub_mag b.mag a.mag)
  end

and sub a b = add a (neg b)

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else begin
    let la = Array.length a.mag and lb = Array.length b.mag in
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.mag.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let t = r.(i + j) + (ai * b.mag.(j)) + !carry in
          r.(i + j) <- t land mask;
          carry := t lsr limb_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let t = r.(!k) + !carry in
          r.(!k) <- t land mask;
          carry := t lsr limb_bits;
          incr k
        done
      end
    done;
    normalize (a.sign * b.sign) r
  end

let shift_left t k =
  if t.sign = 0 || k = 0 then t
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let n = Array.length t.mag in
    let r = Array.make (n + limbs + 1) 0 in
    for i = 0 to n - 1 do
      let v = t.mag.(i) lsl bits in
      r.(i + limbs) <- r.(i + limbs) lor (v land mask);
      r.(i + limbs + 1) <- v lsr limb_bits
    done;
    normalize t.sign r
  end

let shift_right t k =
  if t.sign = 0 || k = 0 then t
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let n = Array.length t.mag in
    if limbs >= n then zero
    else begin
      let m = n - limbs in
      let r = Array.make m 0 in
      for i = 0 to m - 1 do
        let lo = t.mag.(i + limbs) lsr bits in
        let hi = if i + limbs + 1 < n && bits > 0 then (t.mag.(i + limbs + 1) lsl (limb_bits - bits)) land mask else 0 in
        r.(i) <- lo lor hi
      done;
      normalize t.sign r
    end
  end

let testbit t k =
  let limb = k / limb_bits and bit = k mod limb_bits in
  limb < Array.length t.mag && (t.mag.(limb) lsr bit) land 1 = 1

(* Division of a magnitude by a single limb; returns (quotient, remainder). *)
let divmod_mag_limb u d =
  let n = Array.length u in
  let q = Array.make n 0 in
  let r = ref 0 in
  for i = n - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor u.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (q, !r)

(* Knuth Algorithm D on magnitudes; requires |u| >= |v| and length v >= 2.
   Returns (quotient, remainder) magnitudes. *)
let divmod_mag u v =
  let n = Array.length v in
  let m = Array.length u - n in
  (* Normalize so the top limb of v has its high bit set. *)
  let rec lead_shift x s = if x land (1 lsl (limb_bits - 1)) <> 0 then s else lead_shift (x lsl 1) (s + 1) in
  let s = lead_shift v.(n - 1) 0 in
  let vn = Array.make n 0 in
  for i = n - 1 downto 1 do
    vn.(i) <- ((v.(i) lsl s) lor (if s = 0 then 0 else v.(i - 1) lsr (limb_bits - s))) land mask
  done;
  vn.(0) <- (v.(0) lsl s) land mask;
  let un = Array.make (m + n + 1) 0 in
  un.(m + n) <- if s = 0 then 0 else u.(m + n - 1) lsr (limb_bits - s);
  for i = m + n - 1 downto 1 do
    un.(i) <- ((u.(i) lsl s) lor (if s = 0 then 0 else u.(i - 1) lsr (limb_bits - s))) land mask
  done;
  un.(0) <- (u.(0) lsl s) land mask;
  let q = Array.make (m + 1) 0 in
  for j = m downto 0 do
    let num = (un.(j + n) lsl limb_bits) lor un.(j + n - 1) in
    let qhat = ref (num / vn.(n - 1)) in
    let rhat = ref (num mod vn.(n - 1)) in
    let continue_correct = ref true in
    while !continue_correct do
      if !qhat >= base || !qhat * vn.(n - 2) > (!rhat lsl limb_bits) lor un.(j + n - 2) then begin
        decr qhat;
        rhat := !rhat + vn.(n - 1);
        if !rhat >= base then continue_correct := false
      end
      else continue_correct := false
    done;
    (* Multiply and subtract. *)
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = !qhat * vn.(i) + !carry in
      carry := p lsr limb_bits;
      let t = un.(i + j) - (p land mask) - !borrow in
      if t < 0 then begin un.(i + j) <- t + base; borrow := 1 end
      else begin un.(i + j) <- t; borrow := 0 end
    done;
    let t = un.(j + n) - !carry - !borrow in
    if t < 0 then begin
      (* qhat was one too large: add v back. *)
      un.(j + n) <- t + base;
      decr qhat;
      let c = ref 0 in
      for i = 0 to n - 1 do
        let s2 = un.(i + j) + vn.(i) + !c in
        un.(i + j) <- s2 land mask;
        c := s2 lsr limb_bits
      done;
      un.(j + n) <- (un.(j + n) + !c) land mask
    end
    else un.(j + n) <- t;
    q.(j) <- !qhat
  done;
  (* Denormalize remainder. *)
  let r = Array.make n 0 in
  for i = 0 to n - 1 do
    r.(i) <- ((un.(i) lsr s) lor (if s = 0 || i + 1 > n then 0 else (un.(i + 1) lsl (limb_bits - s)) land mask)) land mask
  done;
  (q, r)

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  let c = cmp_mag a.mag b.mag in
  let qmag, rmag =
    if c < 0 then ([||], a.mag)
    else if Array.length b.mag = 1 then begin
      let q, r = divmod_mag_limb a.mag b.mag.(0) in
      (q, if r = 0 then [||] else [| r |])
    end
    else divmod_mag a.mag b.mag
  in
  let q = normalize (a.sign * b.sign) qmag in
  let r = normalize a.sign rmag in
  (* Adjust to Euclidean convention: remainder in [0, |b|). *)
  if r.sign >= 0 then (q, r)
  else if b.sign > 0 then (sub q one, add r b)
  else (add q one, sub r b)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)
let erem = rem

let rec gcd a b =
  let a = abs a and b = abs b in
  if is_zero b then a else gcd b (rem a b)

let powmod b e m =
  if sign e < 0 then invalid_arg "Bigint.powmod: negative exponent";
  if compare m zero <= 0 then invalid_arg "Bigint.powmod: non-positive modulus";
  let b = erem b m in
  let nb = num_bits e in
  let r = ref (erem one m) in
  for i = nb - 1 downto 0 do
    r := rem (mul !r !r) m;
    if testbit e i then r := rem (mul !r b) m
  done;
  !r

(* Extended Euclid on the magnitudes; returns x with a*x = gcd (mod m). *)
let invmod a m =
  let m = abs m in
  if is_zero m then raise Division_by_zero;
  let a = erem a m in
  let rec go r0 r1 s0 s1 =
    if is_zero r1 then (r0, s0)
    else begin
      let q, r2 = divmod r0 r1 in
      go r1 r2 s1 (sub s0 (mul q s1))
    end
  in
  let g, x = go m a zero one in
  if not (is_one g) then raise Division_by_zero else erem x m

let to_int_opt t =
  if t.sign = 0 then Some 0
  else begin
    let nb = num_bits t in
    if nb <= 62 then begin
      let v = Array.fold_right (fun limb acc -> (acc lsl limb_bits) lor limb) t.mag 0 in
      Some (if t.sign < 0 then -v else v)
    end
    else if nb = 63 && t.sign < 0 && equal t (of_int min_int) then Some min_int
    else None
  end

let to_int t =
  match to_int_opt t with
  | Some v -> v
  | None -> failwith "Bigint.to_int: overflow"

let ten = of_int 10

let to_string t =
  if t.sign = 0 then "0"
  else begin
    (* Divide by 10^k chunks for speed: use single-limb 10^7 divisor. *)
    let chunk = 10_000_000 in
    let buf = Buffer.create 32 in
    let rec go mag acc =
      if Array.length mag = 0 then acc
      else begin
        let q, r = divmod_mag_limb mag chunk in
        let q = (normalize 1 q).mag in
        go q (r :: acc)
      end
    in
    let parts = go t.mag [] in
    (match parts with
     | [] -> Buffer.add_char buf '0'
     | first :: rest ->
       if t.sign < 0 then Buffer.add_char buf '-';
       Buffer.add_string buf (string_of_int first);
       List.iter (fun p -> Buffer.add_string buf (Printf.sprintf "%07d" p)) rest);
    Buffer.contents buf
  end

let of_string s =
  let s = String.trim s in
  if s = "" then invalid_arg "Bigint.of_string: empty";
  let neg_flag = s.[0] = '-' in
  let s = if neg_flag || s.[0] = '+' then String.sub s 1 (String.length s - 1) else s in
  if s = "" then invalid_arg "Bigint.of_string: empty";
  let v =
    if String.length s > 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then begin
      let acc = ref zero in
      String.iter
        (fun c ->
          let d =
            match c with
            | '0' .. '9' -> Char.code c - Char.code '0'
            | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
            | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
            | '_' -> -1
            | _ -> invalid_arg "Bigint.of_string: bad hex digit"
          in
          if d >= 0 then acc := add (shift_left !acc 4) (of_int d))
        (String.sub s 2 (String.length s - 2));
      !acc
    end
    else begin
      let acc = ref zero in
      String.iter
        (fun c ->
          match c with
          | '0' .. '9' -> acc := add (mul !acc ten) (of_int (Char.code c - Char.code '0'))
          | '_' -> ()
          | _ -> invalid_arg "Bigint.of_string: bad digit")
        s;
      !acc
    end
  in
  if neg_flag then neg v else v

let to_hex t =
  if t.sign = 0 then "0"
  else begin
    let buf = Buffer.create 32 in
    if t.sign < 0 then Buffer.add_char buf '-';
    let nb = num_bits t in
    let nibbles = (nb + 3) / 4 in
    let started = ref false in
    for i = nibbles - 1 downto 0 do
      let v =
        (if testbit t ((i * 4) + 3) then 8 else 0)
        lor (if testbit t ((i * 4) + 2) then 4 else 0)
        lor (if testbit t ((i * 4) + 1) then 2 else 0)
        lor (if testbit t (i * 4) then 1 else 0)
      in
      if v <> 0 || !started || i = 0 then begin
        started := true;
        Buffer.add_char buf "0123456789abcdef".[v]
      end
    done;
    Buffer.contents buf
  end

(* Byte import and export pack and unpack limbs directly: one pass over the
   bytes, one allocation for the result. *)
let of_bytes_be s =
  let n = String.length s in
  let rec first i = if i < n && String.unsafe_get s i = '\000' then first (i + 1) else i in
  let i0 = first 0 in
  if i0 = n then zero
  else begin
    let rec bits v acc = if v = 0 then acc else bits (v lsr 1) (acc + 1) in
    let nbits = (8 * (n - 1 - i0)) + bits (Char.code s.[i0]) 0 in
    let mag = Array.make ((nbits + limb_bits - 1) / limb_bits) 0 in
    let acc = ref 0 and acc_bits = ref 0 and k = ref 0 in
    for i = n - 1 downto i0 do
      acc := !acc lor (Char.code (String.unsafe_get s i) lsl !acc_bits);
      acc_bits := !acc_bits + 8;
      if !acc_bits >= limb_bits then begin
        mag.(!k) <- !acc land mask;
        acc := !acc lsr limb_bits;
        acc_bits := !acc_bits - limb_bits;
        incr k
      end
    done;
    if !acc <> 0 then mag.(!k) <- !acc;
    { sign = 1; mag }
  end

(* Write the low [nb] bytes of magnitude [mag] big-endian into [b], ending
   at index [last]. *)
let blit_be mag b ~last nb =
  let acc = ref 0 and acc_bits = ref 0 and k = ref 0 in
  for i = 0 to nb - 1 do
    if !acc_bits < 8 && !k < Array.length mag then begin
      acc := !acc lor (mag.(!k) lsl !acc_bits);
      acc_bits := !acc_bits + limb_bits;
      incr k
    end;
    Bytes.unsafe_set b (last - i) (Char.unsafe_chr (!acc land 0xff));
    acc := !acc lsr 8;
    acc_bits := !acc_bits - 8
  done

let byte_length t = (num_bits t + 7) / 8

let to_bytes_be_pad len t =
  let nb = byte_length t in
  if nb > len then invalid_arg "Bigint.to_bytes_be_pad: too large";
  let b = Bytes.make len '\000' in
  blit_be t.mag b ~last:(len - 1) nb;
  Bytes.unsafe_to_string b

(* Fixed-width limb import and export for the Montgomery field kernel,
   which keeps residues as exactly [n] limbs of [limb_bits] bits. *)
let to_limbs n t =
  let m = Array.length t.mag in
  if t.sign < 0 || m > n then invalid_arg "Bigint.to_limbs: negative or too wide";
  let r = Array.make n 0 in
  Array.blit t.mag 0 r 0 m;
  r

let of_limbs limbs =
  let rec top i = if i > 0 && limbs.(i - 1) = 0 then top (i - 1) else i in
  let k = top (Array.length limbs) in
  if k = 0 then zero else { sign = 1; mag = Array.sub limbs 0 k }

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( mod ) = rem
  let ( = ) = equal
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
end

let pp fmt t = Format.pp_print_string fmt (to_string t)
