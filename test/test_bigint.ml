module B = Zkqac_bigint.Bigint

let b = Alcotest.testable B.pp B.equal

let check_b = Alcotest.check b
let bi = B.of_int
let bs = B.of_string

(* [div] and [rem] are the two halves of one Euclidean division. *)
let divmod a b = (B.div a b, B.rem a b)

let test_of_to_int () =
  List.iter
    (fun i -> Alcotest.(check int) (string_of_int i) i (B.to_int (bi i)))
    [ 0; 1; -1; 42; -42; 1 lsl 30; -(1 lsl 30); max_int; min_int; 123456789012345 ]

let test_string_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (B.to_string (bs s)))
    [ "0"; "1"; "-1"; "123456789"; "340282366920938463463374607431768211455";
      "-999999999999999999999999999999999999";
      "115792089237316195423570985008687907853269984665640564039457584007913129639935" ]

let test_hex () =
  Alcotest.(check string) "hex" "ff" (B.to_hex (bi 255));
  Alcotest.(check string) "hex2" "deadbeef" (B.to_hex (bs "0xdeadbeef"));
  check_b "hex parse" (bi 255) (bs "0xff");
  check_b "hex big" (bs "4276215469") (bs "0xfee1dead")

let test_add_sub () =
  let a = bs "99999999999999999999999999999999" in
  check_b "a+1-1" a B.(sub (add a one) one);
  check_b "a-a" B.zero (B.sub a a);
  check_b "neg" (B.neg a) (B.sub B.zero a);
  check_b "carry" (bs "100000000000000000000000000000000") (B.add a B.one)

let test_mul () =
  let a = bs "123456789123456789123456789" in
  let b2 = bs "987654321987654321" in
  check_b "mul" (bs "121932631356500531469135800347203169112635269")
    (B.mul a b2);
  check_b "mul sign" (B.neg (B.mul a b2)) (B.mul (B.neg a) b2);
  check_b "mul zero" B.zero (B.mul a B.zero)

let test_divmod () =
  let a = bs "121932631356500531469135800347203169112635269" in
  let b2 = bs "987654321987654321" in
  let q, r = divmod a b2 in
  check_b "q" (bs "123456789123456789123456789") q;
  check_b "r" B.zero r;
  let q, r = divmod (B.add a (bi 17)) b2 in
  check_b "q2" (bs "123456789123456789123456789") q;
  check_b "r2" (bi 17) r;
  (* Euclidean convention: remainder always non-negative. *)
  let q, r = divmod (bi (-7)) (bi 3) in
  check_b "eq" (bi (-3)) q;
  check_b "er" (bi 2) r;
  let q, r = divmod (bi (-7)) (bi (-3)) in
  check_b "eq2" (bi 3) q;
  check_b "er2" (bi 2) r

let test_shift () =
  check_b "shl" (bs "0x100000000000000000000") (B.shift_left B.one 80);
  check_b "shr" B.one (B.shift_right (bs "0x100000000000000000000") 80);
  check_b "shr2" (bi 5) (B.shift_right (bi 23) 2);
  Alcotest.(check bool) "testbit" true (B.testbit (bi 8) 3);
  Alcotest.(check bool) "testbit0" false (B.testbit (bi 8) 2);
  Alcotest.(check int) "numbits" 4 (B.num_bits (bi 8));
  Alcotest.(check int) "numbits0" 0 (B.num_bits B.zero)

let test_powmod () =
  (* Fermat: 2^(p-1) = 1 mod p for prime p. *)
  let p = bs "115792089237316195423570985008687907853269984665640564039457584007908834671663" in
  check_b "fermat" B.one (B.powmod (bi 2) (B.sub p B.one) p);
  check_b "pow small" (bi 23) (B.powmod (bi 7) (bi 4) (bi 41));
  check_b "pow zero exp" B.one (B.powmod (bi 7) B.zero (bi 41))

let test_invmod () =
  let p = bs "115792089237316195423570985008687907853269984665640564039457584007908834671663" in
  let a = bs "987654321987654321987654321" in
  let inv = B.invmod a p in
  check_b "inv" B.one (B.erem (B.mul a inv) p);
  Alcotest.check_raises "non invertible" Division_by_zero (fun () ->
      ignore (B.invmod (bi 6) (bi 9)))

(* invmod reads the gcd off its own extended Euclid: a shared factor or a
   zero input still raises, and modulo 1 every input inverts to 0. *)
let test_invmod_gcd () =
  List.iter
    (fun (a, m) ->
      Alcotest.check_raises (Printf.sprintf "invmod %d %d" a m) Division_by_zero (fun () ->
          ignore (B.invmod (bi a) (bi m))))
    [ (0, 7); (14, 21); (-6, 9); (9, 9); (12, -8); (3, 0) ];
  check_b "invmod 0 1" B.zero (B.invmod B.zero B.one);
  check_b "invmod 5 1" B.zero (B.invmod (bi 5) B.one);
  check_b "invmod -3 7" (bi 2) (B.invmod (bi (-3)) (bi 7));
  check_b "invmod 3 -7" (bi 5) (B.invmod (bi 3) (bi (-7)))

let test_gcd () =
  check_b "gcd" (bi 6) (B.gcd (bi 54) (bi 24));
  check_b "gcd0" (bi 7) (B.gcd B.zero (bi 7));
  check_b "gcd neg" (bi 6) (B.gcd (bi (-54)) (bi 24))

let test_bytes () =
  let a = bs "0x0102030405" in
  check_b "rt" a (B.of_bytes_be "\x01\x02\x03\x04\x05");
  Alcotest.(check string) "pad" "\x00\x00\x00\x01\x02\x03\x04\x05"
    (B.to_bytes_be_pad 8 a);
  check_b "empty" B.zero (B.of_bytes_be "")

(* Reference import, one byte at a time through [add] and [shift_left]:
   slow, but plainly right. *)
let reference_of_bytes_be s =
  let acc = ref B.zero in
  String.iter (fun c -> acc := B.add (B.shift_left !acc 8) (bi (Char.code c))) s;
  !acc

let test_bytes_oracle () =
  let rng = Random.State.make [| 33 |] in
  for n = 0 to 130 do
    let random = String.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
    let inputs =
      [ ("random", random);
        ("all 0xff", String.make n '\xff');
        ("zeros", String.make n '\000');
        ("leading zeros", String.make (n / 2) '\000' ^ String.sub random 0 (n - (n / 2)));
        ("one", (if n = 0 then "" else String.make (n - 1) '\000' ^ "\001")) ]
    in
    List.iter
      (fun (what, s) ->
        let name = Printf.sprintf "%s, %d bytes" what n in
        let v = B.of_bytes_be s in
        check_b name (reference_of_bytes_be s) v;
        (* The magnitude needs exactly the bytes after the leading zeros. *)
        let rec lead i = if i < n && s.[i] = '\000' then lead (i + 1) else i in
        let i0 = lead 0 in
        Alcotest.(check string) (name ^ " to_bytes_be_pad") s (B.to_bytes_be_pad n v);
        check_b (name ^ " negative magnitude") v
          (B.of_bytes_be (B.to_bytes_be_pad n (B.neg v)));
        if i0 < n then
          Alcotest.check_raises (name ^ " too wide")
            (Invalid_argument "Bigint.to_bytes_be_pad: too large") (fun () ->
              ignore (B.to_bytes_be_pad (n - i0 - 1) v)))
      inputs
  done

(* Property tests against OCaml's native int arithmetic on small values. *)
let small_pair =
  QCheck2.Gen.(pair (int_range (-1000000) 1000000) (int_range (-1000000) 1000000))

let qprop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:500 ~name gen f)

let props =
  [
    qprop "add matches int" small_pair (fun (x, y) ->
        B.to_int (B.add (bi x) (bi y)) = x + y);
    qprop "mul matches int" small_pair (fun (x, y) ->
        B.to_int (B.mul (bi x) (bi y)) = x * y);
    qprop "divmod invariant" small_pair (fun (x, y) ->
        if y = 0 then true
        else begin
          let q, r = divmod (bi x) (bi y) in
          B.equal (bi x) (B.add (B.mul q (bi y)) r)
          && B.sign r >= 0
          && B.compare r (B.abs (bi y)) < 0
        end);
    qprop "string roundtrip" QCheck2.Gen.(int_range (-4611686018427387904) 4611686018427387903)
      (fun x -> B.to_int (B.of_string (B.to_string (bi x))) = x);
    qprop "mul big roundtrip via div" small_pair (fun (x, y) ->
        if x = 0 then true
        else begin
          let big = B.mul (bs "340282366920938463463374607431768211455") (bi x) in
          let prod = B.add big (bi (Stdlib.abs y)) in
          let q, _ = divmod prod (bi x) in
          ignore q;
          B.equal prod (B.add (B.mul (B.div prod (bi x)) (bi x)) (B.rem prod (bi x)))
        end);
    qprop "powmod matches naive" QCheck2.Gen.(triple (int_range 0 50) (int_range 0 10) (int_range 2 1000))
      (fun (base, e, m) ->
        let naive = ref 1 in
        for _ = 1 to e do naive := !naive * base mod m done;
        B.to_int (B.powmod (bi base) (bi e) (bi m)) = !naive);
    qprop "shift left = mul pow2" QCheck2.Gen.(pair (int_range 0 100000) (int_range 0 40))
      (fun (x, k) ->
        B.equal (B.shift_left (bi x) k) (B.mul (bi x) (B.powmod (bi 2) (bi k) (bs "0x10000000000000000000000000000000000"))));
  ]

let suite =
  [
    ( "bigint",
      [
        Alcotest.test_case "of/to int" `Quick test_of_to_int;
        Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
        Alcotest.test_case "hex" `Quick test_hex;
        Alcotest.test_case "add/sub" `Quick test_add_sub;
        Alcotest.test_case "mul" `Quick test_mul;
        Alcotest.test_case "divmod" `Quick test_divmod;
        Alcotest.test_case "shift" `Quick test_shift;
        Alcotest.test_case "powmod" `Quick test_powmod;
        Alcotest.test_case "invmod" `Quick test_invmod;
        Alcotest.test_case "invmod gcd from extended Euclid" `Quick test_invmod_gcd;
        Alcotest.test_case "gcd" `Quick test_gcd;
        Alcotest.test_case "bytes" `Quick test_bytes;
        Alcotest.test_case "bytes against byte-at-a-time import" `Quick test_bytes_oracle;
      ]
      @ props );
  ]

(* Stress properties with genuinely large operands (multi-limb paths,
   Knuth-D corner cases with normalization shifts and add-back). *)
let big_gen =
  QCheck2.Gen.(
    let* hex_len = int_range 1 60 in
    let* digits = list_repeat hex_len (int_range 0 15) in
    let* neg = bool in
    let s = "0x" ^ String.concat "" (List.map (Printf.sprintf "%x") digits) in
    return (if neg then B.neg (bs s) else bs s))

let big_props =
  [
    qprop "big add/sub inverse" QCheck2.Gen.(pair big_gen big_gen) (fun (x, y) ->
        B.equal x (B.sub (B.add x y) y));
    qprop "big mul commutes" QCheck2.Gen.(pair big_gen big_gen) (fun (x, y) ->
        B.equal (B.mul x y) (B.mul y x));
    qprop "big divmod invariant" QCheck2.Gen.(pair big_gen big_gen) (fun (x, y) ->
        if B.is_zero y then true
        else begin
          let q, r = divmod x y in
          B.equal x (B.add (B.mul q y) r)
          && B.sign r >= 0
          && B.compare r (B.abs y) < 0
        end);
    qprop "big string roundtrip" big_gen (fun x ->
        B.equal x (B.of_string (B.to_string x)));
    qprop "big hex roundtrip" big_gen (fun x ->
        let h = B.to_hex (B.abs x) in
        B.equal (B.abs x) (B.of_string ("0x" ^ h)));
    qprop "big bytes roundtrip" big_gen (fun x ->
        B.equal (B.abs x) (B.of_bytes_be (B.to_bytes_be_pad 32 x)));
    qprop "big shift inverse" QCheck2.Gen.(pair big_gen (int_range 0 200))
      (fun (x, k) ->
        let x = B.abs x in
        B.equal x (B.shift_right (B.shift_left x k) k));
    qprop "big powmod multiplicative"
      QCheck2.Gen.(triple big_gen big_gen big_gen)
      (fun (a, b, m) ->
        let m = B.add (B.abs m) B.two in
        let e1 = B.of_int 3 and e2 = B.of_int 5 in
        let x = B.erem (B.abs a) m and y = B.erem (B.abs b) m in
        ignore y;
        (* a^3 * a^5 = a^8 mod m *)
        B.equal
          (B.erem (B.mul (B.powmod x e1 m) (B.powmod x e2 m)) m)
          (B.powmod x (B.add e1 e2) m));
  ]

let suite =
  suite
  @ [ ("bigint-stress", big_props) ]
