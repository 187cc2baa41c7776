module B = Zkqac_bigint.Bigint
module Group = Zkqac_group
module Drbg = Zkqac_hashing.Drbg

let backends () =
  [ ("mock", Group.Backend.instantiate Group.Backend.Mock);
    ("typea-tiny", Group.Backend.instantiate Group.Backend.Typea_tiny) ]

let test_group_laws (name, m) () =
  let module P = (val m : Group.Pairing_intf.PAIRING) in
  let drbg = Drbg.create ~seed:("laws" ^ name) in
  for _ = 1 to 10 do
    let a = P.rand_g drbg and b = P.rand_g drbg and c = P.rand_g drbg in
    Alcotest.(check bool) "assoc" true
      (P.G.equal (P.G.mul (P.G.mul a b) c) (P.G.mul a (P.G.mul b c)));
    Alcotest.(check bool) "comm" true (P.G.equal (P.G.mul a b) (P.G.mul b a));
    Alcotest.(check bool) "id" true (P.G.equal (P.G.mul a P.G.one) a);
    Alcotest.(check bool) "inv" true (P.G.is_one (P.G.mul a (P.G.inv a)));
    Alcotest.(check bool) "order" true (P.G.is_one (P.G.pow a P.order))
  done

let test_pow_laws (name, m) () =
  let module P = (val m : Group.Pairing_intf.PAIRING) in
  let drbg = Drbg.create ~seed:("pow" ^ name) in
  for _ = 1 to 5 do
    let a = P.rand_g drbg in
    let x = P.rand_scalar drbg and y = P.rand_scalar drbg in
    Alcotest.(check bool) "pow add" true
      (P.G.equal (P.G.pow a (B.erem (B.add x y) P.order)) (P.G.mul (P.G.pow a x) (P.G.pow a y)));
    Alcotest.(check bool) "pow mul" true
      (P.G.equal (P.G.pow (P.G.pow a x) y) (P.G.pow a (B.erem (B.mul x y) P.order)))
  done

let test_bilinearity (name, m) () =
  let module P = (val m : Group.Pairing_intf.PAIRING) in
  let drbg = Drbg.create ~seed:("bilin" ^ name) in
  (* Non-degeneracy on the generator. *)
  Alcotest.(check bool) "non-degenerate" false (P.Gt.is_one (P.e P.G.g P.G.g));
  for _ = 1 to 5 do
    let a = P.rand_scalar drbg and b = P.rand_scalar drbg in
    let ga = P.G.pow P.G.g a and gb = P.G.pow P.G.g b in
    let lhs = P.e ga gb in
    let rhs = P.Gt.pow (P.e P.G.g P.G.g) (B.erem (B.mul a b) P.order) in
    Alcotest.(check bool) "e(g^a,g^b) = e(g,g)^(ab)" true (P.Gt.equal lhs rhs);
    (* Bilinearity in each slot. *)
    let u = P.rand_g drbg and v = P.rand_g drbg and w = P.rand_g drbg in
    Alcotest.(check bool) "left linear" true
      (P.Gt.equal (P.e (P.G.mul u v) w) (P.Gt.mul (P.e u w) (P.e v w)));
    Alcotest.(check bool) "right linear" true
      (P.Gt.equal (P.e u (P.G.mul v w)) (P.Gt.mul (P.e u v) (P.e u w)));
    (* Symmetry (type-1 pairing). *)
    Alcotest.(check bool) "symmetric" true (P.Gt.equal (P.e u v) (P.e v u))
  done

let test_gt_order (name, m) () =
  let module P = (val m : Group.Pairing_intf.PAIRING) in
  let drbg = Drbg.create ~seed:("gt" ^ name) in
  let u = P.rand_g drbg and v = P.rand_g drbg in
  let z = P.e u v in
  Alcotest.(check bool) "gt order" true (P.Gt.is_one (P.Gt.pow z P.order));
  Alcotest.(check bool) "gt inv" true (P.Gt.is_one (P.Gt.mul z (P.Gt.inv z)))

let test_serialization (name, m) () =
  let module P = (val m : Group.Pairing_intf.PAIRING) in
  let drbg = Drbg.create ~seed:("ser" ^ name) in
  for _ = 1 to 10 do
    let a = P.rand_g drbg in
    let s = P.G.to_bytes a in
    (match P.G.of_bytes s with
     | Some a' -> Alcotest.(check bool) "roundtrip" true (P.G.equal a a')
     | None -> Alcotest.fail "of_bytes failed");
    Alcotest.(check int) "fixed width" (String.length (P.G.to_bytes P.G.g)) (String.length s)
  done;
  Alcotest.(check bool) "garbage rejected" true (P.G.of_bytes "garbage" = None)

let test_hash_to_group (_name, m) () =
  let module P = (val m : Group.Pairing_intf.PAIRING) in
  let a = P.G.hash_to "hello" in
  let a' = P.G.hash_to "hello" in
  let b = P.G.hash_to "world" in
  Alcotest.(check bool) "deterministic" true (P.G.equal a a');
  Alcotest.(check bool) "distinct" false (P.G.equal a b);
  Alcotest.(check bool) "in subgroup" true (P.G.is_one (P.G.pow a P.order));
  Alcotest.(check bool) "not identity" false (P.G.is_one a)

(* e_prod must agree with the naive product of individual pairings —
   including pairs with an identity argument (they contribute nothing) and
   the empty product. On type-A, [e a b] is [e_prod [(a, b)]]; the
   independent check is the affine reference below. *)
let test_multi_pairing (name, m) () =
  let module P = (val m : Group.Pairing_intf.PAIRING) in
  let drbg = Drbg.create ~seed:("eprod" ^ name) in
  Alcotest.(check bool) "empty product" true (P.Gt.is_one (P.e_prod []));
  let naive ps =
    List.fold_left (fun acc (p, q) -> P.Gt.mul acc (P.e p q)) P.Gt.one ps
  in
  for n = 1 to 6 do
    let ps = List.init n (fun _ -> (P.rand_g drbg, P.rand_g drbg)) in
    Alcotest.(check bool)
      (Printf.sprintf "%d pairs" n)
      true
      (P.Gt.equal (P.e_prod ps) (naive ps))
  done;
  (* Identity in either slot: the pair must drop out, even mixed in with
     non-trivial pairs. *)
  let a = P.rand_g drbg and b = P.rand_g drbg in
  let inf = P.G.one in
  List.iter
    (fun ps ->
      Alcotest.(check bool) "identity pairs drop out" true
        (P.Gt.equal (P.e_prod ps) (naive ps)))
    [ [ (inf, a) ]; [ (a, inf) ];
      [ (a, b); (inf, b); (b, a) ];
      [ (inf, inf); (a, b) ] ];
  (* A pair and its inverse cancel to one. *)
  Alcotest.(check bool) "cancellation" true
    (P.Gt.is_one (P.e_prod [ (a, b); (P.G.inv a, b) ]))

(* [G.pow_prod] must equal the fold of [G.pow] and [G.mul] for every
   scalar the reduction mod order can trip on, the empty product, an
   identity base and a base repeated within one product. *)
let test_pow_prod (name, m) () =
  let module P = (val m : Group.Pairing_intf.PAIRING) in
  let drbg = Drbg.create ~seed:("powprod" ^ name) in
  let fold terms =
    List.fold_left (fun acc (b, k) -> P.G.mul acc (P.G.pow b k)) P.G.one terms
  in
  let check what terms =
    let tabled = List.map (fun (b, k) -> (P.G.precompute b, k)) terms in
    Alcotest.(check bool) what true (P.G.equal (P.G.pow_prod tabled) (fold terms))
  in
  check "empty product" [];
  let a = P.rand_g drbg and b = P.rand_g drbg in
  let scalars =
    [ B.zero; B.one; B.sub P.order B.one; P.order; B.add P.order B.one;
      B.neg (P.rand_scalar drbg) ]
    @ List.init 4 (fun _ -> P.rand_scalar drbg)
  in
  List.iter
    (fun k ->
      let what = "scalar " ^ B.to_string k in
      check what [ (a, k) ];
      check (what ^ ", two bases") [ (a, k); (b, P.rand_scalar drbg) ];
      check (what ^ ", identity base") [ (P.G.one, k); (b, k) ])
    scalars;
  check "repeated base" [ (a, P.rand_scalar drbg); (b, B.one); (a, P.rand_scalar drbg) ];
  check "base and its inverse" [ (a, B.one); (P.G.inv a, B.one) ]

(* Regression: Gt.of_bytes must reject encodings outside the order-r
   subgroup (a raw field element that parses but has x^r <> 1 would let a
   malicious SP smuggle structure into a c_tilde). *)
let test_gt_subgroup_membership (name, m) () =
  let module P = (val m : Group.Pairing_intf.PAIRING) in
  let drbg = Drbg.create ~seed:("gtsub" ^ name) in
  let z = P.e (P.rand_g drbg) (P.rand_g drbg) in
  let len = String.length (P.Gt.to_bytes z) in
  (match P.Gt.of_bytes (P.Gt.to_bytes z) with
   | Some z' -> Alcotest.(check bool) "honest roundtrip" true (P.Gt.equal z z')
   | None -> Alcotest.fail "honest Gt encoding rejected");
  (* A tiny non-identity element: in range for the raw field parser, but
     of multiplicative order dividing p^2 - 1, not r. *)
  let tiny =
    let b = Bytes.make len '\x00' in
    Bytes.set b (len - 1) '\x02';
    Bytes.to_string b
  in
  Alcotest.(check bool) "non-subgroup element rejected" true
    (P.Gt.of_bytes tiny = None);
  Alcotest.(check bool) "out-of-range bytes rejected" true
    (P.Gt.of_bytes (String.make len '\xff') = None)

let test_curve_basics () =
  let params = Lazy.force Zkqac_group.Typea_params.tiny in
  let fp = params.fp in
  Alcotest.(check bool) "generator on curve" true
    (Curve_check.on_curve params.p (Curve_check.of_point fp params.g));
  (* p = 3 (mod 4) *)
  Alcotest.(check bool) "p mod 4" true (B.testbit params.p 0 && B.testbit params.p 1);
  Alcotest.(check bool) "r prime" true (Zkqac_numth.Primes.is_probable_prime params.r);
  Alcotest.(check bool) "p prime" true (Zkqac_numth.Primes.is_probable_prime params.p);
  Alcotest.(check bool) "p+1 = c*r" true
    (B.equal (B.add params.p B.one) (B.mul params.cofactor params.r))

(* --- Jacobian arithmetic against the affine reference (tiny parameters) --- *)

module Curve = Group.Curve
module Fp2 = Group.Fp2
module M = Group.Fp.Mont
module Ref = Curve_check

let tiny () = Lazy.force Group.Typea_params.tiny

let hex s =
  String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))

(* Reference values against the library's, compared as canonical
   residues. *)
let point_eq name want got =
  Alcotest.(check string) name (Ref.to_string want) (Ref.to_string (Ref.of_point (tiny ()).fp got))

let gt_eq name want got =
  Alcotest.(check string) name (Ref.fp2_to_string want) (Ref.fp2_to_string (Ref.of_gt (tiny ()).fp got))

let canonical pt = Ref.of_point (tiny ()).fp pt

(* The reference product of pairings of library points. *)
let reference_e_prod pairs =
  Ref.e_prod (tiny ()) (List.map (fun (a, b) -> (canonical a, canonical b)) pairs)

(* A point of the full curve E(F_p), of order dividing c*r. *)
let full_point i = Curve.hash_to_point (tiny ()).fp ~domain:"curve-ref" (string_of_int i)

(* A point of order exactly n, for a small n dividing the cofactor. *)
let point_of_order n =
  let { Group.Typea_params.p; fp; _ } = tiny () in
  let rec go i =
    let t = Curve.mul fp (B.div (B.add p B.one) (B.of_int n)) (full_point i) in
    let exact = ref true in
    for d = 1 to n - 1 do
      if n mod d = 0 && Curve.is_infinity (Curve.mul fp (B.of_int d) t) then exact := false
    done;
    if !exact then t else go (i + 1)
  in
  go 0

let typea_e_prod pairs = Group.Typea.e_prod (tiny ()) pairs

(* Scalars of 0 to 112 bits, so both below and above r (50 bits). *)
let scalar_gen = QCheck2.Gen.(map B.of_bytes_be (string_size ~gen:char (int_range 0 14)))

let qprop ~count name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let qcheck_reference =
  [ qprop ~count:60 "Curve.mul = affine reference"
      QCheck2.Gen.(pair (int_range 0 1000) scalar_gen)
      (fun (i, k) ->
        let { Group.Typea_params.fp; g; p; _ } = tiny () in
        List.for_all
          (fun pt -> Ref.equal (canonical (Curve.mul fp k pt)) (Ref.scalar_mul p k (canonical pt)))
          [ full_point i; g; Curve.mul fp k g ]);
    qprop ~count:20 "e and e_prod = affine reference"
      QCheck2.Gen.(list_size (int_range 1 3) (pair scalar_gen scalar_gen))
      (fun ks ->
        let params = tiny () in
        let module P = (val Group.Typea.create params) in
        let raw x = Option.get (Curve.of_bytes params.fp (P.G.to_bytes x)) in
        let gt x = Ref.of_gt params.fp (Option.get (Fp2.of_bytes params.fp (P.Gt.to_bytes x))) in
        let pairs = List.map (fun (a, b) -> (P.G.pow P.G.g a, P.G.pow P.G.g b)) ks in
        let reference ps = reference_e_prod (List.map (fun (a, b) -> (raw a, raw b)) ps) in
        let a, b = List.hd pairs in
        Ref.fp2_equal (reference [ (a, b) ]) (gt (P.e a b))
        && Ref.fp2_equal (reference pairs) (gt (P.e_prod pairs))) ]

let test_edge_scalars () =
  let { Group.Typea_params.fp; g; r; p; _ } = tiny () in
  let module P = (val Group.Typea.create (tiny ())) in
  let h = full_point 7 in
  List.iter
    (fun (name, k) ->
      point_eq ("mul g " ^ name) (Ref.scalar_mul p k (canonical g)) (Curve.mul fp k g);
      point_eq ("mul h " ^ name) (Ref.scalar_mul p k (canonical h)) (Curve.mul fp k h);
      point_eq ("G.pow " ^ name)
        (Ref.scalar_mul p (B.erem k r) (canonical g))
        (Option.get (Curve.of_bytes fp (P.G.to_bytes (P.G.pow P.G.g k)))))
    [ ("0", B.zero); ("1", B.one); ("2", B.two);
      ("r-1", B.sub r B.one); ("r", r); ("r+1", B.add r B.one) ];
  Alcotest.(check bool) "r*g = O" true (Curve.is_infinity (Curve.mul fp r g));
  point_eq "(r+1)*g = g" (canonical g) (Curve.mul fp (B.add r B.one) g)

let test_two_torsion () =
  let params = tiny () in
  let { Group.Typea_params.fp; g; p; _ } = params in
  let t = Curve.Affine (M.zero fp, M.zero fp) in
  Alcotest.(check bool) "(0,0) on curve" true (Curve.is_on_curve fp t);
  Alcotest.(check bool) "2(0,0) = O" true (Curve.is_infinity (Curve.double fp t));
  Alcotest.(check bool) "(0,0)+(0,0) = O" true (Curve.is_infinity (Curve.add fp t t));
  for k = 0 to 5 do
    let k' = B.of_int k in
    point_eq (Printf.sprintf "%d*(0,0)" k) (Ref.scalar_mul p k' (Ref.Pt (B.zero, B.zero))) (Curve.mul fp k' t)
  done;
  List.iter
    (fun (name, pairs) ->
      let got = typea_e_prod pairs in
      gt_eq name (reference_e_prod pairs) got;
      Alcotest.(check bool) (name ^ " = 1") true (Fp2.is_one fp got))
    [ ("e(T, g)", [ (t, g) ]); ("e(g, T)", [ (g, t) ]); ("e(T, T)", [ (t, t) ]) ]

let test_eprod_cancel_repeat () =
  let params = tiny () in
  let { Group.Typea_params.fp; g; _ } = params in
  let p = Curve.mul fp (B.of_int 0x5eed) g and q = Curve.mul fp (B.of_int 0xbeef) g in
  Alcotest.(check bool) "e(P,Q) e(-P,Q) = 1" true
    (Fp2.is_one fp (typea_e_prod [ (p, q); (Curve.neg fp p, q) ]));
  Alcotest.(check bool) "e(P,Q) e(P,-Q) = 1" true
    (Fp2.is_one fp (typea_e_prod [ (p, q); (p, Curve.neg fp q) ]));
  gt_eq "e(P,Q)^2"
    (Ref.of_gt fp (Fp2.sqr fp (typea_e_prod [ (p, q) ])))
    (typea_e_prod [ (p, q); (p, q) ]);
  let three = [ (p, q); (p, q); (p, q) ] in
  gt_eq "e(P,Q)^3" (reference_e_prod three) (typea_e_prod three)

(* Encodings computed by the affine implementation this one replaced; they
   must stay byte-identical. *)
let test_golden () =
  let module P = (val Group.Typea.create (tiny ())) in
  let g_pow k = P.G.pow P.G.g (B.of_string k) in
  let check name want x = Alcotest.(check string) name want (hex (P.G.to_bytes x)) in
  check "g" "0348afd3497e06ef43ff287418" P.G.g;
  check "g^2" "022905c1d6c0001646451a103f" (g_pow "2");
  check "g^3" "02386b348e1f32c9cb9d91b81c" (g_pow "3");
  check "g^k" "0270a94d49855e6a21e3466815" (g_pow "47525402436927");
  check "g^(1e9+7)" "024aed7654c7482dbb1cc3cf70" (g_pow "1000000007");
  check "g^(r-2)" "032905c1d6c0001646451a103f" (P.G.pow P.G.g (B.sub P.order B.two));
  Alcotest.(check string) "e(g,g)" "276040caa053ea25e95ebf7a27aba7c8010a0accc3be9cc7"
    (hex (P.Gt.to_bytes (P.e P.G.g P.G.g)));
  Alcotest.(check string) "e(g^k, g^(1e9+7))" "73ffc01b62c7b65596f5e9673f0b0eea19d7e2acb0905294"
    (hex (P.Gt.to_bytes (P.e (g_pow "47525402436927") (g_pow "1000000007"))))

(* The Miller loop's running point is V = [k]P for the prefixes k of r. For
   a point P of small order n it meets V = P (k = 1 mod n) or V = -P at an
   addition step, or reaches infinity, long before the loop ends. *)
let test_miller_degenerate_steps () =
  let params = tiny () in
  let { Group.Typea_params.fp; g; r; _ } = params in
  (* Replays the loop on k mod n: does an addition step meet V = P, V = -P? *)
  let cases n =
    let k = ref 1 and same = ref false and opposite = ref false in
    for i = B.num_bits r - 2 downto 0 do
      k := 2 * !k mod n;
      if B.testbit r i && !k <> 0 then begin
        if !k = 1 then same := true;
        if !k = n - 1 then opposite := true;
        k := (!k + 1) mod n
      end
    done;
    (!same, !opposite)
  in
  Alcotest.(check (pair bool bool)) "order 3 meets V = P and V = -P" (true, true) (cases 3);
  let t3 = point_of_order 3 and t4 = point_of_order 4 and t97 = point_of_order 97 in
  List.iter
    (fun (n, t) ->
      Alcotest.(check bool) (Printf.sprintf "order %d" n) true
        (Curve.is_infinity (Curve.mul fp (B.of_int n) t)))
    [ (3, t3); (4, t4); (97, t97) ];
  let h = full_point 11 in
  List.iter
    (fun (name, pairs) -> gt_eq name (reference_e_prod pairs) (typea_e_prod pairs))
    [ ("e(T3, g)", [ (t3, g) ]); ("e(g, T3)", [ (g, t3) ]); ("e(T4, g)", [ (t4, g) ]);
      ("e(T97, g)", [ (t97, g) ]); ("e(h, g)", [ (h, g) ]); ("e(g, h)", [ (g, h) ]);
      ("e(T3, h)", [ (t3, h) ]);
      ("mixed product", [ (t3, g); (g, h); (t97, g); (t4, g); (g, g) ]) ]

(* --- The Montgomery kernel against Bigint, on every preset modulus and on
   one that fills its top limb, where a missed final subtraction shows. --- *)

module Fp = Group.Fp

(* The largest prime p = 3 (mod 4) below 2^104: four full 26-bit limbs. *)
let full_limb_prime =
  lazy
    (let rec go p = if Zkqac_numth.Primes.is_probable_prime p then p else go (B.sub p (B.of_int 4)) in
     go (B.sub (B.shift_left B.one 104) B.one))

let kernel_moduli () =
  let preset name l = (name, (Lazy.force l).Group.Typea_params.p) in
  [ preset "tiny" Group.Typea_params.tiny; preset "small" Group.Typea_params.small;
    preset "paper" Group.Typea_params.default; ("full top limb", Lazy.force full_limb_prime);
    ("1 mod 4", B.of_int 1000033) ]

let test_kernel (name, p) () =
  let c = Fp.create p in
  let rng = Zkqac_rng.Prng.create 26 in
  let edges =
    List.filter
      (fun v -> B.compare v p < 0)
      [ B.zero; B.one; B.two; B.of_int 12345; B.of_int ((1 lsl 26) - 1); B.sub p B.two; B.sub p B.one ]
  in
  let values = edges @ List.init 40 (fun _ -> Zkqac_rng.Prng.bigint rng p) in
  let check what want got = Alcotest.(check string) (name ^ " " ^ what) (B.to_hex want) (B.to_hex got) in
  (* Compares Montgomery representations too, so an unreduced result fails
     even where converting it back would reduce it. *)
  let check_m what want got =
    check what want (M.to_fp c got);
    Alcotest.(check bool) (name ^ " " ^ what ^ " (representation)") true (M.equal (M.of_fp c want) got)
  in
  List.iter
    (fun a ->
      let ma = M.of_fp c a in
      check "round trip" a (M.to_fp c ma);
      Alcotest.(check bool) (name ^ " is_zero") (B.is_zero a) (M.is_zero ma);
      check_m "sqr" (B.erem (B.mul a a) p) (M.sqr c ma);
      check_m "neg" (B.erem (B.neg a) p) (M.neg c ma);
      (if not (B.is_zero a) then check_m "inv" (B.invmod a p) (M.inv c ma));
      let e = Zkqac_rng.Prng.bigint rng p in
      check_m "pow" (B.powmod a e p) (M.pow c ma e);
      (match (Zkqac_numth.Primes.sqrt_mod a p, M.sqrt c ma) with
       | None, None -> ()
       | Some r, Some got -> check_m "sqrt" r got
       | _ -> Alcotest.fail (name ^ " sqrt: existence differs"));
      List.iter
        (fun b ->
          let mb = M.of_fp c b in
          check_m "mul" (B.erem (B.mul a b) p) (M.mul c ma mb);
          check "Fp.mul" (B.erem (B.mul a b) p) (Fp.mul c a b);
          check_m "add" (B.erem (B.add a b) p) (M.add c ma mb);
          check_m "sub" (B.erem (B.sub a b) p) (M.sub c ma mb);
          Alcotest.(check bool) (name ^ " equal") (B.equal a b) (M.equal ma mb))
        edges)
    values;
  Alcotest.check_raises (name ^ " inv 0") Division_by_zero (fun () -> ignore (M.inv c (M.zero c)));
  Alcotest.check_raises "even modulus" (Invalid_argument "Fp.create: modulus not an odd number > 2")
    (fun () -> ignore (Fp.create (B.add p B.one)))

let reference_suite =
  [ Alcotest.test_case "typea edge scalars vs reference" `Quick test_edge_scalars;
    Alcotest.test_case "typea 2-torsion point" `Quick test_two_torsion;
    Alcotest.test_case "typea e_prod cancel and repeat" `Quick test_eprod_cancel_repeat;
    Alcotest.test_case "typea golden encodings" `Quick test_golden;
    Alcotest.test_case "typea miller degenerate steps" `Quick test_miller_degenerate_steps ]
  @ List.map
      (fun (name, p) -> Alcotest.test_case ("kernel " ^ name) `Quick (test_kernel (name, p)))
      (kernel_moduli ())
  @ qcheck_reference

let suite =
  let per_backend =
    List.concat_map
      (fun (name, m) ->
        [ Alcotest.test_case (name ^ " group laws") `Quick (test_group_laws (name, m));
          Alcotest.test_case (name ^ " pow laws") `Quick (test_pow_laws (name, m));
          Alcotest.test_case (name ^ " bilinearity") `Quick (test_bilinearity (name, m));
          Alcotest.test_case (name ^ " gt order") `Quick (test_gt_order (name, m));
          Alcotest.test_case (name ^ " serialization") `Quick (test_serialization (name, m));
          Alcotest.test_case (name ^ " multi-pairing e_prod") `Quick
            (test_multi_pairing (name, m));
          Alcotest.test_case (name ^ " gt subgroup membership") `Quick
            (test_gt_subgroup_membership (name, m));
          Alcotest.test_case (name ^ " hash to group") `Quick (test_hash_to_group (name, m)) ])
      (backends ())
    @ List.map
        (fun (name, m) ->
          Alcotest.test_case (name ^ " pow_prod = fold of pow") `Quick (test_pow_prod (name, m)))
        (backends () @ [ ("typea-small", Group.Backend.instantiate Group.Backend.Typea_small) ])
  in
  [ ("group", (Alcotest.test_case "typea params" `Quick test_curve_basics :: per_backend) @ reference_suite) ]
