(* Edge cases and failure-path coverage: invalid inputs must be rejected
   loudly, degenerate shapes must still verify, and boundary geometry must
   behave. *)

module B = Zkqac_bigint.Bigint
module Attr = Zkqac_policy.Attr
module Expr = Zkqac_policy.Expr
module Universe = Zkqac_policy.Universe
module Drbg = Zkqac_hashing.Drbg
module Box = Zkqac_core.Box
module Keyspace = Zkqac_core.Keyspace
module Record = Zkqac_core.Record
module Curve = Zkqac_group.Curve
module Fp = Zkqac_group.Fp
module M = Zkqac_group.Fp.Mont

let attrs = Attr.set_of_list

module Mock_backend = (val Zkqac_group.Backend.instantiate Zkqac_group.Backend.Mock)
module Abs = Zkqac_abs.Abs.Make (Mock_backend)
module Ap2g = Zkqac_core.Ap2g.Make (Mock_backend)
module Join = Zkqac_core.Join.Make (Mock_backend)
module Vo = Zkqac_core.Vo.Make (Mock_backend)
module Cont = Zkqac_core.Continuous.Make (Mock_backend)

let drbg = Drbg.create ~seed:"edges"
let msk, mvk = Abs.setup drbg
let universe = Universe.create [ "RoleA"; "RoleB" ]
let sk = Abs.keygen drbg msk (Universe.attrs universe)

let expect_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

(* --- constructor validation --- *)

let test_invalid_inputs () =
  expect_invalid "box inverted" (fun () -> Box.make ~lo:[| 3 |] ~hi:[| 1 |]);
  expect_invalid "box mismatched dims" (fun () -> Box.make ~lo:[| 0; 0 |] ~hi:[| 1 |]);
  expect_invalid "keyspace dims 0" (fun () -> Keyspace.create ~dims:0 ~depth:3);
  expect_invalid "keyspace too large" (fun () -> Keyspace.create ~dims:8 ~depth:10);
  expect_invalid "bad attr" (fun () -> Expr.leaf "a b");
  expect_invalid "empty conj" (fun () -> Expr.conj []);
  expect_invalid "threshold k=0" (fun () -> Expr.threshold 0 [ Expr.leaf "A" ]);
  expect_invalid "threshold k>n" (fun () ->
      Expr.threshold 3 [ Expr.leaf "A"; Expr.leaf "B" ]);
  expect_invalid "universe with pseudo" (fun () -> Universe.create [ Attr.pseudo_role ]);
  expect_invalid "negative scalar mul" (fun () ->
      let params = Lazy.force Zkqac_group.Typea_params.tiny in
      ignore (Curve.mul params.Zkqac_group.Typea_params.fp (B.of_int (-1)) params.Zkqac_group.Typea_params.g))

let space = Keyspace.create ~dims:2 ~depth:2

let test_build_validation () =
  let r k = Record.make ~key:k ~value:"v" ~policy:(Expr.of_string "RoleA") in
  expect_invalid "key outside space" (fun () ->
      Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"x" [ r [| 9; 0 |] ]);
  expect_invalid "duplicate keys" (fun () ->
      Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"x"
        [ r [| 1; 1 |]; r [| 1; 1 |] ]);
  expect_invalid "wrong dims" (fun () ->
      Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"x" [ r [| 1 |] ]);
  expect_invalid "continuous duplicate" (fun () ->
      ignore
        (Cont.build drbg ~mvk ~sk ~universe [ r [| 1 |]; r [| 1 |] ]));
  expect_invalid "continuous key outside the domain" (fun () ->
      ignore (Cont.build drbg ~mvk ~sk ~universe [ r [| -1 |] ]));
  (* A side of 2^32 or more cannot be written as the u32 coordinates of the
     VO and ADS codecs: the whole-space box's corner would be 2^32. *)
  List.iter
    (fun depth ->
      expect_invalid (Printf.sprintf "depth %d" depth) (fun () ->
          Keyspace.create ~dims:1 ~depth))
    [ 32; 40 ];
  ignore (Keyspace.create ~dims:1 ~depth:31)

(* --- degenerate queries --- *)

let tree =
  Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"e"
    [ Record.make ~key:[| 0; 0 |] ~value:"corner" ~policy:(Expr.of_string "RoleA") ]

let verify user query vo = Ap2g.verify ~mvk ~t_universe:universe ~user ~query vo

let test_degenerate_queries () =
  (* Single-cell query on the corner record. *)
  let q1 = Box.of_point [| 0; 0 |] in
  let vo, _ = Ap2g.range_vo drbg ~mvk tree ~user:(attrs [ "RoleA" ]) q1 in
  (match verify (attrs [ "RoleA" ]) q1 vo with
   | Ok [ r ] -> Alcotest.(check string) "corner" "corner" r.Record.value
   | Ok _ -> Alcotest.fail "expected one result"
   | Error e -> Alcotest.failf "corner: %s" (Vo.error_to_string e));
  (* Whole-space query for a role with nothing: single root-level proof. *)
  let q2 = Keyspace.whole space in
  let vo2, st = Ap2g.range_vo drbg ~mvk tree ~user:(attrs [ "RoleB" ]) q2 in
  Alcotest.(check int) "collapses to one entry" 1 (List.length vo2);
  Alcotest.(check int) "one relaxation" 1 st.Ap2g.relax_calls;
  (match verify (attrs [ "RoleB" ]) q2 vo2 with
   | Ok [] -> ()
   | Ok _ -> Alcotest.fail "no results expected"
   | Error e -> Alcotest.failf "whole: %s" (Vo.error_to_string e));
  (* Empty VO only verifies for an empty query... there is no empty box, so
     an empty VO must fail coverage for any real query. *)
  match verify (attrs [ "RoleA" ]) q1 [] with
  | Error Vo.Completeness_gap -> ()
  | Error e -> Alcotest.failf "unexpected: %s" (Vo.error_to_string e)
  | Ok _ -> Alcotest.fail "empty VO must fail"

(* A VO cannot be replayed against a different query box. *)
let test_vo_not_transferable () =
  let q_small = Box.of_range ~alpha:[| 0; 0 |] ~beta:[| 1; 1 |] in
  let q_big = Box.of_range ~alpha:[| 0; 0 |] ~beta:[| 3; 3 |] in
  let user = attrs [ "RoleA" ] in
  let vo, _ = Ap2g.range_vo drbg ~mvk tree ~user q_small in
  (match verify user q_big vo with
   | Error Vo.Completeness_gap -> ()
   | Error e -> Alcotest.failf "unexpected: %s" (Vo.error_to_string e)
   | Ok _ -> Alcotest.fail "small VO must not satisfy big query");
  let vo_big, _ = Ap2g.range_vo drbg ~mvk tree ~user q_big in
  match verify user q_small vo_big with
  | Error Vo.Completeness_gap -> ()
  | Error (Vo.Record_outside_query _) -> ()
  | Error e -> Alcotest.failf "unexpected: %s" (Vo.error_to_string e)
  | Ok _ -> Alcotest.fail "big VO must not satisfy small query"

(* A VO for user X must not verify for user Y (APS predicates differ). *)
let test_vo_user_bound () =
  let universe3 = Universe.create [ "RoleA"; "RoleB"; "RoleC" ] in
  let sk3 = Abs.keygen drbg msk (Universe.attrs universe3) in
  let tree3 =
    Ap2g.build drbg ~mvk ~sk:sk3 ~space ~universe:universe3 ~pseudo_seed:"u"
      [ Record.make ~key:[| 2; 2 |] ~value:"x" ~policy:(Expr.of_string "RoleC") ]
  in
  let q = Keyspace.whole space in
  let vo, _ = Ap2g.range_vo drbg ~mvk tree3 ~user:(attrs [ "RoleA" ]) q in
  (* Fine for RoleA... *)
  (match Ap2g.verify ~mvk ~t_universe:universe3 ~user:(attrs [ "RoleA" ]) ~query:q vo with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "own user: %s" (Vo.error_to_string e));
  (* ...but RoleB's super policy differs, so the APS signatures mismatch. *)
  match Ap2g.verify ~mvk ~t_universe:universe3 ~user:(attrs [ "RoleB" ]) ~query:q vo with
  | Error (Vo.(Bad_abs_signature _ | Bad_aps_signature _)) -> ()
  | Error e -> Alcotest.failf "unexpected: %s" (Vo.error_to_string e)
  | Ok _ -> Alcotest.fail "another user's VO must not verify"

(* --- curve edge cases (real group) --- *)

let test_curve_edges () =
  let params = Lazy.force Zkqac_group.Typea_params.tiny in
  let fp = params.Zkqac_group.Typea_params.fp in
  let g = params.Zkqac_group.Typea_params.g in
  let r = params.Zkqac_group.Typea_params.r in
  (* Infinity identities. *)
  Alcotest.(check bool) "O + O" true (Curve.is_infinity (Curve.add fp Curve.Infinity Curve.Infinity));
  Alcotest.(check bool) "g + O" true (Curve.equal g (Curve.add fp g Curve.Infinity));
  Alcotest.(check bool) "g - g" true (Curve.is_infinity (Curve.add fp g (Curve.neg fp g)));
  Alcotest.(check bool) "0 * g" true (Curve.is_infinity (Curve.mul fp B.zero g));
  Alcotest.(check bool) "(r-1)g = -g" true
    (Curve.equal (Curve.mul fp (B.sub r B.one) g) (Curve.neg fp g));
  (* Jacobian double-and-add vs repeated affine addition on assorted scalars. *)
  let naive k p =
    let acc = ref Curve.Infinity in
    for _ = 1 to k do
      acc := Curve.add fp !acc p
    done;
    !acc
  in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "mul %d" k)
        true
        (Curve.equal (Curve.mul fp (B.of_int k) g) (naive k g)))
    [ 1; 2; 3; 7; 16; 17; 255; 256; 1000 ]

let test_fp_edges () =
  let p = B.of_int 23 in
  let fp = Fp.create p in
  let m = M.of_fp fp in
  Alcotest.(check bool) "neg zero" true (M.is_zero (M.neg fp (M.zero fp)));
  Alcotest.(check bool) "add wraps" true (M.is_zero (M.add fp (m (B.of_int 22)) (M.one fp)));
  Alcotest.(check bool) "sub wraps" true
    (B.equal (B.of_int 22) (M.to_fp fp (M.sub fp (M.zero fp) (M.one fp))));
  Alcotest.check_raises "inv zero" Division_by_zero (fun () ->
      ignore (Fp.inv fp B.zero));
  (* sqrt of a non-residue is None: 5 is a non-residue mod 23. *)
  Alcotest.(check bool) "non-residue" true (M.sqrt fp (m (B.of_int 5)) = None);
  match M.sqrt fp (m (B.of_int 2)) with
  | Some r -> Alcotest.(check bool) "sqrt 2 mod 23" true (B.equal (M.to_fp fp (M.sqr fp r)) (B.of_int 2))
  | None -> Alcotest.fail "2 is a QR mod 23"

(* Tonelli-Shanks branch: p = 1 (mod 4). *)
let test_tonelli_shanks () =
  let p = B.of_int 1000033 in
  Alcotest.(check bool) "p = 1 mod 4" true
    (B.equal (B.erem p (B.of_int 4)) B.one);
  Alcotest.(check bool) "prime" true (Zkqac_numth.Primes.is_probable_prime p);
  let fp = Fp.create p in
  let found = ref 0 in
  for a = 2 to 60 do
    match M.sqrt fp (M.of_fp fp (B.of_int a)) with
    | Some r ->
      incr found;
      Alcotest.(check bool) "squares back" true (B.equal (M.to_fp fp (M.sqr fp r)) (B.of_int a))
    | None -> ()
  done;
  Alcotest.(check bool) "roughly half are QRs" true (!found > 20 && !found < 40)

(* [sqrt_mod] finds a root exactly when the Legendre symbol is 1, or 0 for
   a = 0 (whose root is 0), on both branches: p = 23 is 3 (mod 4), where
   the squaring check alone decides, and p = 1000033 is 1 (mod 4), where
   Tonelli-Shanks runs. *)
let test_sqrt_mod_iff_residue () =
  let module Primes = Zkqac_numth.Primes in
  let check p upto =
    let p = B.of_int p in
    for a = 0 to upto - 1 do
      let a = B.of_int a in
      let expect = Primes.legendre a p >= 0 in
      match Primes.sqrt_mod a p with
      | Some r ->
        if not expect then
          Alcotest.failf "sqrt_mod %s %s found a root of a non-residue"
            (B.to_string a) (B.to_string p);
        Alcotest.(check bool) "squares back" true
          (B.equal (B.erem (B.mul r r) p) a)
      | None ->
        if expect then
          Alcotest.failf "sqrt_mod %s %s missed a residue" (B.to_string a)
            (B.to_string p)
    done
  in
  check 23 23;
  check 1000033 2000

let suite =
  [
    ( "edges",
      [
        Alcotest.test_case "invalid inputs" `Quick test_invalid_inputs;
        Alcotest.test_case "build validation" `Quick test_build_validation;
        Alcotest.test_case "degenerate queries" `Quick test_degenerate_queries;
        Alcotest.test_case "vo not transferable" `Quick test_vo_not_transferable;
        Alcotest.test_case "vo user bound" `Quick test_vo_user_bound;
        Alcotest.test_case "curve edges" `Quick test_curve_edges;
        Alcotest.test_case "fp edges" `Quick test_fp_edges;
        Alcotest.test_case "tonelli-shanks" `Quick test_tonelli_shanks;
        Alcotest.test_case "sqrt_mod iff residue" `Quick test_sqrt_mod_iff_residue;
      ] );
  ]
