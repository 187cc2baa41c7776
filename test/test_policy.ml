module B = Zkqac_bigint.Bigint
module Attr = Zkqac_policy.Attr
module Expr = Zkqac_policy.Expr
module Msp = Zkqac_policy.Msp
module Universe = Zkqac_policy.Universe
module Hierarchy = Zkqac_policy.Hierarchy
module Kd_split = Zkqac_policy.Kd_split
module Linalg = Zkqac_numth.Zp_linalg
module Prng = Zkqac_rng.Prng

(* 2^128 - 159, a prime, so field inverses exist. *)
let p_test = B.of_string "0xffffffffffffffffffffffffffffff61"

let attrs l = Attr.set_of_list l

let test_eval () =
  let e = Expr.of_string "RoleA & RoleB | RoleC" in
  Alcotest.(check bool) "ab" true (Expr.eval e (attrs [ "RoleA"; "RoleB" ]));
  Alcotest.(check bool) "c" true (Expr.eval e (attrs [ "RoleC" ]));
  Alcotest.(check bool) "a" false (Expr.eval e (attrs [ "RoleA" ]));
  Alcotest.(check bool) "empty" false (Expr.eval e (attrs []))

let test_parser_roundtrip () =
  List.iter
    (fun s ->
      let e = Expr.of_string s in
      let e' = Expr.of_string (Expr.to_string e) in
      Alcotest.(check bool) s true (Expr.equal e e'))
    [ "A"; "A & B"; "A | B"; "A & (B | C)"; "(A | B) & (C | D)"; "A & B & C | D";
      "((A))"; "A|B|C|D" ]

let test_parser_errors () =
  List.iter
    (fun s ->
      match Expr.of_string s with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "should reject %S" s)
    [ ""; "A &"; "& A"; "(A"; "A)"; "A B"; "A && B"; "()" ]

let test_dnf () =
  let e = Expr.of_string "A & (B | C)" in
  let dnf = Expr.to_dnf e in
  Alcotest.(check int) "clauses" 2 (List.length dnf);
  Alcotest.(check bool) "same semantics" true
    (List.for_all
       (fun s -> Expr.eval e s = Expr.eval_dnf dnf s)
       [ attrs [ "A" ]; attrs [ "A"; "B" ]; attrs [ "A"; "C" ]; attrs [ "B"; "C" ] ]);
  (* Absorption: A | (A & B) = A *)
  let e2 = Expr.of_string "A | A & B" in
  Alcotest.(check int) "absorbed" 1 (List.length (Expr.to_dnf e2))

let random_roles n = Array.init n (fun i -> Printf.sprintf "R%d" i)

let random_subset rng roles =
  Array.to_list roles
  |> List.filter (fun _ -> Prng.bool rng)
  |> Attr.set_of_list

(* Definition 5.3 against the Gaussian-elimination oracle: eval = span. *)
let test_msp_span_semantics () =
  let rng = Prng.create 42 in
  let roles = random_roles 6 in
  for _ = 1 to 200 do
    let e = Expr.random rng ~roles ~or_fanin:3 ~and_fanin:3 in
    let msp = Msp.build e in
    let a = random_subset rng roles in
    let rows_held =
      List.filter (fun i -> Attr.Set.mem msp.Msp.labels.(i) a)
        (List.init msp.Msp.rows Fun.id)
    in
    let sub = Array.of_list (List.map (fun i -> Array.map (fun x -> B.erem (B.of_int x) p_test) msp.Msp.matrix.(i)) rows_held) in
    let spans = Linalg.spans_e1 ~p:p_test sub ~cols:msp.Msp.cols in
    Alcotest.(check bool)
      (Printf.sprintf "eval=span for %s" (Expr.to_string e))
      (Expr.eval e a) spans
  done

(* The satisfying vector is 0/1, supported on held rows, with v*M = e1. *)
let test_msp_satisfying_rows () =
  let rng = Prng.create 43 in
  let roles = random_roles 6 in
  for _ = 1 to 200 do
    let e = Expr.random rng ~roles ~or_fanin:3 ~and_fanin:3 in
    let msp = Msp.build e in
    let a = random_subset rng roles in
    match Msp.satisfying_rows msp e a with
    | None -> Alcotest.(check bool) "eval false" false (Expr.eval e a)
    | Some v ->
      Alcotest.(check bool) "eval true" true (Expr.eval e a);
      Array.iteri
        (fun i vi ->
          if vi <> 0 then begin
            Alcotest.(check int) "binary" 1 vi;
            Alcotest.(check bool) "held" true (Attr.Set.mem msp.Msp.labels.(i) a)
          end)
        v;
      let bm = Array.map (Array.map (fun x -> B.erem (B.of_int x) p_test)) msp.Msp.matrix in
      let bv = Array.map (fun x -> B.erem (B.of_int x) p_test) v in
      let prod = Linalg.mul_vec_mat ~p:p_test bv bm ~cols:msp.Msp.cols in
      Array.iteri
        (fun j x ->
          Alcotest.(check bool) "vM = e1" true
            (B.equal x (if j = 0 then B.one else B.zero)))
        prod
  done

(* Purge: succeeds iff the relaxation condition holds, and the returned
   column subset has row-sums 1 on kept rows / 0 on dropped rows, with kept
   rows labelled inside the keep set. *)
let test_msp_purge () =
  let rng = Prng.create 44 in
  let roles = random_roles 6 in
  let universe =
    Attr.Set.add Attr.pseudo_role (Attr.set_of_list (Array.to_list roles))
  in
  for _ = 1 to 300 do
    let e = Expr.random rng ~roles ~or_fanin:3 ~and_fanin:3 in
    let msp = Msp.build e in
    let keep = Attr.Set.add Attr.pseudo_role (random_subset rng roles) in
    let expected = Msp.check_purge_condition e ~universe ~keep in
    match Msp.purge e ~keep with
    | None -> Alcotest.(check bool) "purge fails iff condition fails" false expected
    | Some { Msp.kept_rows; kept_cols } ->
      Alcotest.(check bool) "purge succeeds iff condition holds" true expected;
      Alcotest.(check bool) "col 0 kept" true (List.mem 0 kept_cols);
      Alcotest.(check bool) "kept rows nonempty" true (kept_rows <> []);
      List.iter
        (fun i ->
          Alcotest.(check bool) "kept labels in keep set" true
            (Attr.Set.mem msp.Msp.labels.(i) keep))
        kept_rows;
      for i = 0 to msp.Msp.rows - 1 do
        let s =
          List.fold_left (fun acc j -> acc + msp.Msp.matrix.(i).(j)) 0 kept_cols
        in
        let expected_sum = if List.mem i kept_rows then 1 else 0 in
        Alcotest.(check int) "row sum" expected_sum s
      done
  done

let test_universe () =
  let u = Universe.create [ "RoleA"; "RoleB"; "RoleC" ] in
  Alcotest.(check int) "size includes pseudo" 4 (Universe.size u);
  let sp = Universe.super_policy u ~user:(attrs [ "RoleC" ]) in
  Alcotest.(check bool) "super policy" true
    (Expr.equal (Expr.canonical sp)
       (Expr.canonical (Expr.of_string "@empty | RoleA | RoleB")));
  Alcotest.check_raises "pseudo role rejected"
    (Invalid_argument "Universe.validate_user: no user holds the pseudo role")
    (fun () -> ignore (Universe.missing u ~user:(attrs [ Attr.pseudo_role ])))

let test_hierarchy () =
  let h =
    Hierarchy.create
      [ ("RoleA.S", "RoleA"); ("RoleA.P", "RoleA"); ("RoleB.S", "RoleB"); ("RoleB.P", "RoleB") ]
  in
  let u = Universe.create [ "RoleA"; "RoleA.S"; "RoleA.P"; "RoleB"; "RoleB.S"; "RoleB.P" ] in
  (* The paper's example: a RoleB.S user's inaccessible predicate reduces to
     RoleA | RoleB.P (plus the pseudo role). *)
  let sp = Hierarchy.super_policy h u ~user:(attrs [ "RoleB.S" ]) in
  Alcotest.(check bool) "reduced predicate" true
    (Expr.equal (Expr.canonical sp)
       (Expr.canonical (Expr.of_string "@empty | RoleA | RoleB.P")));
  (* Closure adds ancestors. *)
  let closed = Hierarchy.close_user h (attrs [ "RoleA.P" ]) in
  Alcotest.(check bool) "closure" true (Attr.Set.mem "RoleA" closed);
  (* Augmentation: RoleA.P becomes RoleA & RoleA.P. *)
  let aug = Hierarchy.augment_policy h (Expr.of_string "RoleA.P") in
  Alcotest.(check bool) "augment" true
    (Expr.equal (Expr.canonical aug) (Expr.canonical (Expr.of_string "RoleA & RoleA.P")));
  Alcotest.check_raises "cycle" (Invalid_argument "Hierarchy.create: cycle") (fun () ->
      ignore (Hierarchy.create [ ("A", "B"); ("B", "A") ]))

(* Hierarchy + purge interplay: relaxation under the reduced predicate works
   on augmented policies. *)
let test_hierarchy_purge () =
  let h = Hierarchy.create [ ("RoleA.S", "RoleA"); ("RoleA.P", "RoleA") ] in
  let u = Universe.create [ "RoleA"; "RoleA.S"; "RoleA.P"; "RoleB" ] in
  let record_policy = Hierarchy.augment_policy h (Expr.of_string "RoleA.P") in
  let user = attrs [ "RoleB" ] in
  let sp = Hierarchy.super_policy h u ~user in
  let keep = Expr.attrs sp in
  Alcotest.(check bool) "reduced keep set lacks implied role" false
    (Attr.Set.mem "RoleA.P" keep);
  (match Msp.purge record_policy ~keep with
   | Some _ -> ()
   | None -> Alcotest.fail "purge should succeed on augmented policy under reduced predicate")

let test_kd_split () =
  let pol s = Expr.of_string s in
  (* Policies clustered: first three share clauses, last three share others. *)
  let ps =
    [| pol "A"; pol "A | B"; pol "A & B"; pol "C"; pol "C | D"; pol "C & D" |]
  in
  let x = Kd_split.split_exhaustive ps in
  let side lo hi = Array.to_list (Array.sub ps lo (hi - lo)) in
  let n = Array.length ps in
  Alcotest.(check int) "objective zero at optimum" 0
    (Kd_split.objective (side 0 x) (side x n));
  (* Algorithm 7 is not optimal in general, but on this fixture it reaches
     the optimum at a split of its own. *)
  let x' = Kd_split.split ps in
  Alcotest.(check int) "paper recursion's split" 5 x';
  Alcotest.(check int) "paper recursion reaches the optimum"
    (Kd_split.objective (side 0 x) (side x n))
    (Kd_split.objective (side 0 x') (side x' n));
  (* Two-policy base case. *)
  Alcotest.(check int) "n=2" 1 (Kd_split.split [| pol "A"; pol "B" |])

let test_random_policy_shape () =
  let rng = Prng.create 7 in
  let roles = random_roles 10 in
  for _ = 1 to 50 do
    let e = Expr.random rng ~roles ~or_fanin:3 ~and_fanin:2 in
    Alcotest.(check bool) "length bounded" true (Expr.num_leaves e <= 6);
    Alcotest.(check bool) "satisfiable with all roles" true
      (Expr.eval e (Attr.set_of_list (Array.to_list roles)))
  done

let suite =
  [
    ( "policy",
      [
        Alcotest.test_case "eval" `Quick test_eval;
        Alcotest.test_case "parser roundtrip" `Quick test_parser_roundtrip;
        Alcotest.test_case "parser errors" `Quick test_parser_errors;
        Alcotest.test_case "dnf" `Quick test_dnf;
        Alcotest.test_case "msp span semantics (oracle)" `Quick test_msp_span_semantics;
        Alcotest.test_case "msp satisfying rows" `Quick test_msp_satisfying_rows;
        Alcotest.test_case "msp purge" `Quick test_msp_purge;
        Alcotest.test_case "universe" `Quick test_universe;
        Alcotest.test_case "hierarchy" `Quick test_hierarchy;
        Alcotest.test_case "hierarchy purge" `Quick test_hierarchy_purge;
        Alcotest.test_case "kd split" `Quick test_kd_split;
        Alcotest.test_case "random policy shape" `Quick test_random_policy_shape;
      ] );
  ]
