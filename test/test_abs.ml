module B = Zkqac_bigint.Bigint
module Attr = Zkqac_policy.Attr
module Expr = Zkqac_policy.Expr
module Msp = Zkqac_policy.Msp
module Universe = Zkqac_policy.Universe
module Drbg = Zkqac_hashing.Drbg
module Prng = Zkqac_rng.Prng
module T = Zkqac_telemetry.Telemetry
module Verify_error = Zkqac_util.Verify_error

let attrs = Attr.set_of_list

module Make_tests (P : Zkqac_group.Pairing_intf.PAIRING) = struct
  module Abs = Zkqac_abs.Abs.Make (P)

  let drbg = Drbg.create ~seed:("abs-tests:" ^ P.name)
  let msk, mvk = Abs.setup drbg
  let roles = [ "RoleA"; "RoleB"; "RoleC"; "RoleD" ]
  let universe = Universe.create roles
  let do_key = Abs.keygen drbg msk (Universe.attrs universe)

  (* Encodings are canonical, so two signatures are equal iff their bytes
     are; two honest signatures of one statement almost surely differ
     (re-randomization). *)
  let same_signature s1 s2 = String.equal (Abs.to_bytes s1) (Abs.to_bytes s2)

  let test_sign_verify () =
    List.iter
      (fun pstr ->
        let policy = Expr.of_string pstr in
        let sigma = Abs.sign drbg mvk do_key ~msg:"hello" ~policy in
        Alcotest.(check bool) (pstr ^ " verifies") true
          (Abs.verify mvk ~msg:"hello" ~policy sigma);
        Alcotest.(check bool) (pstr ^ " wrong msg") false
          (Abs.verify mvk ~msg:"hello!" ~policy sigma))
      [ "RoleA"; "RoleA & RoleB"; "RoleA | RoleB"; "RoleA & (RoleB | RoleC)";
        "(RoleA & RoleB) | (RoleC & RoleD)"; "RoleA & RoleB & RoleC & RoleD";
        "@empty" ]

  let test_wrong_policy_rejected () =
    let policy = Expr.of_string "RoleA & RoleB" in
    let other = Expr.of_string "RoleA | RoleB" in
    let sigma = Abs.sign drbg mvk do_key ~msg:"m" ~policy in
    Alcotest.(check bool) "verify under different policy" false
      (Abs.verify mvk ~msg:"m" ~policy:other sigma)

  let test_insufficient_key () =
    let weak = Abs.keygen drbg msk (attrs [ "RoleA" ]) in
    let policy = Expr.of_string "RoleA & RoleB" in
    (match Abs.sign drbg mvk weak ~msg:"m" ~policy with
     | exception Invalid_argument _ -> ()
     | _ -> Alcotest.fail "signing without satisfying attributes must fail");
    (* But a satisfied disjunction works. *)
    let policy2 = Expr.of_string "RoleA | RoleB" in
    let sigma = Abs.sign drbg mvk weak ~msg:"m" ~policy:policy2 in
    Alcotest.(check bool) "disjunct ok" true (Abs.verify mvk ~msg:"m" ~policy:policy2 sigma)

  (* The key has no table for a label outside its attribute set; sign
     builds one on the spot, and the signature still verifies. *)
  let test_foreign_label () =
    let policy = Expr.of_string "RoleA | (RoleB & RoleX)" in
    let sigma = Abs.sign drbg mvk do_key ~msg:"m" ~policy in
    Alcotest.(check bool) "verifies" true (Abs.verify mvk ~msg:"m" ~policy sigma)

  let test_foreign_mvk () =
    let _, other = Abs.setup (Drbg.create ~seed:"abs-tests:other") in
    match Abs.sign drbg other do_key ~msg:"m" ~policy:(Expr.of_string "RoleA") with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "signing under another issuer's mvk must fail"

  let test_serialization () =
    let policy = Expr.of_string "RoleA & (RoleB | RoleC)" in
    let sigma = Abs.sign drbg mvk do_key ~msg:"ser" ~policy in
    let bytes = Abs.to_bytes sigma in
    Alcotest.(check int) "size = |bytes|" (String.length bytes) (Abs.size sigma);
    (match Abs.of_bytes bytes with
     | None -> Alcotest.fail "roundtrip failed"
     | Some sigma' ->
       Alcotest.(check bool) "roundtrip equal" true (same_signature sigma sigma');
       Alcotest.(check bool) "roundtrip verifies" true
         (Abs.verify mvk ~msg:"ser" ~policy sigma'));
    Alcotest.(check bool) "garbage rejected" true (Abs.of_bytes "xx" = None)

  let relax_and_check ~policy_str ~user ~msg =
    let policy = Expr.of_string policy_str in
    let sigma = Abs.sign drbg mvk do_key ~msg ~policy in
    let keep = Universe.missing universe ~user in
    let relaxed = Abs.relax drbg mvk sigma ~msg ~policy ~keep in
    (relaxed, keep)

  let test_relax_success () =
    (* The paper's running example: policy RoleA & RoleB, user holds RoleC.
       The super policy @empty | RoleA | RoleB | RoleD must verify. *)
    let relaxed, keep =
      relax_and_check ~policy_str:"RoleA & RoleB" ~user:(attrs [ "RoleC" ]) ~msg:"m"
    in
    match relaxed with
    | None -> Alcotest.fail "relaxation should succeed"
    | Some r ->
      Alcotest.(check bool) "relaxed verifies under super policy" true
        (Abs.verify mvk ~msg:"m" ~policy:(Abs.relaxed_policy keep) r);
      Alcotest.(check bool) "relaxed fails under wrong msg" false
        (Abs.verify mvk ~msg:"m2" ~policy:(Abs.relaxed_policy keep) r);
      Alcotest.(check bool) "relaxed fails under original policy" false
        (Abs.verify mvk ~msg:"m" ~policy:(Expr.of_string "RoleA & RoleB") r)

  let test_relax_refused () =
    (* Policy RoleA & RoleB, user holds RoleC and RoleD; removing the other
       roles kills it -- but relaxing to just {@empty, RoleC}: the paper's
       counterexample Υ(𝔸∖A') = Υ({RoleA, RoleB, RoleD}) = 1 must abort. *)
    let policy = Expr.of_string "RoleA & RoleB" in
    let sigma = Abs.sign drbg mvk do_key ~msg:"m" ~policy in
    let keep = attrs [ Attr.pseudo_role; "RoleC" ] in
    Alcotest.(check bool) "relaxation refused" true
      (Abs.relax drbg mvk sigma ~msg:"m" ~policy ~keep = None)

  let test_relax_all_users_matrix () =
    (* Exhaustive small matrix: random policies x random user role sets;
       relaxation must succeed exactly when the user cannot satisfy the
       policy, and then verify under the super policy. *)
    let rng = Prng.create 99 in
    let role_arr = Array.of_list roles in
    for _ = 1 to 25 do
      let policy = Expr.random rng ~roles:role_arr ~or_fanin:2 ~and_fanin:2 in
      let sigma = Abs.sign drbg mvk do_key ~msg:"mx" ~policy in
      for mask = 0 to 15 do
        let user =
          attrs (List.filteri (fun i _ -> mask land (1 lsl i) <> 0) roles)
        in
        let keep = Universe.missing universe ~user in
        let expected = not (Expr.eval policy user) in
        match Abs.relax drbg mvk sigma ~msg:"mx" ~policy ~keep with
        | None -> Alcotest.(check bool) "relax fails iff accessible" false expected
        | Some r ->
          Alcotest.(check bool) "relax succeeds iff inaccessible" true expected;
          Alcotest.(check bool) "relaxed verifies" true
            (Abs.verify mvk ~msg:"mx" ~policy:(Abs.relaxed_policy keep) r);
          Alcotest.(check int) "relaxed size = fresh super-policy signature size"
            (Abs.size (Abs.sign drbg mvk do_key ~msg:"mx" ~policy:(Abs.relaxed_policy keep)))
            (Abs.size r)
      done
    done

  let test_relax_rerandomized () =
    let policy = Expr.of_string "RoleA & RoleB" in
    let sigma = Abs.sign drbg mvk do_key ~msg:"m" ~policy in
    let keep = Universe.missing universe ~user:(attrs [ "RoleC" ]) in
    let r1 = Option.get (Abs.relax drbg mvk sigma ~msg:"m" ~policy ~keep) in
    let r2 = Option.get (Abs.relax drbg mvk sigma ~msg:"m" ~policy ~keep) in
    Alcotest.(check bool) "two relaxations differ (re-randomized)" false
      (same_signature r1 r2)

  let test_privacy_shape () =
    (* A relaxed signature must look like a fresh signature on the super
       policy: same component counts, regardless of the original policy. *)
    let user = attrs [ "RoleC" ] in
    let keep = Universe.missing universe ~user in
    let sizes =
      List.map
        (fun pstr ->
          let policy = Expr.of_string pstr in
          let sigma = Abs.sign drbg mvk do_key ~msg:"m" ~policy in
          match Abs.relax drbg mvk sigma ~msg:"m" ~policy ~keep with
          | Some r -> Abs.size r
          | None -> Alcotest.failf "relax failed for %s" pstr)
        [ "RoleA & RoleB"; "RoleA & RoleB & RoleD"; "(RoleA & RoleB) | (RoleA & RoleD)";
          "@empty" ]
    in
    (match sizes with
     | s :: rest -> List.iter (fun s' -> Alcotest.(check int) "same size" s s') rest
     | [] -> ());
    (* And a direct DO signature on the super policy has the same size. *)
    let direct =
      Abs.sign drbg mvk do_key ~msg:"m" ~policy:(Abs.relaxed_policy keep)
    in
    Alcotest.(check int) "fresh = relaxed size" (List.hd sizes) (Abs.size direct)

  let test_mvk_serialization () =
    let bytes = Abs.mvk_to_bytes mvk in
    match Abs.mvk_of_bytes bytes with
    | None -> Alcotest.fail "mvk roundtrip"
    | Some mvk' ->
      let policy = Expr.of_string "RoleA" in
      let sigma = Abs.sign drbg mvk' do_key ~msg:"m" ~policy in
      Alcotest.(check bool) "usable after roundtrip" true
        (Abs.verify mvk' ~msg:"m" ~policy sigma)

  let test_tamper_rejected () =
    let policy = Expr.of_string "RoleA & RoleB" in
    let sigma = Abs.sign drbg mvk do_key ~msg:"m" ~policy in
    let bytes = Abs.to_bytes sigma in
    (* Flip a byte inside a group element and check the result either fails
       to parse or fails to verify. *)
    let ok = ref true in
    for trial = 0 to 9 do
      let pos = 40 + (trial * 7) in
      if pos < String.length bytes then begin
        let mutated = Bytes.of_string bytes in
        Bytes.set mutated pos (Char.chr (Char.code (Bytes.get mutated pos) lxor 0x55));
        match Abs.of_bytes (Bytes.to_string mutated) with
        | None -> ()
        | Some sigma' ->
          if
            (not (same_signature sigma sigma'))
            && Abs.verify mvk ~msg:"m" ~policy sigma'
          then ok := false
      end
    done;
    Alcotest.(check bool) "no tampered signature verifies" true !ok

  (* One verification is one pairing product with a term per distinct
     label, whatever the policy's shape, plus the two key-binding terms
     and one message term. *)
  let test_one_equation () =
    let r = List.init 10 (Printf.sprintf "R%d") in
    let key = Abs.keygen drbg msk (attrs r) in
    List.iter
      (fun (shape, policy, rows) ->
        let sigma = Abs.sign drbg mvk key ~msg:"m" ~policy in
        Alcotest.(check int) (shape ^ ": rows") rows (Msp.build policy).Msp.rows;
        let before = T.snapshot () in
        Alcotest.(check bool) (shape ^ " verifies") true (Abs.verify mvk ~msg:"m" ~policy sigma);
        let ops = T.ops (T.diff ~earlier:before ~later:(T.snapshot ())) in
        Alcotest.(check int) (shape ^ ": products") 1 (List.assoc T.Multi_pairing ops);
        Alcotest.(check int) (shape ^ ": terms")
          (2 + Attr.Set.cardinal (Expr.attrs policy) + 1)
          (List.assoc T.Multi_pairing_terms ops))
      [ ("leaf", Expr.of_string "R0", 1);
        ("AND of 3", Expr.of_string "R0 & R1 & R2", 3);
        ("OR of 3", Expr.of_string "R0 | R1 | R2", 3);
        ("OR of ANDs", Expr.of_string "(R0 & R1) | (R2 & R3) | (R4 & R5)", 6);
        ("repeated clause", Expr.of_string "(R0 & R1) | (R0 & R1) | (R0 & R1)", 6);
        ("relaxed OR of 10", Abs.relaxed_policy (attrs r), 10) ]

  (* Each element of an honest signature swapped for the one at the same
     place in another signature of the same statement: a rejection names
     the equation that breaks, through [verify], [check] and a batched
     [check] alike. *)
  let test_culprits () =
    let g = String.length (P.G.to_bytes P.G.g) in
    let splice bytes off elt =
      String.sub bytes 0 off ^ elt ^ String.sub bytes (off + g) (String.length bytes - off - g)
    in
    let claim policy sigma = { Abs.msg = "m"; policy; sigma; blame = Fun.id } in
    let bystander =
      let policy = Expr.of_string "RoleC | RoleD" in
      claim policy (Abs.sign drbg mvk do_key ~msg:"m" ~policy)
    in
    let key_binding = Error (Verify_error.Bad_abs_signature "key-binding pairing equation") in
    let column j =
      Error (Verify_error.Bad_abs_signature (Printf.sprintf "span-program equation (column %d)" j))
    in
    let show = function Ok () -> "accepted" | Error e -> Verify_error.to_string e in
    List.iter
      (fun pstr ->
        let policy = Expr.of_string pstr in
        let msp = Msp.build policy in
        let sign () = Abs.to_bytes (Abs.sign drbg mvk do_key ~msg:"m" ~policy) in
        let honest = sign () and other = sign () in
        let y_at = 2 + ((Char.code honest.[0] lsl 8) lor Char.code honest.[1]) in
        let s_at i = y_at + (2 * g) + 2 + (i * g) in
        let p_at j = s_at msp.Msp.rows + 2 + (j * g) in
        let swap off = splice honest off (String.sub other off g) in
        let first_column i =
          let rec go j = if msp.Msp.matrix.(i).(j) <> 0 then j else go (j + 1) in
          go 0
        in
        let cases =
          [ ("honest", honest, Ok ());
            ("Y", swap y_at, key_binding);
            ("W", swap (y_at + g), key_binding);
            ( "Y = 1",
              splice honest y_at (P.G.to_bytes P.G.one),
              Error (Verify_error.Bad_abs_signature "degenerate Y component") ) ]
          @ List.init msp.Msp.rows (fun i ->
                (Printf.sprintf "S%d" i, swap (s_at i), column (first_column i)))
          @ List.init msp.Msp.cols (fun j -> (Printf.sprintf "P%d" j, swap (p_at j), column j))
        in
        List.iter
          (fun (what, bytes, expected) ->
            let name = Printf.sprintf "%s, %s" pstr what in
            let sigma =
              match Abs.of_bytes bytes with
              | Some sigma -> sigma
              | None -> Alcotest.failf "%s: does not decode" name
            in
            let c = claim policy sigma in
            Alcotest.(check bool) (name ^ ": verify") (Result.is_ok expected)
              (Abs.verify mvk ~msg:"m" ~policy sigma);
            Alcotest.(check string) (name ^ ": check") (show expected) (show (Abs.check mvk [ c ]));
            Alcotest.(check string) (name ^ ": batched check") (show expected)
              (show
                 (Abs.check ~batch:(Drbg.create ~seed:("culprits:" ^ name)) mvk
                    [ bystander; c; bystander ])))
          cases)
      [ "RoleA"; "RoleA & RoleB"; "RoleA | RoleB"; "RoleA & (RoleB | RoleC)";
        "(RoleA & RoleB) | (RoleC & RoleD)"; "(RoleA & RoleB) | (RoleA & RoleB)" ]

  let suite name =
    [
      Alcotest.test_case (name ^ " sign/verify") `Quick test_sign_verify;
      Alcotest.test_case (name ^ " wrong policy") `Quick test_wrong_policy_rejected;
      Alcotest.test_case (name ^ " insufficient key") `Quick test_insufficient_key;
      Alcotest.test_case (name ^ " label outside key") `Quick test_foreign_label;
      Alcotest.test_case (name ^ " foreign mvk") `Quick test_foreign_mvk;
      Alcotest.test_case (name ^ " serialization") `Quick test_serialization;
      Alcotest.test_case (name ^ " relax success") `Quick test_relax_success;
      Alcotest.test_case (name ^ " relax refused") `Quick test_relax_refused;
      Alcotest.test_case (name ^ " relax matrix") `Quick test_relax_all_users_matrix;
      Alcotest.test_case (name ^ " relax re-randomized") `Quick test_relax_rerandomized;
      Alcotest.test_case (name ^ " privacy shape") `Quick test_privacy_shape;
      Alcotest.test_case (name ^ " mvk serialization") `Quick test_mvk_serialization;
      Alcotest.test_case (name ^ " tamper rejected") `Quick test_tamper_rejected;
    ]
end

module Mock_tests = Make_tests ((val Zkqac_group.Backend.instantiate Zkqac_group.Backend.Mock))
module Typea_tests = Make_tests ((val Zkqac_group.Backend.instantiate Zkqac_group.Backend.Typea_tiny))

let suite =
  [ ( "abs",
      Mock_tests.suite "mock" @ Typea_tests.suite "typea-tiny"
      @ [ Alcotest.test_case "one equation" `Quick Mock_tests.test_one_equation;
          Alcotest.test_case "verdicts and culprits" `Quick (fun () ->
              Mock_tests.test_culprits ();
              Typea_tests.test_culprits ()) ] ) ]
