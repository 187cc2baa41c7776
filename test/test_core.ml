module B = Zkqac_bigint.Bigint
module Attr = Zkqac_policy.Attr
module Expr = Zkqac_policy.Expr
module Universe = Zkqac_policy.Universe
module Hierarchy = Zkqac_policy.Hierarchy
module Drbg = Zkqac_hashing.Drbg
module Prng = Zkqac_rng.Prng
module Box = Zkqac_core.Box
module Keyspace = Zkqac_core.Keyspace
module Record = Zkqac_core.Record

let attrs = Attr.set_of_list

(* --- plain geometry tests --- *)

let test_box_basics () =
  let b = Box.make ~lo:[| 0; 0 |] ~hi:[| 4; 4 |] in
  Alcotest.(check int) "volume" 16 (Box.volume b);
  Alcotest.(check bool) "contains" true (Box.contains_point b [| 3; 3 |]);
  Alcotest.(check bool) "not contains" false (Box.contains_point b [| 4; 0 |]);
  let q = Box.of_range ~alpha:[| 1; 1 |] ~beta:[| 2; 2 |] in
  Alcotest.(check int) "range volume" 4 (Box.volume q);
  Alcotest.(check bool) "intersects" true (Box.intersects b q);
  Alcotest.(check bool) "contains box" true (Box.contains_box b q)

let test_box_cover () =
  let target = Box.make ~lo:[| 0; 0 |] ~hi:[| 4; 2 |] in
  let a = Box.make ~lo:[| 0; 0 |] ~hi:[| 2; 2 |] in
  let b = Box.make ~lo:[| 2; 0 |] ~hi:[| 4; 2 |] in
  Alcotest.(check bool) "tiles" true (Box.covers_exactly target [ a; b ]);
  Alcotest.(check bool) "gap" false (Box.covers_exactly target [ a ]);
  Alcotest.(check bool) "overlap" false (Box.covers_exactly target [ a; b; a ]);
  Alcotest.(check bool) "union allows overlap" true (Box.covers_union target [ a; b; a ]);
  Alcotest.(check bool) "union gap" false (Box.covers_union target [ a ]);
  (* subtract *)
  let rest = Box.subtract target a in
  Alcotest.(check int) "subtract volume" (Box.volume target - Box.volume a)
    (List.fold_left (fun acc p -> acc + Box.volume p) 0 rest)

let test_keyspace () =
  let space = Keyspace.create ~dims:2 ~depth:3 in
  Alcotest.(check int) "side" 8 (Keyspace.side space);
  Alcotest.(check int) "leaves" 64 (Keyspace.num_leaves space);
  let whole = Keyspace.whole space in
  let children = Keyspace.children_boxes space whole in
  Alcotest.(check int) "quad children" 4 (List.length children);
  Alcotest.(check bool) "children tile" true (Box.covers_exactly whole children);
  let unit = Box.of_point [| 3; 5 |] in
  Alcotest.(check bool) "unit" true (Keyspace.is_unit unit);
  Alcotest.(check (list int)) "key of unit" [ 3; 5 ]
    (Array.to_list (Keyspace.key_of_unit unit))

(* --- fixture: a small 2D database with mixed policies --- *)

module Mock_backend = (val Zkqac_group.Backend.instantiate Zkqac_group.Backend.Mock)

module Make_core_tests (P : Zkqac_group.Pairing_intf.PAIRING) = struct
  module Abs = Zkqac_abs.Abs.Make (P)
  module Vo = Zkqac_core.Vo.Make (P)
  module Ap2g = Zkqac_core.Ap2g.Make (P)
  module Ap2kd = Zkqac_core.Ap2kd.Make (P)
  module Equality = Zkqac_core.Equality.Make (P)
  module Join = Zkqac_core.Join.Make (P)
  module System = Zkqac_core.System.Make (P)

  let drbg = Drbg.create ~seed:("core:" ^ P.name)
  let msk, mvk = Abs.setup drbg
  let roles = [ "RoleA"; "RoleB"; "RoleC" ]
  let universe = Universe.create roles
  let sk = Abs.keygen drbg msk (Universe.attrs universe)
  let space = Keyspace.create ~dims:2 ~depth:3

  (* Records scattered over the 8x8 grid with various policies. *)
  let records =
    [
      ([| 1; 1 |], "v11", "RoleA");
      ([| 2; 5 |], "v25", "RoleB");
      ([| 3; 3 |], "v33", "RoleA & RoleB");
      ([| 4; 6 |], "v46", "RoleA | RoleC");
      ([| 5; 2 |], "v52", "RoleC");
      ([| 6; 6 |], "v66", "RoleB | (RoleA & RoleC)");
      ([| 7; 0 |], "v70", "RoleA");
      ([| 0; 7 |], "v07", "RoleB & RoleC");
    ]
    |> List.map (fun (key, value, p) ->
           Record.make ~key ~value ~policy:(Expr.of_string p))

  let tree =
    Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"seed" records

  let users =
    [ attrs [ "RoleA" ]; attrs [ "RoleB" ]; attrs [ "RoleC" ];
      attrs [ "RoleA"; "RoleB" ]; attrs [ "RoleA"; "RoleC" ]; attrs []; ]

  let queries rng n =
    List.init n (fun _ ->
        let x1 = Prng.int rng 8 and y1 = Prng.int rng 8 in
        let x2 = x1 + Prng.int rng (8 - x1) and y2 = y1 + Prng.int rng (8 - y1) in
        Box.of_range ~alpha:[| x1; y1 |] ~beta:[| x2; y2 |])

  let expected_results user query =
    List.filter
      (fun (r : Record.t) ->
        Box.contains_point query r.Record.key && Expr.eval r.Record.policy user)
      records

  let test_tree_build () =
    let stats = Ap2g.stats tree in
    Alcotest.(check int) "leaf signatures = all cells" 64 stats.Ap2g.leaf_signatures;
    (* Complete 4-ary tree over 64 leaves: 16 + 4 + 1 internal nodes. *)
    Alcotest.(check int) "node signatures" 21 stats.Ap2g.node_signatures;
    Alcotest.(check int) "records" 8 (Ap2g.num_records tree)

  let test_range_correct_results () =
    let rng = Prng.create 5 in
    let qs = queries rng 12 in
    List.iter
      (fun user ->
        List.iter
          (fun query ->
            let vo, _ = Ap2g.range_vo drbg ~mvk tree ~user query in
            match Ap2g.verify ~mvk ~t_universe:universe ~user ~query vo with
            | Error e -> Alcotest.failf "verify failed: %s" (Vo.error_to_string e)
            | Ok results ->
              let expected = expected_results user query in
              let sort = List.sort (fun (a : Record.t) b -> compare a.Record.key b.Record.key) in
              Alcotest.(check int)
                (Printf.sprintf "result count for %s" (Box.to_string query))
                (List.length expected) (List.length results);
              List.iter2
                (fun (e : Record.t) (g : Record.t) ->
                  Alcotest.(check bool) "same record" true (e.Record.key = g.Record.key && e.Record.value = g.Record.value))
                (sort expected) (sort results))
          qs)
      users

  let test_vo_roundtrip () =
    let user = attrs [ "RoleA" ] in
    let query = Box.of_range ~alpha:[| 0; 0 |] ~beta:[| 7; 7 |] in
    let vo, _ = Ap2g.range_vo drbg ~mvk tree ~user query in
    let bytes = Vo.to_bytes vo in
    (match Vo.of_bytes bytes with
     | None -> Alcotest.fail "VO roundtrip failed"
     | Some vo' ->
       Alcotest.(check int) "entries" (List.length vo) (List.length vo');
       (match Ap2g.verify ~mvk ~t_universe:universe ~user ~query vo' with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "decoded VO fails: %s" (Vo.error_to_string e)));
    Alcotest.(check bool) "garbage rejected" true (Vo.of_bytes "junk" = None);
    Alcotest.(check int) "size" (String.length bytes) (Vo.size vo)

  (* Unforgeability (Definition 7.4) case 3: dropping an accessible result
     must be caught by the coverage check. *)
  let test_omission_detected () =
    let user = attrs [ "RoleA" ] in
    let query = Box.of_range ~alpha:[| 0; 0 |] ~beta:[| 7; 7 |] in
    let vo, _ = Ap2g.range_vo drbg ~mvk tree ~user query in
    let dropped =
      List.filter (function Vo.Accessible _ -> false | _ -> true) vo
    in
    (match Ap2g.verify ~mvk ~t_universe:universe ~user ~query dropped with
     | Error Vo.Completeness_gap -> ()
     | Error e -> Alcotest.failf "unexpected error: %s" (Vo.error_to_string e)
     | Ok _ -> Alcotest.fail "omission must be detected")

  (* Definition 7.4 case 1: tampering with a returned value breaks the APP
     signature. *)
  let test_tampered_value_detected () =
    let user = attrs [ "RoleA" ] in
    let query = Box.of_range ~alpha:[| 0; 0 |] ~beta:[| 7; 7 |] in
    let vo, _ = Ap2g.range_vo drbg ~mvk tree ~user query in
    let tampered =
      List.map
        (function
          | Vo.Accessible { region; record; app } ->
            Vo.Accessible
              { region; record = { record with Record.value = record.Record.value ^ "!" }; app }
          | e -> e)
        vo
    in
    (match Ap2g.verify ~mvk ~t_universe:universe ~user ~query tampered with
     | Error (Vo.(Bad_abs_signature _ | Bad_aps_signature _)) -> ()
     | Error e -> Alcotest.failf "unexpected error: %s" (Vo.error_to_string e)
     | Ok _ -> Alcotest.fail "tampering must be detected")

  (* Definition 7.4 case 2: returning an inaccessible record as a result. *)
  let test_inaccessible_returned_detected () =
    let user = attrs [ "RoleA" ] in
    (* RoleC-only record 5,2: craft a VO that claims it accessible, reusing
       the DO's real APP signature for it (the strongest attack). *)
    let query = Box.of_point [| 5; 2 |] in
    let vo_honest, _ = Ap2g.range_vo drbg ~mvk tree ~user:(attrs [ "RoleC" ]) query in
    (match Ap2g.verify ~mvk ~t_universe:universe ~user ~query vo_honest with
     | Error (Vo.Policy_not_satisfied _) -> ()
     | Error (Vo.(Bad_abs_signature _ | Bad_aps_signature _)) -> ()
     | Error e -> Alcotest.failf "unexpected error: %s" (Vo.error_to_string e)
     | Ok results ->
       Alcotest.(check bool) "no result leaks" true (results = []))

  (* Zero-knowledge (Definition 7.5): the real VO and the VO built from the
     simulator's database (inaccessible records replaced by pseudo records)
     must be indistinguishable in structure: same entry kinds, same regions,
     same sizes. *)
  let test_zero_knowledge_game () =
    let user = attrs [ "RoleA" ] in
    let simulated_records =
      List.filter (fun (r : Record.t) -> Expr.eval r.Record.policy user) records
    in
    let sim_tree =
      Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"other-seed"
        simulated_records
    in
    let rng = Prng.create 77 in
    List.iter
      (fun query ->
        let vo_real, _ = Ap2g.range_vo drbg ~mvk tree ~user query in
        let vo_sim, _ = Ap2g.range_vo drbg ~mvk sim_tree ~user query in
        let shape vo =
          List.map
            (function
              | Vo.Accessible { region; record; _ } ->
                ("acc", Box.to_string region, record.Record.value)
              | Vo.Inaccessible_leaf { region; _ } -> ("leaf", Box.to_string region, "")
              | Vo.Inaccessible_node { region; _ } -> ("node", Box.to_string region, ""))
            vo
          |> List.sort compare
        in
        Alcotest.(check bool)
          (Printf.sprintf "shape identical for %s" (Box.to_string query))
          true
          (shape vo_real = shape vo_sim))
      (queries rng 10)

  (* Equality queries: all three outcomes of Section 5. *)
  let test_equality () =
    let flat = Equality.of_ap2g tree in
    let user = attrs [ "RoleA" ] in
    (* accessible *)
    let e1 = Equality.query_vo drbg ~mvk flat ~user [| 1; 1 |] in
    (match Equality.verify_equality ~mvk ~t_universe:universe ~user ~key:[| 1; 1 |] e1 with
     | Ok (Equality.Result r) -> Alcotest.(check string) "value" "v11" r.Record.value
     | Ok Equality.Denied -> Alcotest.fail "should be accessible"
     | Error e -> Alcotest.failf "verify: %s" (Vo.error_to_string e));
    (* inaccessible *)
    let e2 = Equality.query_vo drbg ~mvk flat ~user [| 5; 2 |] in
    (match Equality.verify_equality ~mvk ~t_universe:universe ~user ~key:[| 5; 2 |] e2 with
     | Ok Equality.Denied -> ()
     | Ok (Equality.Result _) -> Alcotest.fail "should be denied"
     | Error e -> Alcotest.failf "verify: %s" (Vo.error_to_string e));
    (* non-existent: same outcome as inaccessible *)
    let e3 = Equality.query_vo drbg ~mvk flat ~user [| 0; 0 |] in
    (match Equality.verify_equality ~mvk ~t_universe:universe ~user ~key:[| 0; 0 |] e3 with
     | Ok Equality.Denied -> ()
     | Ok (Equality.Result _) -> Alcotest.fail "should be denied"
     | Error e -> Alcotest.failf "verify: %s" (Vo.error_to_string e))

  (* The Basic baseline returns the same verified results as the tree. *)
  let test_basic_matches_tree () =
    let flat = Equality.of_ap2g tree in
    let rng = Prng.create 11 in
    List.iter
      (fun query ->
        List.iter
          (fun user ->
            let vo_b, _ = Equality.range_vo drbg ~mvk flat ~user query in
            match Equality.verify_range ~mvk ~t_universe:universe ~user ~query vo_b with
            | Error e -> Alcotest.failf "basic verify: %s" (Vo.error_to_string e)
            | Ok results ->
              Alcotest.(check int) "same results as expected"
                (List.length (expected_results user query))
                (List.length results))
          users)
      (queries rng 4)

  (* Basic VO is strictly larger than the tree VO on big inaccessible
     ranges: the headline claim of Figure 7. *)
  let test_tree_beats_basic () =
    let flat = Equality.of_ap2g tree in
    let user = attrs [ "RoleC" ] in
    let query = Box.of_range ~alpha:[| 0; 0 |] ~beta:[| 7; 7 |] in
    let vo_tree, st_tree = Ap2g.range_vo drbg ~mvk tree ~user query in
    let vo_basic, st_basic = Equality.range_vo drbg ~mvk flat ~user query in
    Alcotest.(check bool) "fewer entries" true
      (List.length vo_tree < List.length vo_basic);
    Alcotest.(check bool) "smaller VO" true (Vo.size vo_tree < Vo.size vo_basic);
    Alcotest.(check bool) "fewer relax calls" true
      (st_tree.Ap2g.relax_calls < st_basic.Ap2g.relax_calls)

  (* --- AP2kd tree --- *)

  let kd_tree = Ap2kd.build drbg ~mvk ~sk ~space ~universe records

  let test_kd_range () =
    let rng = Prng.create 21 in
    List.iter
      (fun query ->
        List.iter
          (fun user ->
            let vo, _ = Ap2kd.range_vo drbg ~mvk kd_tree ~user query in
            match Ap2kd.verify ~mvk ~t_universe:universe ~user ~query vo with
            | Error e -> Alcotest.failf "kd verify: %s" (Vo.error_to_string e)
            | Ok results ->
              Alcotest.(check int)
                (Printf.sprintf "kd results for %s" (Box.to_string query))
                (List.length (expected_results user query))
                (List.length results))
          users)
      (queries rng 8)

  let test_kd_fewer_nodes_than_grid () =
    let st = Ap2kd.stats kd_tree in
    let gst = Ap2g.stats tree in
    Alcotest.(check bool) "kd signs fewer leaves" true
      (st.Ap2kd.leaf_signatures + st.Ap2kd.pseudo_regions
       < gst.Ap2g.leaf_signatures);
    Alcotest.(check int) "one leaf per record" (List.length records)
      st.Ap2kd.leaf_signatures

  (* --- join --- *)

  let space1 = Keyspace.create ~dims:1 ~depth:4

  let make_1d specs =
    List.map
      (fun (k, v, p) -> Record.make ~key:[| k |] ~value:v ~policy:(Expr.of_string p))
      specs

  let r_tree =
    Ap2g.build drbg ~mvk ~sk ~space:space1 ~universe ~pseudo_seed:"r"
      (make_1d
         [ (1, "r1", "RoleA"); (3, "r3", "RoleB"); (5, "r5", "RoleA");
           (8, "r8", "RoleC"); (12, "r12", "RoleA & RoleB") ])

  let s_tree =
    Ap2g.build drbg ~mvk ~sk ~space:space1 ~universe ~pseudo_seed:"s"
      (make_1d
         [ (1, "s1", "RoleA"); (5, "s5", "RoleC"); (8, "s8", "RoleC");
           (12, "s12", "RoleA") ])

  let test_join () =
    let check user alpha beta expected_keys =
      let query = Box.of_range ~alpha:[| alpha |] ~beta:[| beta |] in
      let vo, _ = Join.join_vo drbg ~mvk ~r:r_tree ~s:s_tree ~user query in
      match Join.verify ~mvk ~t_universe:universe ~user ~query vo with
      | Error e -> Alcotest.failf "join verify: %s" (Vo.error_to_string e)
      | Ok pairs ->
        let keys =
          List.sort compare (List.map (fun ((r : Record.t), _) -> r.Record.key.(0)) pairs)
        in
        Alcotest.(check (list int))
          (Printf.sprintf "join results [%d,%d]" alpha beta)
          expected_keys keys
    in
    (* RoleA user: R accessible at 1,5,12(needs B too -> no); S accessible at 1,12.
       Pairs where both sides accessible: key 1 (r1,s1) and key 12? r12 needs
       RoleA & RoleB -> no. So just 1. *)
    check (attrs [ "RoleA" ]) 0 15 [ 1 ];
    check (attrs [ "RoleA"; "RoleB" ]) 0 15 [ 1; 12 ];
    check (attrs [ "RoleC" ]) 0 15 [ 8 ];
    check (attrs []) 0 15 [];
    check (attrs [ "RoleA" ]) 2 9 []

  let test_join_omission_detected () =
    let user = attrs [ "RoleA" ] in
    let query = Box.of_range ~alpha:[| 0 |] ~beta:[| 15 |] in
    let vo, _ = Join.join_vo drbg ~mvk ~r:r_tree ~s:s_tree ~user query in
    let dropped = List.filter (function Join.Pair _ -> false | _ -> true) vo in
    (match Join.verify ~mvk ~t_universe:universe ~user ~query dropped with
     | Error Vo.Completeness_gap -> ()
     | Error e -> Alcotest.failf "unexpected: %s" (Vo.error_to_string e)
     | Ok _ -> Alcotest.fail "join omission must be detected")

  (* --- hierarchy end to end --- *)

  let test_hierarchical_tree () =
    let h = Hierarchy.create [ ("RoleA.P", "RoleA"); ("RoleA.S", "RoleA") ] in
    let roles_h = [ "RoleA"; "RoleA.P"; "RoleA.S"; "RoleB" ] in
    let universe_h = Universe.create roles_h in
    let sk_h = Abs.keygen drbg msk (Universe.attrs universe_h) in
    let recs =
      [ Record.make ~key:[| 0; 0 |] ~value:"prof" ~policy:(Expr.of_string "RoleA.P");
        Record.make ~key:[| 3; 3 |] ~value:"any" ~policy:(Expr.of_string "RoleB") ]
    in
    let tree_h =
      Ap2g.build drbg ~mvk ~sk:sk_h ~space ~universe:universe_h ~hierarchy:h
        ~pseudo_seed:"h" recs
    in
    let query = Box.of_range ~alpha:[| 0; 0 |] ~beta:[| 7; 7 |] in
    List.iter
      (fun (user, expected) ->
        let vo, _ = Ap2g.range_vo drbg ~mvk tree_h ~user query in
        match
          Ap2g.verify ~mvk ~t_universe:universe_h ~hierarchy:h ~user ~query vo
        with
        | Error e -> Alcotest.failf "hier verify: %s" (Vo.error_to_string e)
        | Ok results -> Alcotest.(check int) "hier results" expected (List.length results))
      [ (attrs [ "RoleA.P" ], 1); (attrs [ "RoleB" ], 1); (attrs [ "RoleA.S" ], 0) ];
    (* The reduced predicate is smaller than the flat one. *)
    let sp = Ap2g.super_policy_for tree_h ~user:(attrs [ "RoleB" ]) in
    Alcotest.(check bool) "reduced size" true
      (Expr.num_leaves sp < Attr.Set.cardinal (Universe.attrs universe_h))

  (* --- full protocol --- *)

  let test_system_end_to_end () =
    let plain =
      List.map
        (fun (r : Record.t) ->
          { System.key = r.Record.key; content = "secret:" ^ r.Record.value;
            policy = r.Record.policy })
        records
    in
    let owner, server = System.setup ~seed:"e2e" ~space ~roles plain in
    let alice = System.register_user owner (attrs [ "RoleA" ]) in
    let query = Box.of_range ~alpha:[| 0; 0 |] ~beta:[| 7; 7 |] in
    let resp = System.range_query server ~claimed_roles:(attrs [ "RoleA" ]) query in
    (match System.open_and_verify alice ~query resp with
     | Error e -> Alcotest.failf "system verify: %s" e
     | Ok v ->
       (* RoleA accessible: v11, v46 (RoleA|RoleC), v70 -> 3 records. *)
       Alcotest.(check int) "decrypted results" 3 (List.length v.System.results);
       List.iter
         (fun (_, content) ->
           Alcotest.(check bool) "content decrypted" true
             (String.length content > 7 && String.sub content 0 7 = "secret:"))
         v.System.results);
    (* An impostor claiming RoleA without holding it cannot open the
       response. *)
    let mallory = System.register_user owner (attrs [ "RoleC" ]) in
    (match System.open_and_verify mallory ~query resp with
     | Error _ -> ()
     | Ok _ -> Alcotest.fail "impostor must not open the response")

  let suite name =
    [
      Alcotest.test_case (name ^ " tree build") `Quick test_tree_build;
      Alcotest.test_case (name ^ " range correct") `Quick test_range_correct_results;
      Alcotest.test_case (name ^ " vo roundtrip") `Quick test_vo_roundtrip;
      Alcotest.test_case (name ^ " omission detected") `Quick test_omission_detected;
      Alcotest.test_case (name ^ " tamper detected") `Quick test_tampered_value_detected;
      Alcotest.test_case (name ^ " inaccessible-as-result detected") `Quick
        test_inaccessible_returned_detected;
      Alcotest.test_case (name ^ " zero-knowledge game") `Quick test_zero_knowledge_game;
      Alcotest.test_case (name ^ " equality outcomes") `Quick test_equality;
      Alcotest.test_case (name ^ " basic matches tree") `Quick test_basic_matches_tree;
      Alcotest.test_case (name ^ " tree beats basic") `Quick test_tree_beats_basic;
      Alcotest.test_case (name ^ " kd range") `Quick test_kd_range;
      Alcotest.test_case (name ^ " kd compactness") `Quick test_kd_fewer_nodes_than_grid;
      Alcotest.test_case (name ^ " join") `Quick test_join;
      Alcotest.test_case (name ^ " join omission detected") `Quick test_join_omission_detected;
      Alcotest.test_case (name ^ " hierarchy end-to-end") `Quick test_hierarchical_tree;
      Alcotest.test_case (name ^ " system end-to-end") `Quick test_system_end_to_end;
    ]
end

module Core_mock = Make_core_tests (Mock_backend)

(* ADS and VO goldens share one tree: built from a fixed seed over a 1-D
   key space with three records under RoleA/RoleB/RoleC policies. *)
module Golden (P : Zkqac_group.Pairing_intf.PAIRING) (D : sig val depth : int end) =
struct
  module Abs = Zkqac_abs.Abs.Make (P)
  module Vo = Zkqac_core.Vo.Make (P)
  module Ap2g = Zkqac_core.Ap2g.Make (P)

  let drbg = Drbg.create ~seed:"ads-golden"
  let msk, mvk = Abs.setup drbg
  let universe = Universe.create [ "RoleA"; "RoleB"; "RoleC" ]
  let sk = Abs.keygen drbg msk (Universe.attrs universe)
  let space = Keyspace.create ~dims:1 ~depth:D.depth

  let records_of =
    List.map (fun (k, v, p) ->
        Record.make ~key:[| k |] ~value:v ~policy:(Expr.of_string p))

  let records =
    records_of
      [ (0, "va", "RoleA"); (2, "vb", "RoleA & RoleB");
        (3, "vc", "RoleB | (RoleA & RoleC)") ]

  let tree = Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"golden" records

  (* The query side: a RoleA user over the whole key space, every VO drawn
     from its own DRBG under one fixed seed. *)
  let user = attrs [ "RoleA" ]
  let query = Box.of_range ~alpha:[| 0 |] ~beta:[| Keyspace.side space - 1 |]
  let query_drbg () = Drbg.create ~seed:"vo-golden"
end

(* One walk rule: an inaccessible node that meets the query is one APS
   entry, even where the query cuts it. Over a 1-D key space of eight cells,
   RoleA reads records 0 and 3 and not 4 and 6 (RoleB), so the node [4, 8)
   is inaccessible, and the query [3, 6] cuts it. Each tree answers [4, 8)
   with one APS entry, which reaches past the query, and returns record 3
   with one relaxation in all. *)
module Walk_rule (P : Zkqac_group.Pairing_intf.PAIRING) = struct
  module Abs = Zkqac_abs.Abs.Make (P)
  module Vo = Zkqac_core.Vo.Make (P)
  module Ap2g = Zkqac_core.Ap2g.Make (P)
  module Join = Zkqac_core.Join.Make (P)
  module Dup = Zkqac_core.Duplicates.Make (P)

  let drbg = Drbg.create ~seed:"walk-rule"
  let msk, mvk = Abs.setup drbg
  let universe = Universe.create [ "RoleA"; "RoleB" ]
  let sk = Abs.keygen drbg msk (Universe.attrs universe)
  let space = Keyspace.create ~dims:1 ~depth:3

  let records_of =
    List.map (fun (k, p) ->
        Record.make ~key:[| k |] ~value:(string_of_int k) ~policy:(Expr.of_string p))

  let records = records_of [ (0, "RoleA"); (3, "RoleA"); (4, "RoleB"); (6, "RoleB") ]
  let user = attrs [ "RoleA" ]
  let query = Box.of_range ~alpha:[| 3 |] ~beta:[| 6 |]
  let cut = Box.make ~lo:[| 4 |] ~hi:[| 8 |]

  let check_aps what (st : Vo.query_stats) aps =
    Alcotest.(check int) (what ^ ": one relaxation") 1 st.relax_calls;
    match aps with
    | [ Vo.Inaccessible_node { region; _ } ] ->
      Alcotest.(check bool) (what ^ ": the APS reaches past the query") false
        (Box.contains_box query region);
      region
    | _ -> Alcotest.failf "%s: expected one APS entry, got %d" what (List.length aps)

  let check_keys what records =
    Alcotest.(check (list (list int))) (what ^ ": records") [ [ 3 ] ]
      (List.map (fun (r : Record.t) -> Array.to_list r.Record.key) records)

  let split vo =
    List.partition (function Vo.Accessible _ -> false | _ -> true) vo

  let test_ap2g () =
    let tree = Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"w" records in
    let vo, st = Ap2g.range_vo drbg ~mvk tree ~user query in
    let aps, _ = split vo in
    Alcotest.(check bool) "ap2g: the APS is the cut node" true
      (Box.equal cut (check_aps "ap2g" st aps));
    match Ap2g.verify ~mvk ~t_universe:universe ~user ~query vo with
    | Ok records -> check_keys "ap2g" records
    | Error e -> Alcotest.failf "ap2g: %s" (Vo.error_to_string e)

  let test_duplicates () =
    let tree = Dup.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"w" records in
    let vo, st = Dup.range_vo drbg ~mvk tree ~user query in
    let aps, _ = split vo in
    let region = check_aps "duplicates" st aps in
    Alcotest.(check (list int)) "duplicates: the APS is the cut node, lifted" [ 4; 8 ]
      [ region.Box.lo.(0); region.Box.hi.(0) ];
    match Dup.verify ~mvk ~space ~t_universe:universe ~user ~query vo with
    | Ok records -> check_keys "duplicates" records
    | Error e -> Alcotest.failf "duplicates: %s" (Vo.error_to_string e)

  let test_join () =
    let r = Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"w" records in
    let s =
      Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"ws"
        (records_of [ (3, "RoleA"); (5, "RoleA") ])
    in
    let vo, st = Join.join_vo drbg ~mvk ~r ~s ~user query in
    let aps =
      List.filter_map
        (function Join.R_side e | Join.S_side e -> Some e | Join.Pair _ -> None)
        vo
    in
    Alcotest.(check bool) "join: the APS is the cut node" true
      (Box.equal cut (check_aps "join" st aps));
    match Join.verify ~mvk ~t_universe:universe ~user ~query vo with
    | Ok pairs -> check_keys "join" (List.map fst pairs)
    | Error e -> Alcotest.failf "join: %s" (Vo.error_to_string e)

  let suite name =
    [ Alcotest.test_case (name ^ " walk rule: ap2g") `Quick test_ap2g;
      Alcotest.test_case (name ^ " walk rule: duplicates") `Quick test_duplicates;
      Alcotest.test_case (name ^ " walk rule: join") `Quick test_join ]
end

module Walk_mock = Walk_rule (Mock_backend)
module Typea_backend =
  (val Zkqac_group.Backend.instantiate Zkqac_group.Backend.Typea_tiny)

module Walk_typea = Walk_rule (Typea_backend)

(* An honest APS entry from a larger query's VO, lying wholly outside the
   query, accounts for none of it: appended to an honest AP²kd or
   continuous VO, whose regions the verifier clips to the query, it makes
   the VO a completeness gap on the batched and the unbatched path. *)
let test_aps_outside_query () =
  let open Walk_mock in
  let module Ap2kd = Zkqac_core.Ap2kd.Make (Mock_backend) in
  let module Cont = Zkqac_core.Continuous.Make (Mock_backend) in
  let small = Box.of_range ~alpha:[| 0 |] ~beta:[| 3 |] in
  let outside vo =
    match
      List.find_opt
        (function
          | Vo.Accessible _ -> false
          | e -> not (Box.intersects small (Vo.entry_region e)))
        vo
    with
    | Some e -> e
    | None -> Alcotest.fail "the larger VO has no APS entry outside the query"
  in
  let rejects what verify vo =
    List.iter
      (fun batch ->
        match verify ?batch vo with
        | Error Vo.Completeness_gap -> ()
        | Error e -> Alcotest.failf "%s: %s" what (Vo.error_to_string e)
        | Ok _ -> Alcotest.failf "%s: accepted" what)
      [ None; Some (Drbg.create ~seed:"aps-outside") ]
  in
  let kd = Ap2kd.build drbg ~mvk ~sk ~space ~universe records in
  let kd_vo q = fst (Ap2kd.range_vo drbg ~mvk kd ~user q) in
  rejects "ap2kd"
    (fun ?batch vo -> Ap2kd.verify ?batch ~mvk ~t_universe:universe ~user ~query:small vo)
    (kd_vo small @ [ outside (kd_vo (Keyspace.whole space)) ]);
  let cont = Cont.build drbg ~mvk ~sk ~universe records in
  let cont_vo hi = fst (Cont.range_vo drbg ~mvk cont ~user ~lo:0 ~hi) in
  rejects "continuous"
    (fun ?batch vo ->
      Cont.verify_range ?batch ~mvk ~t_universe:universe ~user ~lo:0 ~hi:3 vo)
    (cont_vo 3 @ [ outside (cont_vo 200) ])

let hex_digest s = Zkqac_hashing.Sha256.hex (Zkqac_hashing.Sha256.digest s)

(* ADS goldens: the SHA-256 of [Ap2g.to_bytes] for the golden tree. Signing
   draws its randomness in a fixed order, so any change to how ABS.Sign
   computes its components must leave these bytes alone. *)
let ads_digest (module P : Zkqac_group.Pairing_intf.PAIRING) ~depth =
  let module G = Golden (P) (struct let depth = depth end) in
  hex_digest (G.Ap2g.to_bytes G.tree)

let test_ads_golden (kind, depth, expected) () =
  Alcotest.(check string) "ADS SHA-256" expected
    (ads_digest (Zkqac_group.Backend.instantiate kind) ~depth)

(* VO goldens: the SHA-256 of the encoded VO each SP query builder returns
   over the golden tree. Relax draws its randomness in a fixed order, so a
   change to how the SP makes its APS entries must leave these bytes alone. *)
let vo_digest (module P : Zkqac_group.Pairing_intf.PAIRING) ~depth which =
  let module G = Golden (P) (struct let depth = depth end) in
  let open G in
  let q = query_drbg () in
  match which with
  | `Ap2g_range ->
    hex_digest (Vo.to_bytes (fst (Ap2g.range_vo q ~mvk tree ~user query)))
  | `Ap2kd_range ->
    let module Ap2kd = Zkqac_core.Ap2kd.Make (P) in
    let kd =
      Ap2kd.build (Drbg.create ~seed:"kd-golden") ~mvk ~sk ~space ~universe records
    in
    hex_digest (Vo.to_bytes (fst (Ap2kd.range_vo q ~mvk kd ~user query)))
  | `Join ->
    let module Join = Zkqac_core.Join.Make (P) in
    let s =
      Ap2g.build (Drbg.create ~seed:"join-golden") ~mvk ~sk ~space ~universe
        ~pseudo_seed:"golden-s"
        (records_of [ (0, "wa", "RoleA"); (1, "wb", "RoleB"); (2, "wc", "RoleA") ])
    in
    hex_digest (Join.to_bytes (fst (Join.join_vo q ~mvk ~r:tree ~s ~user query)))
  | `Equality_point ->
    let module Equality = Zkqac_core.Equality.Make (P) in
    let eq = Equality.of_ap2g tree in
    hex_digest (Vo.to_bytes [ Equality.query_vo q ~mvk eq ~user [| 2 |] ])
  | `Continuous_range ->
    let module Cont = Zkqac_core.Continuous.Make (P) in
    let c = Cont.build (Drbg.create ~seed:"cont-golden") ~mvk ~sk ~universe records in
    let hi = Keyspace.side space - 1 in
    hex_digest (Vo.to_bytes (fst (Cont.range_vo q ~mvk c ~user ~lo:0 ~hi)))
  | `Duplicates_range ->
    let module Dup = Zkqac_core.Duplicates.Make (P) in
    let d =
      Dup.build (Drbg.create ~seed:"dup-golden") ~mvk ~sk ~space ~universe
        ~pseudo_seed:"golden-d"
        (records @ records_of [ (0, "vd", "RoleB"); (3, "ve", "RoleA") ])
    in
    hex_digest (Vo.to_bytes (fst (Dup.range_vo q ~mvk d ~user query)))

let test_vo_golden (kind, depth, which, expected) () =
  Alcotest.(check string) "VO SHA-256" expected
    (vo_digest (Zkqac_group.Backend.instantiate kind) ~depth which)

let suite =
  [
    ( "core-geometry",
      [
        Alcotest.test_case "box basics" `Quick test_box_basics;
        Alcotest.test_case "box cover" `Quick test_box_cover;
        Alcotest.test_case "keyspace" `Quick test_keyspace;
      ] );
    ( "core",
      Core_mock.suite "mock"
      @ Walk_mock.suite "mock" @ Walk_typea.suite "typea-tiny"
      @ [ Alcotest.test_case "APS entry outside the query rejected" `Quick
            test_aps_outside_query;
          Alcotest.test_case "mock ads golden" `Quick
            (test_ads_golden
               ( Zkqac_group.Backend.Mock, 3,
                 "705123508f6dc276ebf6480149168871792d06e37adb78558de3ab8bebde7c21" ));
          Alcotest.test_case "typea-tiny ads golden" `Quick
            (test_ads_golden
               ( Zkqac_group.Backend.Typea_tiny, 2,
                 "ab29712459cb1041716d7cda320c05bbc3074c996cbc83d3692eb79a0e49ddc6" )) ]
      @ List.map
          (fun (name, kind, depth, which, expected) ->
            Alcotest.test_case (name ^ " vo golden") `Quick
              (test_vo_golden (kind, depth, which, expected)))
          Zkqac_group.Backend.
            [ ( "mock ap2g range", Mock, 3, `Ap2g_range,
                "1cba4cab6bc3f6b29245947e3392d8b59f9e7c97b8e1ab4a6ca3173861d04886" );
              ( "typea-tiny ap2g range", Typea_tiny, 2, `Ap2g_range,
                "166842a1af644cbd18ae1523aa1f83f4ad962fa95bf46358538841c29cfe77c5" );
              ( "mock ap2kd range", Mock, 3, `Ap2kd_range,
                "7c8e314f152d1d47d656d2b541a66eefd8b4423b43825377b29485f3e20886c5" );
              ( "mock join", Mock, 3, `Join,
                "e85dae9f9465bc59a427088b03e4b0e95cf3cdc99892e5fdbd63da4787eeb1a2" );
              ( "mock equality point", Mock, 3, `Equality_point,
                "30fc2e2f61e6f771bfc16b664205cc3869b224e9643feb531740fec9e21eb5e7" );
              ( "mock continuous range", Mock, 3, `Continuous_range,
                "27686317b747fbf8ac776a8752dd2d45063e926154f6c34f4d00ea568ff31acf" );
              ( "mock duplicates range", Mock, 3, `Duplicates_range,
                "279c69a546cd557f5082682d1e9b1f8a6299fae819721a9ae608819e56268f16" ) ] );
  ]
