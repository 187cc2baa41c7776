(* Tests for the extension features: threshold gates, batch verification,
   verified aggregation, ADS persistence, the CLI-facing codecs, and the
   Figure-1 leakage a no-access user must not see. *)

module Attr = Zkqac_policy.Attr
module Expr = Zkqac_policy.Expr
module Universe = Zkqac_policy.Universe
module Msp = Zkqac_policy.Msp
module Drbg = Zkqac_hashing.Drbg
module Prng = Zkqac_rng.Prng
module Box = Zkqac_core.Box
module Keyspace = Zkqac_core.Keyspace
module Record = Zkqac_core.Record

let attrs = Attr.set_of_list

module Mock_backend = (val Zkqac_group.Backend.instantiate Zkqac_group.Backend.Mock)
module Abs = Zkqac_abs.Abs.Make (Mock_backend)
module Cpabe = Zkqac_cpabe.Cpabe.Make (Mock_backend)
module Ap2g = Zkqac_core.Ap2g.Make (Mock_backend)
module Vo = Zkqac_core.Vo.Make (Mock_backend)
module Aggregate = Zkqac_core.Aggregate.Make (Mock_backend)
module Ads_io = Zkqac_core.Ads_io.Make (Mock_backend)

let drbg = Drbg.create ~seed:"features"
let msk, mvk = Abs.setup drbg
let roles = [ "RoleA"; "RoleB"; "RoleC"; "RoleD" ]
let universe = Universe.create roles
let sk = Abs.keygen drbg msk (Universe.attrs universe)

(* --- threshold gates --- *)

let test_threshold_eval () =
  let t = Expr.threshold 2 [ Expr.leaf "A"; Expr.leaf "B"; Expr.leaf "C" ] in
  Alcotest.(check bool) "2of3 ab" true (Expr.eval t (attrs [ "A"; "B" ]));
  Alcotest.(check bool) "2of3 ac" true (Expr.eval t (attrs [ "A"; "C" ]));
  Alcotest.(check bool) "2of3 a" false (Expr.eval t (attrs [ "A" ]));
  Alcotest.(check bool) "2of3 abc" true (Expr.eval t (attrs [ "A"; "B"; "C" ]));
  (* Degenerate thresholds normalize. *)
  Alcotest.(check bool) "1ofn = or" true
    (Expr.equal (Expr.threshold 1 [ Expr.leaf "A"; Expr.leaf "B" ])
       (Expr.of_string "A | B"));
  Alcotest.(check bool) "nofn = and" true
    (Expr.equal (Expr.threshold 2 [ Expr.leaf "A"; Expr.leaf "B" ])
       (Expr.of_string "A & B"))

let test_threshold_expand_semantics () =
  let rng = Prng.create 31 in
  let role_arr = [| "A"; "B"; "C"; "D"; "E" |] in
  for _ = 1 to 100 do
    let k = 1 + Prng.int rng 3 in
    let n = k + Prng.int rng (5 - k + 1) in
    let children =
      List.init n (fun i -> Expr.leaf role_arr.(i mod Array.length role_arr))
    in
    let t = Expr.threshold k children in
    let expanded = Expr.expand_thresholds t in
    for mask = 0 to 31 do
      let a =
        attrs
          (List.filteri (fun i _ -> mask land (1 lsl i) <> 0)
             (Array.to_list role_arr))
      in
      if Expr.eval t a <> Expr.eval expanded a then
        Alcotest.failf "expansion mismatch for %s" (Expr.to_string t)
    done
  done

let test_threshold_parser_roundtrip () =
  List.iter
    (fun s ->
      let e = Expr.of_string s in
      let e' = Expr.of_string (Expr.to_string e) in
      Alcotest.(check bool) s true (Expr.equal e e'))
    [ "2of(A, B, C)"; "2of(A & B, C, D | E)"; "A & 2of(B, C, D)";
      "3of(A, B, C, D) | E" ]

let test_threshold_abs_sign_verify () =
  let policy = Expr.of_string "2of(RoleA, RoleB, RoleC)" in
  let sigma = Abs.sign drbg mvk sk ~msg:"t" ~policy in
  Alcotest.(check bool) "verifies" true (Abs.verify mvk ~msg:"t" ~policy sigma);
  (* A user holding only RoleD cannot satisfy it; relaxation works. *)
  let keep = Universe.missing universe ~user:(attrs [ "RoleD" ]) in
  (match Abs.relax drbg mvk sigma ~msg:"t" ~policy ~keep with
   | Some r ->
     Alcotest.(check bool) "relaxed verifies" true
       (Abs.verify mvk ~msg:"t" ~policy:(Abs.relaxed_policy keep) r)
   | None -> Alcotest.fail "threshold relaxation should succeed");
  (* A user holding RoleA+RoleB satisfies it: relaxation must refuse. *)
  let keep2 = Universe.missing universe ~user:(attrs [ "RoleA"; "RoleB" ]) in
  Alcotest.(check bool) "relaxation refused" true
    (Abs.relax drbg mvk sigma ~msg:"t" ~policy ~keep:keep2 = None)

let test_threshold_cpabe () =
  let cp_mk, cp_pp = Cpabe.setup drbg in
  let policy = Expr.threshold 2 [ Expr.leaf "A"; Expr.leaf "B"; Expr.leaf "C" ] in
  let m = Cpabe.random_message drbg cp_pp in
  let ct = Cpabe.encrypt drbg cp_pp m ~policy in
  let check user expected =
    let skx = Cpabe.keygen drbg cp_mk cp_pp (attrs user) in
    match Cpabe.decrypt cp_pp skx ct with
    | Some m' ->
      Alcotest.(check bool) "decrypts" true expected;
      Alcotest.(check bool) "right message" true (Mock_backend.Gt.equal m m')
    | None -> Alcotest.(check bool) "denied" false expected
  in
  check [ "A"; "C" ] true;
  check [ "B"; "C" ] true;
  check [ "A" ] false;
  check [ "D" ] false;
  check [ "A"; "B"; "C" ] true

(* --- batch verification --- *)

let batch_fixture () =
  let user = attrs [ "RoleD" ] in
  let keep = Universe.missing universe ~user in
  let super = Abs.relaxed_policy keep in
  let sigs =
    List.init 8 (fun i ->
        let msg = "batch-" ^ string_of_int i in
        let policy = Expr.of_string (if i mod 2 = 0 then "RoleA & RoleB" else "RoleC") in
        let sigma = Abs.sign drbg mvk sk ~msg ~policy in
        let aps = Option.get (Abs.relax drbg mvk sigma ~msg ~policy ~keep) in
        (msg, aps))
  in
  (super, sigs)

let claim ?(blame = Fun.id) policy (msg, sigma) = { Abs.msg; policy; sigma; blame }

let batch_check claims = Abs.check ~batch:drbg mvk claims

let test_batch_verify_accepts () =
  let super, sigs = batch_fixture () in
  let ok = Alcotest.(check (result unit reject)) in
  ok "batch accepts" (Ok ()) (batch_check (List.map (claim super) sigs));
  ok "empty batch" (Ok ()) (batch_check []);
  ok "singleton batch" (Ok ()) (batch_check [ claim super (List.hd sigs) ])

let test_batch_verify_rejects () =
  let super, sigs = batch_fixture () in
  let rejects what claims =
    Alcotest.(check bool) what true (Result.is_error (batch_check claims))
  in
  (* Corrupt one message: the whole batch must fail. *)
  rejects "batch rejects corruption"
    (List.mapi (fun i (m, s) -> claim super (if i = 3 then (m ^ "!", s) else (m, s))) sigs);
  (* Swap two signatures' messages: also caught. *)
  match sigs with
  | (m1, s1) :: (m2, s2) :: rest ->
    rejects "batch rejects swap" (List.map (claim super) ((m1, s2) :: (m2, s1) :: rest))
  | _ -> assert false

(* The encoding is tau (u16 length, bytes), Y, W, then the S components
   (u16 count, elements) and the P components. [swap_part off] exchanges
   the element [off] bytes past tau between two signatures. *)
let g_size = String.length (Mock_backend.G.to_bytes Mock_backend.G.g)
let w_at = g_size
let s0_at = (2 * g_size) + 2

let swap_part off s1 s2 =
  let b1 = Abs.to_bytes s1 and b2 = Abs.to_bytes s2 in
  let at b = 2 + ((Char.code b.[0] lsl 8) lor Char.code b.[1]) + off in
  let splice b from =
    String.sub b 0 (at b) ^ String.sub from (at from) g_size
    ^ String.sub b (at b + g_size) (String.length b - at b - g_size)
  in
  (Option.get (Abs.of_bytes (splice b1 b2)), Option.get (Abs.of_bytes (splice b2 b1)))

(* An APP under RoleA and an APS under the super policy trade W: the two
   claims sit in one product only through their own weights. *)
let test_batch_swapped_w () =
  let super, sigs = batch_fixture () in
  let app = Abs.sign drbg mvk sk ~msg:"app" ~policy:(Expr.of_string "RoleA") in
  let msg, aps = List.hd sigs in
  let app', aps' = swap_part w_at app aps in
  let claims =
    [ claim (Expr.of_string "RoleA") ("app", app');
      claim ~blame:Zkqac_util.Verify_error.as_aps super (msg, aps') ]
  in
  let sequential = Abs.check mvk claims in
  Alcotest.(check bool) "sequential rejects" true (Result.is_error sequential);
  Alcotest.(check bool) "batched gives the sequential error" true
    (batch_check claims = sequential)

(* Two APS claims under the one super policy trade their first S row. *)
let test_batch_swapped_row () =
  let super, sigs = batch_fixture () in
  match sigs with
  | (m1, s1) :: (m2, s2) :: rest ->
    let s1', s2' = swap_part s0_at s1 s2 in
    Alcotest.(check bool) "batch rejects row swap" true
      (Result.is_error (batch_check (List.map (claim super) ((m1, s1') :: (m2, s2') :: rest))))
  | _ -> assert false

let space = Keyspace.create ~dims:2 ~depth:3

let records =
  [ ([| 1; 1 |], "10.5", "RoleA"); ([| 2; 5 |], "20.25", "RoleB");
    ([| 3; 3 |], "30.0", "RoleA & RoleB"); ([| 5; 2 |], "7.5", "RoleA");
    ([| 6; 6 |], "1.0", "RoleC") ]
  |> List.map (fun (k, v, p) -> Record.make ~key:k ~value:v ~policy:(Expr.of_string p))

let tree = Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"feat" records

let test_batched_vo_verify () =
  let user = attrs [ "RoleA" ] in
  let query = Box.of_range ~alpha:[| 0; 0 |] ~beta:[| 7; 7 |] in
  let vo, _ = Ap2g.range_vo drbg ~mvk tree ~user query in
  (match Ap2g.verify ~batch:drbg ~mvk ~t_universe:universe ~user ~query vo with
   | Ok results -> Alcotest.(check int) "batched results" 2 (List.length results)
   | Error e -> Alcotest.failf "batched verify: %s" (Vo.error_to_string e));
  (* Tampering caught in batch mode too. *)
  let tampered =
    List.map
      (function
        | Vo.Inaccessible_leaf { region; key; value_hash; aps } ->
          Vo.Inaccessible_leaf
            { region; key; value_hash = String.map Char.uppercase_ascii value_hash; aps }
        | e -> e)
      vo
  in
  match Ap2g.verify ~batch:drbg ~mvk ~t_universe:universe ~user ~query tampered with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "batched verify must catch tampering"

(* --- one signature check: batched and unbatched give one verdict --- *)

module Join = Zkqac_core.Join.Make (Mock_backend)
module Cont = Zkqac_core.Continuous.Make (Mock_backend)
module T = Zkqac_telemetry.Telemetry
module Metrics = Zkqac_telemetry.Metrics

(* Both paths must return [expected]: every structural check runs before
   any signature, so a later structural fault wins over an earlier bad
   signature whether or not the signatures are batched. *)
let check_same_error what expected verify =
  List.iter
    (fun (path, batch) ->
      match verify ?batch () with
      | Error e when e = expected -> ()
      | Error e -> Alcotest.failf "%s %s: %s" what path (Vo.error_to_string e)
      | Ok _ -> Alcotest.failf "%s %s: accepted" what path)
    [ ("unbatched", None); ("batched", Some (Drbg.create ~seed:"two-faults")) ]

let unsatisfied = Expr.of_string "RoleD"

(* An AP²G VO lists its accessible entries first; for RoleA there are two.
   The first gets the second's APP, the second a policy RoleA does not
   satisfy. *)
let test_two_faults_range () =
  let user = attrs [ "RoleA" ] in
  let query = Box.of_range ~alpha:[| 0; 0 |] ~beta:[| 7; 7 |] in
  match fst (Ap2g.range_vo drbg ~mvk tree ~user query) with
  | Vo.Accessible a :: Vo.Accessible b :: rest ->
    let key = b.record.Record.key in
    let vo =
      Vo.Accessible { a with app = b.app }
      :: Vo.Accessible { b with record = { b.record with Record.policy = unsatisfied } }
      :: rest
    in
    check_same_error "range" (Vo.Policy_not_satisfied key) (fun ?batch () ->
        Ap2g.verify ?batch ~mvk ~t_universe:universe ~user ~query vo)
  | _ -> Alcotest.fail "expected two accessible entries first"

let space1 = Keyspace.create ~dims:1 ~depth:4

let tree_1d seed specs =
  Ap2g.build drbg ~mvk ~sk ~space:space1 ~universe ~pseudo_seed:seed
    (List.map
       (fun (k, v, p) -> Record.make ~key:[| k |] ~value:v ~policy:(Expr.of_string p))
       specs)

let r_tree = tree_1d "r" [ (1, "r1", "RoleA"); (3, "r3", "RoleB"); (12, "r12", "RoleA") ]
let s_tree = tree_1d "s" [ (1, "s1", "RoleA"); (5, "s5", "RoleC"); (12, "s12", "RoleA") ]
let join_query = Box.of_range ~alpha:[| 0 |] ~beta:[| 15 |]

let verify_join vo ?batch () =
  Join.verify ?batch ~mvk ~t_universe:universe ~user:(attrs [ "RoleA" ])
    ~query:join_query vo

(* RoleA's join VO holds pairs at keys 1 and 12, in that order. The first
   pair's R side gets its S side's APP; with [fault], the pair at 12 gets an
   S record RoleA cannot read. *)
let tampered_join ~fault =
  let vo, _ =
    Join.join_vo drbg ~mvk ~r:r_tree ~s:s_tree ~user:(attrs [ "RoleA" ]) join_query
  in
  List.map
    (function
      | Join.Pair p when p.r_record.Record.key = [| 1 |] -> Join.Pair { p with r_app = p.s_app }
      | Join.Pair p when fault && p.r_record.Record.key = [| 12 |] ->
        Join.Pair { p with s_record = { p.s_record with Record.policy = unsatisfied } }
      | e -> e)
    vo

let test_two_faults_join () =
  check_same_error "join" (Vo.Policy_not_satisfied [| 12 |])
    (verify_join (tampered_join ~fault:true))

(* [Join.verify] checks every APS entry under the plain super policy of one
   universe and pairs leaves cell by cell, so [join_vo] refuses trees it
   could not answer for: a role hierarchy, a different keyspace shape with
   the same number of leaves, a different universe. *)
let test_join_preconditions () =
  let drbg = Drbg.create ~seed:"join-preconditions" in
  let universe_h = Universe.create [ "RoleA"; "RoleA.P"; "RoleA.S"; "RoleB" ] in
  let sk_h = Abs.keygen drbg msk (Universe.attrs universe_h) in
  let hierarchy = Zkqac_policy.Hierarchy.create [ ("RoleA.P", "RoleA"); ("RoleA.S", "RoleA") ] in
  let records specs =
    List.map
      (fun (k, p) -> Record.make ~key:[| k |] ~value:"v" ~policy:(Expr.of_string p))
      specs
  in
  let r_h =
    Ap2g.build drbg ~mvk ~sk:sk_h ~space:space1 ~universe:universe_h ~hierarchy
      ~pseudo_seed:"rh" (records [ (1, "RoleA.P"); (3, "RoleB"); (5, "RoleA") ])
  in
  let s_plain =
    Ap2g.build drbg ~mvk ~sk:sk_h ~space:space1 ~universe:universe_h ~pseudo_seed:"sh"
      (records [ (1, "RoleA.P"); (5, "RoleB") ])
  in
  let s_2d =
    Ap2g.build drbg ~mvk ~sk ~space:(Keyspace.create ~dims:2 ~depth:2) ~universe
      ~pseudo_seed:"s2" []
  in
  let rejects what ~r ~s =
    Alcotest.check_raises what (Invalid_argument ("Join.join_vo: " ^ what)) (fun () ->
        ignore (Join.join_vo drbg ~mvk ~r ~s ~user:(attrs [ "RoleA.P" ]) join_query))
  in
  rejects "tree built with a role hierarchy" ~r:r_h ~s:s_plain;
  rejects "tree built with a role hierarchy" ~r:s_plain ~s:r_h;
  rejects "trees over different keyspaces" ~r:r_tree ~s:s_2d;
  rejects "trees over different universes" ~r:r_tree ~s:s_plain

let cont =
  Cont.build drbg ~mvk ~sk ~universe
    (List.map
       (fun (k, p) -> Record.make ~key:[| k |] ~value:"v" ~policy:(Expr.of_string p))
       [ (10, "RoleA"); (25, "RoleB"); (100, "RoleA") ])

(* RoleA's [0, 200] VO lists records 10, 25 and 100, then the gaps; record
   10 gets record 100's APP. *)
let tampered_cont () =
  match fst (Cont.range_vo drbg ~mvk cont ~user:(attrs [ "RoleA" ]) ~lo:0 ~hi:200) with
  | Vo.Accessible r10 :: r25 :: (Vo.Accessible r100 as e100) :: gaps ->
    Vo.Accessible { r10 with app = r100.app } :: r25 :: e100 :: gaps
  | _ -> Alcotest.fail "unexpected continuous VO"

let verify_cont ~hi vo ?batch () =
  Cont.verify_range ?batch ~mvk ~t_universe:universe ~user:(attrs [ "RoleA" ]) ~lo:0 ~hi vo

(* Checked against [0, 99], the [0, 200] VO still covers the range, but its
   record 100 lies outside it. *)
let test_two_faults_continuous () =
  check_same_error "continuous" (Vo.Record_outside_query [| 100 |])
    (verify_cont ~hi:99 (tampered_cont ()))

(* A copy of the first entry of RoleA's honest [0, 30] VO overlaps the
   original: the tiling rejects the VO rather than return record 10 twice. *)
let test_continuous_duplicated_entry () =
  let user = attrs [ "RoleA" ] in
  let verify vo = Cont.verify_range ~mvk ~t_universe:universe ~user ~lo:0 ~hi:30 vo in
  let vo = fst (Cont.range_vo drbg ~mvk cont ~user ~lo:0 ~hi:30) in
  (match verify vo with
   | Ok records -> Alcotest.(check int) "honest records" 1 (List.length records)
   | Error e -> Alcotest.failf "honest VO: %s" (Vo.error_to_string e));
  match verify (List.hd vo :: vo) with
  | Error Vo.Completeness_gap -> ()
  | Error e -> Alcotest.failf "unexpected: %s" (Vo.error_to_string e)
  | Ok records -> Alcotest.failf "accepted with %d records" (List.length records)

(* A gap's region is bound in its node message. Dropping record 10 and the
   gap after it, and widening the gap before it to [0, 25), still
   tiles [0, 200], but the widened gap's APS no longer verifies. *)
let test_continuous_widened_gap () =
  let user = attrs [ "RoleA" ] in
  let vo =
    List.filter_map
      (function
        | Vo.Accessible { record; _ } when record.Record.key = [| 10 |] -> None
        | Vo.Inaccessible_node { region; _ } when region.Box.lo = [| 11 |] -> None
        | Vo.Inaccessible_node ({ region; _ } as gap) when region.Box.hi = [| 10 |] ->
          let region = Box.make ~lo:region.Box.lo ~hi:[| 25 |] in
          Some (Vo.Inaccessible_node { gap with region })
        | e -> Some e)
      (fst (Cont.range_vo drbg ~mvk cont ~user ~lo:0 ~hi:200))
  in
  Alcotest.(check int) "two of seven entries dropped" 5 (List.length vo);
  List.iter
    (fun batch ->
      match verify_cont ~hi:200 vo ?batch () with
      | Error (Vo.Bad_aps_signature _) -> ()
      | Error e -> Alcotest.failf "unexpected: %s" (Vo.error_to_string e)
      | Ok _ -> Alcotest.fail "widened gap accepted")
    [ None; Some (Drbg.create ~seed:"widened-gap") ]

(* Every batch rejection is counted once, whichever verifier saw it. *)
let test_fallback_counted () =
  let counted what verify =
    let before = Metrics.batch_fallbacks () in
    (match verify ?batch:(Some (Drbg.create ~seed:"fallback")) () with
     | Error _ -> ()
     | Ok _ -> Alcotest.failf "%s: tampered VO accepted" what);
    Alcotest.(check int) what 1 (Metrics.batch_fallbacks () - before)
  in
  counted "join" (verify_join (tampered_join ~fault:false));
  counted "continuous" (verify_cont ~hi:200 (tampered_cont ()))

(* One product and one ABS verification per VO. In the AP²G VO the APS
   entries share the super policy and the APPs split into RoleA and RoleC;
   the join's and the continuous query's VOs hold APP and APS entries too. *)
let test_one_product_per_vo () =
  let one what verify =
    let before = T.snapshot () in
    (match verify () with
     | Ok _ -> ()
     | Error e -> Alcotest.failf "%s: %s" what (Vo.error_to_string e));
    let ops = T.ops (T.diff ~earlier:before ~later:(T.snapshot ())) in
    Alcotest.(check (pair int int)) (what ^ ": products, ABS verifications") (1, 1)
      (List.assoc T.Multi_pairing ops, List.assoc T.Abs_verify ops)
  in
  let user = attrs [ "RoleA"; "RoleC" ] in
  let query = Box.of_range ~alpha:[| 0; 0 |] ~beta:[| 7; 7 |] in
  let vo, _ = Ap2g.range_vo drbg ~mvk tree ~user query in
  Alcotest.(check (list string)) "APP policies" [ "RoleA"; "RoleC" ]
    (List.sort_uniq compare
       (List.filter_map
          (function
            | Vo.Accessible { record; _ } -> Some (Expr.to_string record.Record.policy)
            | _ -> None)
          vo));
  one "range" (fun () -> Ap2g.verify ~batch:drbg ~mvk ~t_universe:universe ~user ~query vo);
  let user = attrs [ "RoleA" ] in
  let join, _ = Join.join_vo drbg ~mvk ~r:r_tree ~s:s_tree ~user join_query in
  one "join" (verify_join join ~batch:(Drbg.create ~seed:"join-cost"));
  let cont_vo, _ = Cont.range_vo drbg ~mvk cont ~user ~lo:0 ~hi:200 in
  Alcotest.(check bool) "continuous APP and APS entries" true
    (List.exists (function Vo.Accessible _ -> true | _ -> false) cont_vo
     && List.exists (function Vo.Accessible _ -> false | _ -> true) cont_vo);
  one "continuous" (verify_cont ~hi:200 cont_vo ~batch:(Drbg.create ~seed:"cont-cost"))

(* --- aggregation --- *)

let test_aggregate () =
  let user = attrs [ "RoleA" ] in
  let query = Box.of_range ~alpha:[| 0; 0 |] ~beta:[| 7; 7 |] in
  let vo, _ = Ap2g.range_vo drbg ~mvk tree ~user query in
  let extract (r : Record.t) = float_of_string_opt r.Record.value in
  (match Aggregate.count ~mvk ~tree_universe:universe ~user ~query vo with
   | Ok c ->
     Alcotest.(check int) "count" 2 c.Aggregate.value (* 10.5 and 7.5 records *)
   | Error e -> Alcotest.failf "count: %s" (Vo.error_to_string e));
  (match Aggregate.sum ~mvk ~tree_universe:universe ~user ~query ~extract vo with
   | Ok s -> Alcotest.(check (float 0.001)) "sum" 18.0 s.Aggregate.value
   | Error e -> Alcotest.failf "sum: %s" (Vo.error_to_string e));
  (* Aggregation refuses unverifiable input. *)
  let dropped = List.filter (function Vo.Accessible _ -> false | _ -> true) vo in
  match Aggregate.count ~mvk ~tree_universe:universe ~user ~query dropped with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "aggregate over tampered VO must fail"

(* --- ADS persistence --- *)

let test_ads_roundtrip () =
  let bytes = Ap2g.to_bytes tree in
  (match Ap2g.of_bytes bytes with
   | None -> Alcotest.fail "tree roundtrip failed"
   | Some tree' ->
     let user = attrs [ "RoleA" ] in
     let query = Box.of_range ~alpha:[| 0; 0 |] ~beta:[| 7; 7 |] in
     let vo, _ = Ap2g.range_vo drbg ~mvk tree' ~user query in
     (match Ap2g.verify ~mvk ~t_universe:(Ap2g.universe tree') ~user ~query vo with
      | Ok results -> Alcotest.(check int) "results from loaded tree" 2 (List.length results)
      | Error e -> Alcotest.failf "loaded tree verify: %s" (Vo.error_to_string e)));
  Alcotest.(check bool) "garbage rejected" true (Ap2g.of_bytes "nope" = None)

let test_ads_file_roundtrip () =
  let path = Filename.temp_file "zkqac-test" ".ads" in
  Ads_io.save ~path ~mvk tree;
  (match Ads_io.load ~path with
   | Error e -> Alcotest.failf "load: %s" e
   | Ok (mvk', tree') ->
     Alcotest.(check int) "records preserved" (Ap2g.num_records tree)
       (Ap2g.num_records tree');
     let user = attrs [ "RoleB" ] in
     let query = Box.of_range ~alpha:[| 0; 0 |] ~beta:[| 7; 7 |] in
     let vo, _ = Ap2g.range_vo drbg ~mvk:mvk' tree' ~user query in
     (match Ap2g.verify ~mvk:mvk' ~t_universe:(Ap2g.universe tree') ~user ~query vo with
      | Ok results -> Alcotest.(check int) "loaded results" 1 (List.length results)
      | Error e -> Alcotest.failf "verify: %s" (Vo.error_to_string e)));
  (* Corruption is detected by the checksum. *)
  let data = In_channel.with_open_bin path In_channel.input_all in
  let corrupted = Bytes.of_string data in
  Bytes.set corrupted (Bytes.length corrupted / 2)
    (Char.chr (Char.code (Bytes.get corrupted (Bytes.length corrupted / 2)) lxor 1));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Bytes.to_string corrupted));
  (match Ads_io.load ~path with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "corrupted ADS must be rejected");
  Sys.remove path

(* --- the leakage the paper's Figure 1 motivates --- *)

let records_1d =
  [ (3, "a"); (7, "b"); (12, "c"); (20, "d"); (28, "e"); (40, "f"); (55, "g") ]
  |> List.map (fun (k, v) ->
         Record.make ~key:[| k |] ~value:v ~policy:(Expr.of_string "RoleA"))

let test_no_access_vo_exposes_nothing () =
  (* A user who can access nothing queries the whole 1-D space: the AP2G VO
     shows only opaque region proofs, where a signature chain or a Merkle
     hash tree would have to hand over every record in range. *)
  let hidden =
    List.map
      (fun (r : Record.t) -> { r with Record.policy = Expr.of_string "RoleD" })
      records_1d
  in
  let space1 = Keyspace.create ~dims:1 ~depth:6 in
  let ztree = Ap2g.build drbg ~mvk ~sk ~space:space1 ~universe ~pseudo_seed:"z" hidden in
  let user = attrs [ "RoleA" ] in
  let query = Box.of_range ~alpha:[| 0 |] ~beta:[| 63 |] in
  let zvo, _ = Ap2g.range_vo drbg ~mvk ztree ~user query in
  match Ap2g.verify ~mvk ~t_universe:universe ~user ~query zvo with
  | Ok rs ->
    Alcotest.(check int) "zkqac returns nothing" 0 (List.length rs);
    List.iter
      (function
        | Vo.Accessible _ -> Alcotest.fail "no record should be exposed"
        | Vo.Inaccessible_leaf _ | Vo.Inaccessible_node _ -> ())
      zvo
  | Error e -> Alcotest.failf "zkqac: %s" (Vo.error_to_string e)

let suite =
  [
    ( "features",
      [
        Alcotest.test_case "threshold eval" `Quick test_threshold_eval;
        Alcotest.test_case "threshold expansion semantics" `Quick
          test_threshold_expand_semantics;
        Alcotest.test_case "threshold parser roundtrip" `Quick
          test_threshold_parser_roundtrip;
        Alcotest.test_case "threshold ABS sign/verify/relax" `Quick
          test_threshold_abs_sign_verify;
        Alcotest.test_case "threshold CP-ABE" `Quick test_threshold_cpabe;
        Alcotest.test_case "batch verify accepts" `Quick test_batch_verify_accepts;
        Alcotest.test_case "batch verify rejects" `Quick test_batch_verify_rejects;
        Alcotest.test_case "batch rejects swapped W across policies" `Quick test_batch_swapped_w;
        Alcotest.test_case "batch rejects swapped S row" `Quick test_batch_swapped_row;
        Alcotest.test_case "batched VO verify" `Quick test_batched_vo_verify;
        Alcotest.test_case "two faults: range" `Quick test_two_faults_range;
        Alcotest.test_case "two faults: join" `Quick test_two_faults_join;
        Alcotest.test_case "join rejects trees it cannot verify" `Quick
          test_join_preconditions;
        Alcotest.test_case "two faults: continuous" `Quick test_two_faults_continuous;
        Alcotest.test_case "continuous duplicated entry rejected" `Quick
          test_continuous_duplicated_entry;
        Alcotest.test_case "continuous widened gap rejected" `Quick
          test_continuous_widened_gap;
        Alcotest.test_case "batch fallback counted" `Quick test_fallback_counted;
        Alcotest.test_case "one pairing product per VO" `Quick test_one_product_per_vo;
        Alcotest.test_case "aggregation" `Quick test_aggregate;
        Alcotest.test_case "ads bytes roundtrip" `Quick test_ads_roundtrip;
        Alcotest.test_case "ads file roundtrip" `Quick test_ads_file_roundtrip;
        Alcotest.test_case "no-access user's VO exposes no record" `Quick
          test_no_access_vo_exposes_nothing;
      ] );
  ]
