(* Tests for the Appendix E / Section 9.2 extensions, the parallel pool, the
   TPC-H workload generator and the wire format. *)

module Attr = Zkqac_policy.Attr
module Expr = Zkqac_policy.Expr
module Universe = Zkqac_policy.Universe
module Drbg = Zkqac_hashing.Drbg
module Prng = Zkqac_rng.Prng
module Box = Zkqac_core.Box
module Keyspace = Zkqac_core.Keyspace
module Record = Zkqac_core.Record
module Pool = Zkqac_parallel.Pool
module Workload = Zkqac_tpch.Workload
module Rows = Zkqac_tpch.Rows
module Wire = Zkqac_util.Wire

let attrs = Attr.set_of_list

module Mock_backend = (val Zkqac_group.Backend.instantiate Zkqac_group.Backend.Mock)
module Abs = Zkqac_abs.Abs.Make (Mock_backend)
module Ap2g = Zkqac_core.Ap2g.Make (Mock_backend)
module Vo = Zkqac_core.Vo.Make (Mock_backend)
module Dup = Zkqac_core.Duplicates.Make (Mock_backend)
module Cont = Zkqac_core.Continuous.Make (Mock_backend)

let drbg = Drbg.create ~seed:"extensions"
let msk, mvk = Abs.setup drbg
let roles = [ "RoleA"; "RoleB"; "RoleC" ]
let universe = Universe.create roles
let sk = Abs.keygen drbg msk (Universe.attrs universe)

(* --- duplicates: ZK lifting --- *)

let dup_records =
  [
    ([| 1; 1 |], "a0", "RoleA");
    ([| 1; 1 |], "a1", "RoleA");    (* same key, same policy: merged *)
    ([| 1; 1 |], "b0", "RoleB");    (* same key, new policy: virtual axis *)
    ([| 2; 3 |], "c0", "RoleC");
    ([| 2; 3 |], "c1", "RoleA & RoleB");
    ([| 5; 5 |], "d0", "RoleA");
  ]
  |> List.map (fun (key, v, p) -> Record.make ~key ~value:v ~policy:(Expr.of_string p))

let test_dup_merge () =
  let space = Keyspace.create ~dims:2 ~depth:3 in
  let _, merged = Dup.lift ~space dup_records in
  Alcotest.(check int) "merged count" 5 (List.length merged);
  let r11 =
    List.find
      (fun (r : Record.t) ->
        Array.sub r.Record.key 0 2 = [| 1; 1 |]
        && Expr.equal r.Record.policy (Expr.of_string "RoleA"))
      merged
  in
  Alcotest.(check string) "values concatenated" "a0\na1" r11.Record.value

let test_dup_lift_roundtrip () =
  let space = Keyspace.create ~dims:2 ~depth:3 in
  let lifted_space, lifted = Dup.lift ~space dup_records in
  Alcotest.(check int) "one more dim" 3 (Keyspace.dims lifted_space);
  (* All lifted keys distinct. *)
  let keys = List.map (fun (r : Record.t) -> Array.to_list r.Record.key) lifted in
  Alcotest.(check int) "distinct" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  (* Build the ordinary tree over the lifted records and query. *)
  let tree =
    Ap2g.build drbg ~mvk ~sk ~space:lifted_space ~universe ~pseudo_seed:"dup" lifted
  in
  let base_query = Box.of_range ~alpha:[| 0; 0 |] ~beta:[| 7; 7 |] in
  let query = Dup.lift_query ~lifted_space base_query in
  let user = attrs [ "RoleA" ] in
  let vo, _ = Ap2g.range_vo drbg ~mvk tree ~user query in
  match Ap2g.verify ~mvk ~t_universe:universe ~user ~query vo with
  | Error e -> Alcotest.failf "lifted verify: %s" (Vo.error_to_string e)
  | Ok results ->
    (* RoleA can read: merged a0a1 record, and d0 -> 2 records. *)
    Alcotest.(check int) "lifted results" 2 (List.length results)

(* --- duplicates: non-ZK embedded counts --- *)

let test_dup_nonzk () =
  let space = Keyspace.create ~dims:2 ~depth:3 in
  let t = Dup.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"dup2" dup_records in
  let query = Box.of_range ~alpha:[| 0; 0 |] ~beta:[| 7; 7 |] in
  List.iter
    (fun (user, expected) ->
      let vo, _ = Dup.range_vo drbg ~mvk t ~user query in
      match Dup.verify ~mvk ~space ~t_universe:universe ~user ~query vo with
      | Error e -> Alcotest.failf "dup verify: %s" (Vo.error_to_string e)
      | Ok results ->
        Alcotest.(check int) "dup results" expected (List.length results);
        List.iter
          (fun (r : Record.t) ->
            Alcotest.(check int) "stripped key dims" 2 (Array.length r.Record.key))
          results)
    [ (attrs [ "RoleA" ], 3) (* a0, a1, d0 *); (attrs [ "RoleB" ], 1);
      (attrs [ "RoleC" ], 1); (attrs [], 0) ];
  Alcotest.(check bool) "vo size positive" true
    (Vo.size (fst (Dup.range_vo drbg ~mvk t ~user:(attrs [ "RoleA" ]) query)) > 0)

let test_dup_nonzk_omission () =
  let space = Keyspace.create ~dims:2 ~depth:3 in
  let t = Dup.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"dup3" dup_records in
  let query = Box.of_range ~alpha:[| 0; 0 |] ~beta:[| 7; 7 |] in
  let user = attrs [ "RoleA" ] in
  let vo, _ = Dup.range_vo drbg ~mvk t ~user query in
  (* Dropping one duplicate of a group must break the id-completeness. *)
  let dropped = ref false in
  let vo' =
    List.filter
      (fun e ->
        match e with
        (* A unit-cell region is a duplicate that is not its key's last. *)
        | Vo.Accessible { region; _ } when Box.volume region = 1 && not !dropped ->
          dropped := true;
          false
        | Vo.Accessible _ | Vo.Inaccessible_leaf _ | Vo.Inaccessible_node _ -> true)
      vo
  in
  Alcotest.(check bool) "something dropped" true !dropped;
  (match Dup.verify ~mvk ~space ~t_universe:universe ~user ~query vo' with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "duplicate omission must be detected")

(* A duplicate's region is bound in its leaf message. Stretching the first
   duplicate at (1, 1) over the whole virtual axis and dropping the later
   two still tiles the query, but its APP no longer verifies. *)
let test_dup_nonzk_stretched () =
  let space = Keyspace.create ~dims:2 ~depth:3 in
  let t = Dup.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"dup4" dup_records in
  let query = Box.of_range ~alpha:[| 0; 0 |] ~beta:[| 7; 7 |] in
  let user = attrs [ "RoleA" ] in
  let at_11 e =
    let region = Vo.entry_region e in
    region.Box.lo.(0) = 1 && region.Box.lo.(1) = 1
  in
  let vo =
    List.filter_map
      (fun e ->
        match e with
        | Vo.Accessible ({ region; _ } as a) when at_11 e && region.Box.lo.(2) = 0 ->
          let hi = [| 2; 2; Keyspace.side space |] in
          Some (Vo.Accessible { a with region = Box.make ~lo:region.Box.lo ~hi })
        | _ when at_11 e -> None
        | _ -> Some e)
      (fst (Dup.range_vo drbg ~mvk t ~user query))
  in
  Alcotest.(check int) "one entry left at (1, 1)" 1 (List.length (List.filter at_11 vo));
  match Dup.verify ~mvk ~space ~t_universe:universe ~user ~query vo with
  | Error (Vo.Bad_abs_signature _) -> ()
  | Error e -> Alcotest.failf "unexpected: %s" (Vo.error_to_string e)
  | Ok _ -> Alcotest.fail "stretched duplicate accepted"

(* --- continuous attributes --- *)

let cont_records =
  [ (10, "x10", "RoleA"); (25, "x25", "RoleB"); (30, "x30", "RoleA & RoleC");
    (47, "x47", "RoleC"); (100, "x100", "RoleA") ]
  |> List.map (fun (k, v, p) -> Record.make ~key:[| k |] ~value:v ~policy:(Expr.of_string p))

let cont = Cont.build drbg ~mvk ~sk ~universe cont_records

let test_continuous_build () =
  (* n records + (n+1) gaps. *)
  Alcotest.(check int) "signatures" 11 (Cont.num_signatures cont)

let test_continuous_range () =
  List.iter
    (fun (user, lo, hi, expected) ->
      let vo, _ = Cont.range_vo drbg ~mvk cont ~user ~lo ~hi in
      match Cont.verify_range ~mvk ~t_universe:universe ~user ~lo ~hi vo with
      | Error e -> Alcotest.failf "cont verify [%d,%d]: %s" lo hi (Vo.error_to_string e)
      | Ok results ->
        Alcotest.(check int)
          (Printf.sprintf "cont results [%d,%d]" lo hi)
          expected (List.length results))
    [ (attrs [ "RoleA" ], 0, 200, 2); (attrs [ "RoleA" ], 11, 24, 0);
      (attrs [ "RoleB" ], 20, 30, 1); (attrs [], 0, 200, 0);
      (attrs [ "RoleA"; "RoleC" ], 25, 50, 2); (attrs [ "RoleA" ], 101, 500, 0) ]

let test_continuous_omission () =
  let user = attrs [ "RoleA" ] in
  let vo, _ = Cont.range_vo drbg ~mvk cont ~user ~lo:0 ~hi:200 in
  let dropped = List.filter (function Vo.Accessible _ -> false | _ -> true) vo in
  (match Cont.verify_range ~mvk ~t_universe:universe ~user ~lo:0 ~hi:200 dropped with
   | Error Vo.Completeness_gap -> ()
   | Error e -> Alcotest.failf "unexpected: %s" (Vo.error_to_string e)
   | Ok _ -> Alcotest.fail "continuous omission must be detected")

let test_continuous_equality () =
  let user = attrs [ "RoleA" ] in
  (match Cont.equality_vo drbg ~mvk cont ~user 10 with
   | Vo.Accessible { record; _ } ->
     Alcotest.(check string) "value" "x10" record.Record.value
   | _ -> Alcotest.fail "expected accessible");
  (match Cont.equality_vo drbg ~mvk cont ~user 25 with
   | Vo.Inaccessible_leaf _ -> ()
   | _ -> Alcotest.fail "expected inaccessible");
  (match Cont.equality_vo drbg ~mvk cont ~user 26 with
   | Vo.Inaccessible_node { region; _ }
     when Box.equal region (Box.make ~lo:[| 26 |] ~hi:[| 30 |]) -> ()
   | _ -> Alcotest.fail "expected the (25,30) gap");
  match Cont.equality_vo drbg ~mvk cont ~user 1000 with
  | Vo.Inaccessible_node { region; _ }
    when Box.equal region (Box.make ~lo:[| 101 |] ~hi:[| Wire.max_u32 |]) -> ()
  | _ -> Alcotest.fail "expected the trailing gap"

(* Continuous and embedded-duplicate VOs are [Vo.t]s: they round-trip
   through the VO codec and still verify. *)
let test_vo_codec_roundtrip () =
  let roundtrip what vo verify =
    let bytes = Vo.to_bytes vo in
    match Vo.decode bytes with
    | Error e -> Alcotest.failf "%s decode: %s" what (Vo.error_to_string e)
    | Ok decoded ->
      Alcotest.(check string) (what ^ " re-encodes") bytes (Vo.to_bytes decoded);
      (match (verify vo, verify decoded) with
       | Ok a, Ok b ->
         Alcotest.(check int) (what ^ " results") (List.length a) (List.length b)
       | _ -> Alcotest.failf "%s: verify failed" what)
  in
  let user = attrs [ "RoleA" ] in
  roundtrip "continuous"
    (fst (Cont.range_vo drbg ~mvk cont ~user ~lo:0 ~hi:200))
    (Cont.verify_range ~mvk ~t_universe:universe ~user ~lo:0 ~hi:200);
  let space = Keyspace.create ~dims:2 ~depth:3 in
  let t = Dup.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"dup5" dup_records in
  let query = Box.of_range ~alpha:[| 0; 0 |] ~beta:[| 7; 7 |] in
  roundtrip "duplicates"
    (fst (Dup.range_vo drbg ~mvk t ~user query))
    (Dup.verify ~mvk ~space ~t_universe:universe ~user ~query)

(* --- parallel pool --- *)

let test_pool_matches_sequential () =
  let jobs = List.init 100 (fun i () -> i * i) in
  let seq = Pool.map ~threads:1 jobs in
  List.iter
    (fun threads ->
      Alcotest.(check (list int))
        (Printf.sprintf "threads=%d" threads)
        seq
        (Pool.map ~threads jobs))
    [ 2; 3; 4; 8 ]

let test_pool_parallel_relax () =
  (* The actual Section 8.2 usage: parallel VO construction must agree with
     sequential on the verified result. *)
  let space = Keyspace.create ~dims:2 ~depth:3 in
  let records =
    List.init 8 (fun i ->
        Record.make ~key:[| i; (i * 3) mod 8 |] ~value:(string_of_int i)
          ~policy:(Expr.of_string (if i mod 2 = 0 then "RoleA" else "RoleB")))
  in
  let tree = Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"par" records in
  let user = attrs [ "RoleA" ] in
  let query = Box.of_range ~alpha:[| 0; 0 |] ~beta:[| 7; 7 |] in
  let vo_seq, _ = Ap2g.range_vo drbg ~mvk tree ~user query in
  let vo_par, _ =
    Ap2g.range_vo ~pmap:(Pool.map ~threads:4) drbg ~mvk tree ~user query
  in
  Alcotest.(check int) "same entries" (List.length vo_seq) (List.length vo_par);
  match Ap2g.verify ~mvk ~t_universe:universe ~user ~query vo_par with
  | Ok results -> Alcotest.(check int) "parallel results" 4 (List.length results)
  | Error e -> Alcotest.failf "parallel verify: %s" (Vo.error_to_string e)

(* --- TPC-H workload --- *)

let test_workload_policies () =
  let rng = Prng.create 3 in
  let roles, policies = Workload.gen_policies rng Workload.default_policies in
  Alcotest.(check int) "roles" 10 (List.length roles);
  Alcotest.(check int) "policies" 10 (Array.length policies);
  Array.iter
    (fun p ->
      Alcotest.(check bool) "policy length <= 6" true (Expr.num_leaves p <= 6))
    policies

let test_workload_lineitem () =
  let rng = Prng.create 4 in
  let _, policies = Workload.gen_policies rng Workload.default_policies in
  let space = Keyspace.create ~dims:3 ~depth:3 in
  let records = Workload.lineitem_records rng ~space ~rows:500 ~policies in
  Alcotest.(check bool) "non-empty" true (List.length records > 0);
  Alcotest.(check bool) "merged below rows" true (List.length records <= 500);
  let keys = List.map (fun (r : Record.t) -> Array.to_list r.Record.key) records in
  Alcotest.(check int) "distinct keys" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  List.iter
    (fun (r : Record.t) ->
      Alcotest.(check bool) "valid key" true (Keyspace.valid_key space r.Record.key))
    records

let test_workload_query_fraction () =
  let rng = Prng.create 5 in
  let space = Keyspace.create ~dims:3 ~depth:4 in
  List.iter
    (fun frac ->
      let q = Workload.range_query rng ~space ~frac in
      let ratio =
        float_of_int (Box.volume q) /. float_of_int (Keyspace.num_leaves space)
      in
      Alcotest.(check bool)
        (Printf.sprintf "frac %.4f -> %.4f" frac ratio)
        true
        (ratio >= frac /. 8.0 && ratio <= frac *. 8.0 +. 0.01))
    [ 0.001; 0.01; 0.1; 0.5 ]

let test_workload_user_fraction () =
  let rng = Prng.create 6 in
  let roles, policies = Workload.gen_policies rng Workload.default_policies in
  let user = Workload.user_for_fraction rng ~roles ~policies ~frac:0.2 in
  let sat =
    Array.fold_left (fun a p -> if Expr.eval p user then a + 1 else a) 0 policies
  in
  Alcotest.(check bool) "close to 20%" true (sat >= 0 && sat <= 5)

let test_rows () =
  let rng = Prng.create 7 in
  let ls = Rows.lineitems rng ~n:100 ~max_orderkey:25 in
  Alcotest.(check int) "count" 100 (List.length ls);
  List.iter
    (fun (l : Rows.lineitem) ->
      Alcotest.(check bool) "quantity" true (l.Rows.l_quantity >= 1 && l.Rows.l_quantity <= 50);
      Alcotest.(check bool) "discount" true (l.Rows.l_discount >= 0 && l.Rows.l_discount <= 10);
      Alcotest.(check bool) "shipdate" true
        (l.Rows.l_shipdate >= 0 && l.Rows.l_shipdate < Rows.shipdate_days);
      Alcotest.(check bool) "payload has pipes" true
        (String.contains (Rows.lineitem_payload l) '|'))
    ls;
  let os = Rows.orders rng ~n:30 ~max_orderkey:25 in
  Alcotest.(check int) "orders capped by keys" 25 (List.length os);
  let keys = List.map (fun (o : Rows.order) -> o.Rows.o_orderkey) os in
  Alcotest.(check int) "distinct orderkeys" 25 (List.length (List.sort_uniq compare keys))

(* --- wire format --- *)

let test_wire_roundtrip () =
  let w = Wire.writer () in
  Wire.u8 w 42;
  Wire.u32 w 123456;
  Wire.bytes w "hello";
  Wire.int_array w [| 1; 2; 3 |];
  let data = Wire.contents w in
  let r = Wire.reader data in
  Alcotest.(check int) "u8" 42 (Wire.ru8 r);
  Alcotest.(check int) "u32" 123456 (Wire.ru32 r);
  Alcotest.(check string) "bytes" "hello" (Wire.rbytes r);
  Alcotest.(check (list int)) "array" [ 1; 2; 3 ] (Array.to_list (Wire.rint_array r));
  Alcotest.(check bool) "at end" true (Wire.at_end r);
  Alcotest.check_raises "truncated" Wire.Malformed (fun () ->
      ignore (Wire.ru32 (Wire.reader "ab")))

let test_prng_determinism () =
  let a = Prng.create 9 and b = Prng.create 9 in
  Alcotest.(check bool) "same stream" true
    (List.init 50 (fun _ -> Prng.int a 1000) = List.init 50 (fun _ -> Prng.int b 1000));
  let c = Prng.create 10 in
  Alcotest.(check bool) "different seed" false
    (List.init 50 (fun _ -> Prng.int a 1000) = List.init 50 (fun _ -> Prng.int c 1000))

let suite =
  [
    ( "extensions",
      [
        Alcotest.test_case "dup merge" `Quick test_dup_merge;
        Alcotest.test_case "dup lift (ZK)" `Quick test_dup_lift_roundtrip;
        Alcotest.test_case "dup non-ZK" `Quick test_dup_nonzk;
        Alcotest.test_case "dup non-ZK omission" `Quick test_dup_nonzk_omission;
        Alcotest.test_case "dup non-ZK stretched region" `Quick test_dup_nonzk_stretched;
        Alcotest.test_case "continuous build" `Quick test_continuous_build;
        Alcotest.test_case "continuous range" `Quick test_continuous_range;
        Alcotest.test_case "continuous omission" `Quick test_continuous_omission;
        Alcotest.test_case "continuous equality" `Quick test_continuous_equality;
        Alcotest.test_case "continuous and duplicate VO codec" `Quick
          test_vo_codec_roundtrip;
        Alcotest.test_case "pool matches sequential" `Quick test_pool_matches_sequential;
        Alcotest.test_case "pool parallel relax" `Quick test_pool_parallel_relax;
        Alcotest.test_case "workload policies" `Quick test_workload_policies;
        Alcotest.test_case "workload lineitem" `Quick test_workload_lineitem;
        Alcotest.test_case "workload query fraction" `Quick test_workload_query_fraction;
        Alcotest.test_case "workload user fraction" `Quick test_workload_user_fraction;
        Alcotest.test_case "tpch rows" `Quick test_rows;
        Alcotest.test_case "wire roundtrip" `Quick test_wire_roundtrip;
        Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
      ] );
  ]
