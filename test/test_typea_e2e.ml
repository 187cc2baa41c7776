(* End-to-end protocol smoke tests on the *real* Tate-pairing backend: the
   full mock-backend core suite is exercised at scale elsewhere; here a small
   database goes through ADS generation, range query, relaxation and
   verification with genuine 95-bit-field pairings, validating that nothing
   in the system depends on mock-specific behaviour. *)

module Attr = Zkqac_policy.Attr
module Expr = Zkqac_policy.Expr
module Universe = Zkqac_policy.Universe
module Drbg = Zkqac_hashing.Drbg
module Box = Zkqac_core.Box
module Keyspace = Zkqac_core.Keyspace
module Record = Zkqac_core.Record

let attrs = Attr.set_of_list

module Typea_backend = (val Zkqac_group.Backend.instantiate Zkqac_group.Backend.Typea_tiny)
module Abs = Zkqac_abs.Abs.Make (Typea_backend)
module Ap2g = Zkqac_core.Ap2g.Make (Typea_backend)
module Vo = Zkqac_core.Vo.Make (Typea_backend)

let drbg = Drbg.create ~seed:"typea-e2e"
let msk, mvk = Abs.setup drbg
let roles = [ "RoleA"; "RoleB" ]
let universe = Universe.create roles
let sk = Abs.keygen drbg msk (Universe.attrs universe)
let space = Keyspace.create ~dims:1 ~depth:2 (* 4 cells: 7 signatures *)

let records =
  [ Record.make ~key:[| 0 |] ~value:"va" ~policy:(Expr.of_string "RoleA");
    Record.make ~key:[| 2 |] ~value:"vb" ~policy:(Expr.of_string "RoleA & RoleB") ]

let tree = Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"te" records

let run_query user query =
  let vo, _ = Ap2g.range_vo drbg ~mvk tree ~user query in
  (vo, Ap2g.verify ~mvk ~t_universe:universe ~user ~query vo)

let test_real_pairing_range () =
  let query = Box.of_range ~alpha:[| 0 |] ~beta:[| 3 |] in
  (match run_query (attrs [ "RoleA" ]) query with
   | _, Ok results -> Alcotest.(check int) "RoleA sees 1" 1 (List.length results)
   | _, Error e -> Alcotest.failf "verify: %s" (Vo.error_to_string e));
  (match run_query (attrs [ "RoleA"; "RoleB" ]) query with
   | _, Ok results -> Alcotest.(check int) "RoleA+B sees 2" 2 (List.length results)
   | _, Error e -> Alcotest.failf "verify: %s" (Vo.error_to_string e));
  match run_query (attrs []) query with
  | vo, Ok results ->
    Alcotest.(check int) "no roles sees 0" 0 (List.length results);
    (* Everything collapses into aggregate proofs. *)
    Alcotest.(check bool) "only inaccessibility proofs" true
      (List.for_all (function Vo.Accessible _ -> false | _ -> true) vo)
  | _, Error e -> Alcotest.failf "verify: %s" (Vo.error_to_string e)

let test_real_pairing_tamper () =
  let query = Box.of_range ~alpha:[| 0 |] ~beta:[| 3 |] in
  let user = attrs [ "RoleA" ] in
  let vo, _ = Ap2g.range_vo drbg ~mvk tree ~user query in
  let tampered =
    List.map
      (function
        | Vo.Accessible { region; record; app } ->
          Vo.Accessible
            { region; record = { record with Record.value = "forged" }; app }
        | e -> e)
      vo
  in
  match Ap2g.verify ~mvk ~t_universe:universe ~user ~query tampered with
  | Error (Vo.(Bad_abs_signature _ | Bad_aps_signature _)) -> ()
  | Error e -> Alcotest.failf "unexpected: %s" (Vo.error_to_string e)
  | Ok _ -> Alcotest.fail "tampering must fail on the real pairing too"

let test_real_pairing_batched () =
  let query = Box.of_range ~alpha:[| 0 |] ~beta:[| 3 |] in
  let user = attrs [ "RoleA" ] in
  let vo, _ = Ap2g.range_vo drbg ~mvk tree ~user query in
  match Ap2g.verify ~batch:drbg ~mvk ~t_universe:universe ~user ~query vo with
  | Ok results -> Alcotest.(check int) "batched on typea" 1 (List.length results)
  | Error e -> Alcotest.failf "batched verify: %s" (Vo.error_to_string e)

(* --- the SP's trust boundary: its own elements skip the subgroup check --- *)

module Ads_io = Zkqac_core.Ads_io.Make (Typea_backend)
module E = Zkqac_util.Verify_error

let rec find_node (n : Ap2g.Vo.node) box =
  if Box.equal n.box box then Some n
  else
    match n.content with
    | Children c -> List.find_map (fun c -> find_node c box) c
    | Leaf _ | Pseudo | Group _ -> None

let index_of hay needle =
  let nn = String.length needle in
  let rec go i =
    if i + nn > String.length hay then Alcotest.fail "signature not in the body"
    else if String.sub hay i nn = needle then i
    else go (i + 1)
  in
  go 0

(* The 2-torsion point (0, 0): on the curve, outside the order-r
   subgroup. *)
let torsion =
  "\002" ^ String.make (String.length (Typea_backend.G.to_bytes Typea_backend.G.g) - 1) '\000'

(* The tree as the SP loads it from a checkpoint in which the Y of the
   node at [box] is the torsion point, with both digests recomputed. *)
let served_with_torsion_at box =
  let node = Option.get (find_node (Ap2g.root tree) box) in
  let sigma = Abs.to_bytes (Abs.of_stored node.signature) in
  let body = Bytes.of_string (Ap2g.to_bytes tree) in
  (* Y follows the u16 tau length and the tau. *)
  let tau_len = (Char.code sigma.[0] lsl 8) lor Char.code sigma.[1] in
  let y = index_of (Bytes.to_string body) sigma + 2 + tau_len in
  Bytes.blit_string torsion 0 body y (String.length torsion);
  let patched = Result.get_ok (Ap2g.decode (Bytes.to_string body)) in
  let path = Filename.temp_file "zkqac-torsion" ".zkqac" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Ads_io.save ~path ~mvk patched;
      match Ads_io.load ~path with
      | Ok (_, served) -> served
      | Error e -> Alcotest.failf "the checkpoint did not load: %s" e)

(* Every VO whose walk answers the node is rejected by the client, batched
   and unbatched, with a typed error: [Malformed] where the torsion point
   reaches the VO, or a signature error where a relax's even power cleared
   it to the identity. Every other VO verifies. Once for an APS relaxed
   from the node ([2, 4) for RoleA), once for an accessible leaf (key 2
   for RoleA and RoleB). *)
let test_torsion_point_rejected () =
  Alcotest.(check bool) "the client's decode refuses it" true
    (Typea_backend.G.of_bytes torsion = None);
  Alcotest.(check bool) "the SP's decode takes it" true
    (Typea_backend.G.of_bytes_unchecked torsion <> None);
  List.iter
    (fun (lo, hi, roles) ->
      let node = Box.make ~lo:[| lo |] ~hi:[| hi |] and user = attrs roles in
      let served = served_with_torsion_at node in
      for a = 0 to 3 do
        for b = a to 3 do
          let query = Box.of_range ~alpha:[| a |] ~beta:[| b |] in
          let drbg = Drbg.create ~seed:(Printf.sprintf "torsion %d %d %d" lo a b) in
          let vo, _ = Ap2g.range_vo drbg ~mvk served ~user query in
          let bytes = Ap2g.Vo.to_bytes vo in
          List.iter
            (fun batch ->
              let verdict =
                match Ap2g.Vo.decode bytes with
                | Error e -> Error e
                | Ok vo -> Ap2g.verify ?batch ~mvk ~t_universe:universe ~user ~query vo
                | exception e -> Alcotest.failf "the client raised %s" (Printexc.to_string e)
              in
              let what = Printf.sprintf "node [%d, %d), query [%d, %d]" lo hi a b in
              match (Box.intersects query node, verdict) with
              | true, Error (E.Malformed _ | E.Bad_abs_signature _ | E.Bad_aps_signature _)
              | false, Ok _ ->
                ()
              | true, Ok _ -> Alcotest.failf "%s: accepted" what
              | _, Error e -> Alcotest.failf "%s: %s" what (E.to_string e))
            [ None; Some (Zkqac_core.System.batch_weights bytes) ]
        done
      done)
    [ (2, 4, [ "RoleA" ]); (2, 3, [ "RoleA"; "RoleB" ]) ]

(* One stored node relaxed by 50 jobs on two domains: each job decodes the
   signature for itself, so every relaxed signature verifies. *)
let test_stored_relax_two_domains () =
  let loaded = Result.get_ok (Ap2g.decode (Ap2g.to_bytes tree)) in
  let root = Ap2g.root loaded and user = attrs [] in
  let keep = Expr.attrs (Ap2g.super_policy_for loaded ~user) in
  let drbg = Drbg.create ~seed:"two domains" in
  let jobs = List.init 50 (fun _ -> Ap2g.Vo.aps_job drbg ~mvk `Plain ~keep root) in
  List.iteri
    (fun i entry ->
      match Ap2g.verify ~mvk ~t_universe:universe ~user ~query:root.box [ entry ] with
      | Ok [] -> ()
      | Ok _ -> Alcotest.failf "job %d: records returned" i
      | Error e -> Alcotest.failf "job %d: %s" i (E.to_string e))
    (Zkqac_parallel.Pool.map ~threads:2 jobs)

let suite =
  [
    ( "typea-e2e",
      [
        Alcotest.test_case "range on real pairing" `Slow test_real_pairing_range;
        Alcotest.test_case "tamper on real pairing" `Slow test_real_pairing_tamper;
        Alcotest.test_case "batched verify on real pairing" `Slow test_real_pairing_batched;
        Alcotest.test_case "SP checkpoint with a torsion point: client rejects" `Slow
          test_torsion_point_rejected;
        Alcotest.test_case "one stored node relaxed on two domains" `Slow
          test_stored_relax_two_domains;
      ] );
  ]
