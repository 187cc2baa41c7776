(* QCheck property suites over the core data structures and protocols:
   random boxes, random policies, random field/group elements, random
   databases — invariants that must hold for *every* input, not just the
   curated cases of the unit suites. *)

module B = Zkqac_bigint.Bigint
module Attr = Zkqac_policy.Attr
module Expr = Zkqac_policy.Expr
module Universe = Zkqac_policy.Universe
module Drbg = Zkqac_hashing.Drbg
module Prng = Zkqac_rng.Prng
module Box = Zkqac_core.Box
module Keyspace = Zkqac_core.Keyspace
module Record = Zkqac_core.Record
module Aes = Zkqac_symmetric.Aes128
module Fp = Zkqac_group.Fp
module M = Zkqac_group.Fp.Mont
module Fp2 = Zkqac_group.Fp2

module Mock_backend = (val Zkqac_group.Backend.instantiate Zkqac_group.Backend.Mock)
module Abs = Zkqac_abs.Abs.Make (Mock_backend)
module Ap2g = Zkqac_core.Ap2g.Make (Mock_backend)
module Vo = Zkqac_core.Vo.Make (Mock_backend)

let qtest ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

(* --- generators --- *)

let gen_box =
  QCheck2.Gen.(
    let* dims = int_range 1 3 in
    let* corners =
      list_repeat dims (pair (int_range 0 15) (int_range 0 15))
    in
    let lo = Array.of_list (List.map (fun (a, b) -> min a b) corners) in
    let hi = Array.of_list (List.map (fun (a, b) -> max a b + 1) corners) in
    return (Box.make ~lo ~hi))

let gen_box_pair =
  QCheck2.Gen.(
    let* dims = int_range 1 3 in
    let mk =
      let* corners = list_repeat dims (pair (int_range 0 15) (int_range 0 15)) in
      let lo = Array.of_list (List.map (fun (a, b) -> min a b) corners) in
      let hi = Array.of_list (List.map (fun (a, b) -> max a b + 1) corners) in
      return (Box.make ~lo ~hi)
    in
    pair mk mk)

let roles5 = [| "A"; "B"; "C"; "D"; "E" |]

let gen_policy =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let rng = Prng.create seed in
    return (Expr.random rng ~roles:roles5 ~or_fanin:3 ~and_fanin:3))

let gen_attr_set =
  QCheck2.Gen.(
    let* mask = int_range 0 31 in
    return
      (Attr.set_of_list
         (List.filteri (fun i _ -> mask land (1 lsl i) <> 0) (Array.to_list roles5))))

(* --- box properties --- *)

let box_props =
  [
    qtest "subtract partitions" gen_box_pair (fun (a, b) ->
        let pieces = Box.subtract a b in
        let inter = match Box.intersect a b with None -> 0 | Some i -> Box.volume i in
        List.for_all (fun p -> Box.contains_box a p && Box.disjoint p b) pieces
        && List.fold_left (fun acc p -> acc + Box.volume p) 0 pieces
           = Box.volume a - inter);
    qtest "cover union self" gen_box (fun b -> Box.covers_union b [ b ]);
    qtest "exact cover by halves" gen_box (fun b ->
        (* Split along dim 0 if wide enough. *)
        if b.Box.hi.(0) - b.Box.lo.(0) < 2 then true
        else begin
          let mid = (b.Box.lo.(0) + b.Box.hi.(0)) / 2 in
          let l = Box.make ~lo:b.Box.lo ~hi:(Array.mapi (fun i v -> if i = 0 then mid else v) b.Box.hi) in
          let r = Box.make ~lo:(Array.mapi (fun i v -> if i = 0 then mid else v) b.Box.lo) ~hi:b.Box.hi in
          Box.covers_exactly b [ l; r ]
        end);
    qtest "intersect commutes" gen_box_pair (fun (a, b) ->
        match (Box.intersect a b, Box.intersect b a) with
        | None, None -> true
        | Some x, Some y -> Box.equal x y
        | _ -> false);
  ]

(* --- policy properties --- *)

let policy_props =
  [
    qtest "dnf preserves semantics" (QCheck2.Gen.pair gen_policy gen_attr_set)
      (fun (p, a) -> Expr.eval p a = Expr.eval_dnf (Expr.to_dnf p) a);
    qtest "canonical preserves semantics" (QCheck2.Gen.pair gen_policy gen_attr_set)
      (fun (p, a) -> Expr.eval p a = Expr.eval (Expr.canonical p) a);
    qtest "parser roundtrip" gen_policy (fun p ->
        Expr.equal p (Expr.of_string (Expr.to_string p)));
    qtest "monotonicity" (QCheck2.Gen.pair gen_policy gen_attr_set) (fun (p, a) ->
        (* Adding roles never revokes access. *)
        (not (Expr.eval p a))
        || Expr.eval p (Attr.Set.add "E" (Attr.Set.add "A" a)));
    qtest "full set satisfies random policies" gen_policy (fun p ->
        Expr.eval p (Attr.set_of_list (Array.to_list roles5)));
  ]

(* --- field/group properties --- *)

let p61 = B.of_string "2305843009213693951" (* 2^61 - 1, a Mersenne prime *)
let fp_ctx = Fp.create p61

let gen_fp =
  QCheck2.Gen.(
    let* v = int_range 0 1_000_000_000 in
    let* w = int_range 0 1_000_000_000 in
    return (M.of_fp fp_ctx (B.erem (B.add (B.mul (B.of_int v) (B.of_int 1_000_000_007)) (B.of_int w)) p61)))

let gen_fp2 = QCheck2.Gen.(map (fun (a, b) -> Fp2.make a b) (pair gen_fp gen_fp))
let fp2_add (x : Fp2.t) (y : Fp2.t) = Fp2.make (M.add fp_ctx x.re y.re) (M.add fp_ctx x.im y.im)

let field_props =
  [
    qtest "fp2 mul assoc" (QCheck2.Gen.triple gen_fp2 gen_fp2 gen_fp2)
      (fun (x, y, z) ->
        Fp2.equal
          (Fp2.mul fp_ctx (Fp2.mul fp_ctx x y) z)
          (Fp2.mul fp_ctx x (Fp2.mul fp_ctx y z)));
    qtest "fp2 distributes" (QCheck2.Gen.triple gen_fp2 gen_fp2 gen_fp2)
      (fun (x, y, z) ->
        Fp2.equal
          (Fp2.mul fp_ctx x (fp2_add y z))
          (fp2_add (Fp2.mul fp_ctx x y) (Fp2.mul fp_ctx x z)));
    qtest "fp2 inverse" gen_fp2 (fun x ->
        (M.is_zero x.re && M.is_zero x.im) || Fp2.is_one fp_ctx (Fp2.mul fp_ctx x (Fp2.inv fp_ctx x)));
    qtest "fp2 sqr = mul self" gen_fp2 (fun x ->
        Fp2.equal (Fp2.sqr fp_ctx x) (Fp2.mul fp_ctx x x));
    qtest "fp2 conj multiplicative" (QCheck2.Gen.pair gen_fp2 gen_fp2) (fun (x, y) ->
        Fp2.equal
          (Fp2.conj fp_ctx (Fp2.mul fp_ctx x y))
          (Fp2.mul fp_ctx (Fp2.conj fp_ctx x) (Fp2.conj fp_ctx y)));
    qtest "fp sqrt squares back" gen_fp (fun x ->
        match M.sqrt fp_ctx x with
        | None -> true
        | Some r -> M.equal (M.sqr fp_ctx r) x);
  ]

(* --- AES / envelope properties --- *)

let crypto_props =
  [
    qtest "aes block roundtrip" QCheck2.Gen.(pair (string_size (return 16)) (string_size (return 16)))
      (fun (key, block) ->
        let k = Aes.expand_key key in
        String.equal block (Aes.decrypt_block k (Aes.encrypt_block k block)));
    qtest "aes ctr roundtrip" QCheck2.Gen.(pair (string_size (return 16)) (string_size (int_range 0 200)))
      (fun (key, msg) ->
        String.equal msg (Aes.ctr ~key ~nonce:"n" (Aes.ctr ~key ~nonce:"n" msg)));
    qtest "sha256 avalanche" QCheck2.Gen.(string_size (int_range 1 64)) (fun s ->
        let d1 = Zkqac_hashing.Sha256.digest s in
        let flipped =
          String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) s
        in
        not (String.equal d1 (Zkqac_hashing.Sha256.digest flipped)));
  ]

(* --- end-to-end ABS/VO properties over random databases --- *)

let drbg = Drbg.create ~seed:"props"
let msk, mvk = Abs.setup drbg
let universe = Universe.create (Array.to_list roles5)
let sk = Abs.keygen drbg msk (Universe.attrs universe)
let space = Keyspace.create ~dims:2 ~depth:2

let gen_db =
  QCheck2.Gen.(
    let* seed = int_range 0 100_000 in
    let rng = Prng.create seed in
    let n = Prng.int rng 10 in
    let keys = Array.init 16 (fun i -> [| i / 4; i mod 4 |]) in
    Prng.shuffle rng keys;
    return
      (List.init n (fun i ->
           Record.make ~key:keys.(i)
             ~value:(Printf.sprintf "v%d" i)
             ~policy:(Expr.random rng ~roles:roles5 ~or_fanin:2 ~and_fanin:2))))

let gen_db_user_query =
  QCheck2.Gen.(
    let* db = gen_db in
    let* user = gen_attr_set in
    let* x1 = int_range 0 3 and* y1 = int_range 0 3 in
    let* x2 = int_range 0 3 and* y2 = int_range 0 3 in
    let q =
      Box.of_range
        ~alpha:[| min x1 x2; min y1 y2 |]
        ~beta:[| max x1 x2; max y1 y2 |]
    in
    return (db, user, q))

let protocol_props =
  [
    qtest ~count:40 "range protocol sound and complete" gen_db_user_query
      (fun (db, user, query) ->
        let tree = Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"p" db in
        let vo, _ = Ap2g.range_vo drbg ~mvk tree ~user query in
        match Ap2g.verify ~mvk ~t_universe:universe ~user ~query vo with
        | Error _ -> false
        | Ok results ->
          let expected =
            List.filter
              (fun (r : Record.t) ->
                Box.contains_point query r.Record.key && Expr.eval r.Record.policy user)
              db
          in
          List.length expected = List.length results
          && List.for_all
               (fun (e : Record.t) ->
                 List.exists
                   (fun (g : Record.t) ->
                     g.Record.key = e.Record.key && g.Record.value = e.Record.value)
                   results)
               expected);
    qtest ~count:40 "vo codec roundtrip verifies" gen_db_user_query
      (fun (db, user, query) ->
        let tree = Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"q" db in
        let vo, _ = Ap2g.range_vo drbg ~mvk tree ~user query in
        match Vo.of_bytes (Vo.to_bytes vo) with
        | None -> false
        | Some vo' ->
          Result.is_ok (Ap2g.verify ~mvk ~t_universe:universe ~user ~query vo'));
    qtest ~count:30 "batched verify agrees with plain" gen_db_user_query
      (fun (db, user, query) ->
        let tree = Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"r" db in
        let vo, _ = Ap2g.range_vo drbg ~mvk tree ~user query in
        Result.is_ok (Ap2g.verify ~mvk ~t_universe:universe ~user ~query vo)
        = Result.is_ok
            (Ap2g.verify ~batch:drbg ~mvk ~t_universe:universe ~user ~query vo));
    qtest ~count:40 "abs sign/verify over random policies"
      (QCheck2.Gen.pair gen_policy (QCheck2.Gen.string_size (QCheck2.Gen.int_range 0 40)))
      (fun (policy, msg) ->
        let sigma = Abs.sign drbg mvk sk ~msg ~policy in
        Abs.verify mvk ~msg ~policy sigma
        && not (Abs.verify mvk ~msg:(msg ^ "x") ~policy sigma));
    qtest ~count:40 "relax iff inaccessible"
      (QCheck2.Gen.pair gen_policy gen_attr_set)
      (fun (policy, user) ->
        let msg = "m" in
        let sigma = Abs.sign drbg mvk sk ~msg ~policy in
        let keep = Universe.missing universe ~user in
        match Abs.relax drbg mvk sigma ~msg ~policy ~keep with
        | None -> Expr.eval policy user
        | Some r ->
          (not (Expr.eval policy user))
          && Abs.verify mvk ~msg ~policy:(Abs.relaxed_policy keep) r);
  ]

let suite =
  [ ("properties", box_props @ policy_props @ field_props @ crypto_props @ protocol_props) ]
