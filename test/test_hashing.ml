module Sha256 = Zkqac_hashing.Sha256
module Hmac = Zkqac_hashing.Hmac
module Hex = Zkqac_hashing.Hex
module Drbg = Zkqac_hashing.Drbg
module Htf = Zkqac_hashing.Hash_to_field
module B = Zkqac_bigint.Bigint

(* NIST FIPS 180-4 test vectors. *)
let test_sha256_vectors () =
  Alcotest.(check string) "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.hex "");
  Alcotest.(check string) "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.hex "abc");
  Alcotest.(check string) "two blocks"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  Alcotest.(check string) "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex (String.make 1_000_000 'a'))

let test_sha256_incremental () =
  let whole = Sha256.digest "the quick brown fox jumps over the lazy dog" in
  let ctx = Sha256.init () in
  List.iter (Sha256.update ctx)
    [ "the quick "; ""; "brown fox jumps"; " over the lazy dog" ];
  Alcotest.(check string) "incremental" (Hex.encode whole)
    (Hex.encode (Sha256.finalize ctx))

let test_sha256_block_boundaries () =
  (* Exercise all padding paths: lengths around the 55/56/64 byte edges. *)
  List.iter
    (fun n ->
      let s = String.make n 'x' in
      let ctx = Sha256.init () in
      String.iter (fun c -> Sha256.update ctx (String.make 1 c)) s;
      Alcotest.(check string)
        (Printf.sprintf "len %d" n)
        (Hex.encode (Sha256.digest s))
        (Hex.encode (Sha256.finalize ctx)))
    [ 0; 1; 54; 55; 56; 57; 63; 64; 65; 119; 120; 128; 1000 ]

(* Random bytes from a seeded state, so a failure names its input. *)
let random_string st n = String.init n (fun _ -> Char.chr (Random.State.int st 256))

let check_ref name s got =
  Alcotest.(check string) name (Hex.encode (Sha256_ref.digest s)) (Hex.encode got)

(* Against the independent reference: one-shot digests of random lengths,
   [digest_sub] at unaligned offsets, incremental updates split at random
   points, and a copy taken mid-stream that must not disturb its original. *)
let test_sha256_reference () =
  let st = Random.State.make [| 36 |] in
  for i = 1 to 200 do
    let n = if i <= 130 then i - 1 else Random.State.int st 2101 in
    let s = random_string st n in
    check_ref (Printf.sprintf "digest, %d bytes" n) s (Sha256.digest s);
    let pre = Random.State.int st 70 and post = Random.State.int st 70 in
    let framed = random_string st pre ^ s ^ random_string st post in
    check_ref (Printf.sprintf "digest_sub at %d, %d bytes" pre n) s
      (Sha256.digest_sub framed pre n);
    let ctx = Sha256.init () in
    let pos = ref 0 and fork = ref None in
    while !pos < n do
      let step = min (n - !pos) (Random.State.int st 150) in
      Sha256.update ctx (String.sub s !pos step);
      pos := !pos + step;
      if !fork = None && Random.State.bool st then fork := Some (Sha256.copy ctx, !pos)
    done;
    (match !fork with
     | Some (c, at) ->
       Sha256.update c "fork";
       check_ref (Printf.sprintf "copy at %d of %d" at n)
         (String.sub s 0 at ^ "fork") (Sha256.finalize c)
     | None -> ());
    check_ref (Printf.sprintf "incremental, %d bytes" n) s (Sha256.finalize ctx)
  done

(* Inputs that cross the kernel's 64-block (4 KiB) call boundary, whole and
   split, from unaligned offsets. *)
let test_sha256_reference_chunks () =
  let st = Random.State.make [| 4096 |] in
  List.iter
    (fun n ->
      let s = random_string st n in
      check_ref (Printf.sprintf "digest, %d bytes" n) s (Sha256.digest s);
      check_ref (Printf.sprintf "digest_sub at 3, %d bytes" n) s
        (Sha256.digest_sub ("abc" ^ s ^ "z") 3 n);
      let cut = Random.State.int st (n + 1) in
      let ctx = Sha256.init () in
      Sha256.update ctx (String.sub s 0 cut);
      Sha256.update ctx (String.sub s cut (n - cut));
      check_ref (Printf.sprintf "split at %d of %d" cut n) s (Sha256.finalize ctx))
    [ 4032; 4095; 4096; 4097; 4159; 4160; 8191; 8192; 8255; 12_345; 20_000 ]

(* Bad bounds raise before the kernel runs: no compression is counted. *)
let test_sha256_bounds () =
  let module T = Zkqac_telemetry.Telemetry in
  let s = String.make 200 'b' in
  let before = T.get T.Sha256_compress in
  List.iter
    (fun (off, n) ->
      Alcotest.check_raises
        (Printf.sprintf "digest_sub %d %d" off n)
        (Invalid_argument "Sha256.update_sub")
        (fun () -> ignore (Sha256.digest_sub s off n)))
    [ (-1, 10); (0, -1); (0, 201); (136, 65); (201, 0); (-64, 128); (1, max_int);
      (max_int, 1) ];
  Alcotest.(check int) "no compression" before (T.get T.Sha256_compress);
  let ctx = Sha256.init () in
  ignore (Sha256.finalize ctx);
  Alcotest.check_raises "update after finalize"
    (Invalid_argument "Sha256.update: finalized context")
    (fun () -> Sha256.update ctx s)

let test_digest_list_unambiguous () =
  let d1 = Sha256.digest_list [ "ab"; "c" ] in
  let d2 = Sha256.digest_list [ "a"; "bc" ] in
  Alcotest.(check bool) "different" false (String.equal d1 d2)

(* RFC 4231 cases 1-4, 6 and 7 (case 5 truncates the tag); 6 and 7 use a
   131-byte key, longer than a block. Each also runs through one prepared
   key used twice, which must not disturb its pad states. *)
let rfc4231 =
  let big_key = String.make 131 '\xaa' in
  [ ("tc1", String.make 20 '\x0b', "Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
    ("tc2", "Jefe", "what do ya want for nothing?",
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
    ("tc3", String.make 20 '\xaa', String.make 50 '\xdd',
     "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
    ("tc4", Hex.decode "0102030405060708090a0b0c0d0e0f10111213141516171819",
     String.make 50 '\xcd',
     "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
    ("tc6", big_key, "Test Using Larger Than Block-Size Key - Hash Key First",
     "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
    ("tc7", big_key,
     "This is a test using a larger than block-size key and a larger than \
      block-size data. The key needs to be hashed before being used by the \
      HMAC algorithm.",
     "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2") ]

let test_hmac_vector () =
  List.iter
    (fun (name, key, msg, tag) ->
      Alcotest.(check string) ("rfc4231 " ^ name) tag (Hex.encode (Hmac.mac ~key msg));
      let k = Hmac.prepare key in
      Alcotest.(check string) (name ^ " prepared") tag (Hex.encode (Hmac.mac_with k msg));
      Alcotest.(check string) (name ^ " prepared, again") tag
        (Hex.encode (Hmac.mac_with k msg)))
    rfc4231

(* Known answers recorded from a DRBG that padded its key afresh for every
   HMAC: preparing the pad states once per key must not move a byte. *)
let test_drbg_known_answers () =
  let stream =
    [ ("zkqac-kat-seed-a",
       "c9cd0302c9a1546f5c2e59380ba4a282dc938de7772b2b073c45b8a85e3ae0d8a9b7e38f\
        1240422af46a97ac2c973f03ecf2e5409328a438e8322c5eb1a89cf95bdc9d1ae612df4b\
        8edbcbd1d9b1aa0eb3be636d90f7fbade40fb77e2a4635a6e3ebbdb6",
       [ "c9cd0302c9a1546f5c2e59380ba4a282dc938de7772b2b073c45b8a85e3ae0d8";
         "b43d328f5ad0bf76980a8ee60658bc00e69a8bd1bf6425e37d9236144485e5f0"; "a37b3" ]);
      ("",
       "b44299907e4e42aa4fded5d6153e8bac3f35987bbe5fa08865c45339214784a2b1abb053\
        5a59d96a5f096954a5bc670995a4e2e5c3b8fa00c981cf0efcfa7842f78d28e03a27e9e8\
        875738cf79412b1815eda0565a86400d83f8a883441860655409c178",
       [ "b44299907e4e42aa4fded5d6153e8bac3f35987bbe5fa08865c45339214784a2";
         "9571c7e4a5eba0bc5be56f977b719a590a502da6560ce858a7964af22c147e13"; "6633d" ]) ]
  in
  let p = B.of_string "0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff13" in
  List.iter
    (fun (seed, hex100, draws) ->
      (* A fresh instance per length: the first n bytes of one stream. *)
      List.iter
        (fun n ->
          Alcotest.(check string)
            (Printf.sprintf "seed %S, %d bytes" seed n)
            (String.sub hex100 0 (2 * n))
            (Hex.encode (Drbg.generate (Drbg.create ~seed) n)))
        [ 1; 32; 33; 100 ];
      let d = Drbg.create ~seed in
      let first = Drbg.nonzero_bigint d p in
      let second = Drbg.nonzero_bigint d p in
      let small = Drbg.nonzero_bigint d (B.of_int 1000003) in
      let got = List.map B.to_hex [ first; second; small ] in
      Alcotest.(check (list string)) (Printf.sprintf "seed %S, scalars" seed) draws got)
    stream

let test_drbg_deterministic () =
  let d1 = Drbg.create ~seed:"seed" in
  let d2 = Drbg.create ~seed:"seed" in
  let d3 = Drbg.create ~seed:"other" in
  let a = Drbg.generate d1 100 in
  let b2 = Drbg.generate d2 100 in
  let c = Drbg.generate d3 100 in
  Alcotest.(check string) "same seed same stream" (Hex.encode a) (Hex.encode b2);
  Alcotest.(check bool) "different seed" false (String.equal a c);
  let next = Drbg.generate d1 100 in
  Alcotest.(check bool) "stream advances" false (String.equal a next)

let test_drbg_bigint_bounds () =
  let d = Drbg.create ~seed:"bounds" in
  let bound = B.of_string "1000003" in
  for _ = 1 to 200 do
    let v = Drbg.bigint d bound in
    Alcotest.(check bool) "in range" true (B.sign v >= 0 && B.compare v bound < 0)
  done;
  for _ = 1 to 50 do
    let v = Drbg.nonzero_bigint d (B.of_int 2) in
    Alcotest.(check bool) "nonzero" true (B.is_one v)
  done

let test_hex_roundtrip () =
  let s = "\x00\x01\xfe\xff random bytes" in
  Alcotest.(check string) "roundtrip" s (Hex.decode (Hex.encode s));
  Alcotest.check_raises "odd" (Invalid_argument "Hex.decode: odd length")
    (fun () -> ignore (Hex.decode "abc"))

let test_hash_to_field () =
  let p = B.of_string "0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff13" in
  let v1 = Htf.to_zp ~domain:"d1" ~p "hello" in
  let v1' = Htf.to_zp ~domain:"d1" ~p "hello" in
  let v2 = Htf.to_zp ~domain:"d2" ~p "hello" in
  Alcotest.(check bool) "deterministic" true (B.equal v1 v1');
  Alcotest.(check bool) "domain separated" false (B.equal v1 v2);
  Alcotest.(check bool) "in field" true (B.compare v1 p < 0 && B.sign v1 >= 0);
  let l1 = Htf.to_zp_list ~domain:"d" ~p [ "ab"; "c" ] in
  let l2 = Htf.to_zp_list ~domain:"d" ~p [ "a"; "bc" ] in
  Alcotest.(check bool) "list unambiguous" false (B.equal l1 l2)

let suite =
  [
    ( "hashing",
      [
        Alcotest.test_case "sha256 NIST vectors" `Quick test_sha256_vectors;
        Alcotest.test_case "sha256 incremental" `Quick test_sha256_incremental;
        Alcotest.test_case "sha256 block boundaries" `Quick test_sha256_block_boundaries;
        Alcotest.test_case "sha256 vs reference" `Quick test_sha256_reference;
        Alcotest.test_case "sha256 vs reference, 4 KiB calls" `Quick
          test_sha256_reference_chunks;
        Alcotest.test_case "sha256 bounds" `Quick test_sha256_bounds;
        Alcotest.test_case "digest_list unambiguous" `Quick test_digest_list_unambiguous;
        Alcotest.test_case "hmac RFC4231" `Quick test_hmac_vector;
        Alcotest.test_case "drbg known answers" `Quick test_drbg_known_answers;
        Alcotest.test_case "drbg deterministic" `Quick test_drbg_deterministic;
        Alcotest.test_case "drbg bigint bounds" `Quick test_drbg_bigint_bounds;
        Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
        Alcotest.test_case "hash to field" `Quick test_hash_to_field;
      ] );
  ]
