(* Wire-format hardening: u32 range checks, malformed-input rejection, and
   fuzzing of the VO codec. A corrupted VO must decode to None or fail
   verification — never crash, loop, or verify with different records. *)

module Wire = Zkqac_util.Wire
module Expr = Zkqac_policy.Expr
module Attr = Zkqac_policy.Attr
module Universe = Zkqac_policy.Universe
module Drbg = Zkqac_hashing.Drbg
module Box = Zkqac_core.Box
module Keyspace = Zkqac_core.Keyspace
module Record = Zkqac_core.Record

module Mock_backend = (val Zkqac_group.Backend.instantiate Zkqac_group.Backend.Mock)
module Abs = Zkqac_abs.Abs.Make (Mock_backend)
module Ap2g = Zkqac_core.Ap2g.Make (Mock_backend)
module Vo = Zkqac_core.Vo.Make (Mock_backend)

(* --- u32 range checking --- *)

let roundtrip_u32 v =
  let w = Wire.writer () in
  Wire.u32 w v;
  let r = Wire.reader (Wire.contents w) in
  let v' = Wire.ru32 r in
  Alcotest.(check int) (Printf.sprintf "u32 %#x" v) v v';
  Alcotest.(check bool) "consumed" true (Wire.at_end r)

let test_u32_roundtrip () =
  List.iter roundtrip_u32 [ 0; 1; 0xff; 0x1_0000; 0xffff_ffff ]

let test_u32_out_of_range () =
  let rejects v =
    match Wire.u32 (Wire.writer ()) v with
    | () -> Alcotest.failf "u32 %#x: expected Invalid_argument" v
    | exception Invalid_argument _ -> ()
  in
  rejects (-1);
  rejects 0x1_0000_0000;
  rejects max_int

(* --- malformed reader input --- *)

let test_malformed_reads () =
  let raises_malformed name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Wire.Malformed" name
    | exception Wire.Malformed -> ()
  in
  raises_malformed "ru32 truncated" (fun () -> Wire.ru32 (Wire.reader "\x00\x01"));
  raises_malformed "ru8 empty" (fun () -> Wire.ru8 (Wire.reader ""));
  (* Length prefix claims more bytes than the payload holds. *)
  raises_malformed "rbytes inflated" (fun () ->
      Wire.rbytes (Wire.reader "\x00\x00\x00\x10abc"));
  (* Huge length prefix must not attempt a giant allocation-and-crash. *)
  raises_malformed "rbytes huge" (fun () ->
      Wire.rbytes (Wire.reader "\xff\xff\xff\xffabc"))

(* A reader over a slice stops at the slice's end, whatever follows it. *)
let test_slice_reads () =
  let data = "xx\x00\x00\x00\x02abcd" in
  let r = Wire.reader ~off:2 ~len:6 data in
  Alcotest.(check string) "field" "ab" (Wire.rbytes r);
  Alcotest.(check bool) "at the slice end" true (Wire.at_end r);
  (match Wire.ru8 r with
   | _ -> Alcotest.fail "read past the slice"
   | exception Wire.Malformed -> ());
  (match Wire.rbytes (Wire.reader ~off:2 ~len:7 "xx\x00\x00\x00\x04abcd") with
   | _ -> Alcotest.fail "a field ran past the slice"
   | exception Wire.Malformed -> ());
  Alcotest.(check bool) "trailing byte in the slice" true
    (Wire.decode ~off:2 ~len:7 data Wire.rbytes = Error (Zkqac_util.Verify_error.Malformed { offset = 6 }))

(* --- VO codec fuzzing --- *)

let drbg = Drbg.create ~seed:"wire-fuzz"
let msk, mvk = Abs.setup drbg
let universe = Universe.create [ "RoleA"; "RoleB" ]
let sk = Abs.keygen drbg msk (Universe.attrs universe)
let space = Keyspace.create ~dims:2 ~depth:2

let tree =
  let rec_ k v p = Record.make ~key:k ~value:v ~policy:(Expr.of_string p) in
  Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"fuzz"
    [ rec_ [| 0; 0 |] "a" "RoleA";
      rec_ [| 1; 2 |] "b" "RoleA & RoleB";
      rec_ [| 3; 3 |] "c" "RoleB" ]

let user = Attr.set_of_list [ "RoleA" ]
let query = Box.of_range ~alpha:[| 0; 0 |] ~beta:[| 3; 3 |]

let baseline_vo, baseline_records =
  let vo, _ = Ap2g.range_vo drbg ~mvk tree ~user query in
  match Ap2g.verify ~mvk ~t_universe:universe ~user ~query vo with
  | Ok records -> (Vo.to_bytes vo, records)
  | Error e -> Alcotest.failf "baseline VO must verify: %s" (Vo.error_to_string e)

let same_records rs =
  List.length rs = List.length baseline_records
  && List.for_all2
       (fun (a : Record.t) (b : Record.t) ->
         a.Record.key = b.Record.key && a.Record.value = b.Record.value)
       rs baseline_records

(* The fuzz property: a mutated byte string either fails to decode, fails
   verification, or (if the mutation landed in ignored padding) verifies to
   exactly the baseline records. Anything else — an exception escaping, or a
   verified answer with different records — is a bug. *)
let check_mutated name bytes =
  match Vo.of_bytes bytes with
  | None -> ()
  | Some vo -> (
    match Ap2g.verify ~mvk ~t_universe:universe ~user ~query vo with
    | Error _ -> ()
    | Ok records ->
      if not (same_records records) then
        Alcotest.failf "%s: corrupted VO verified with different records" name)
  | exception e ->
    Alcotest.failf "%s: decode raised %s (must return None)" name
      (Printexc.to_string e)

let test_vo_truncation () =
  let n = String.length baseline_vo in
  (* Every prefix would be slow on a multi-KB VO; stride through them and
     always include the boundary cases. *)
  let stride = max 1 (n / 97) in
  let cut = ref 0 in
  while !cut < n do
    check_mutated
      (Printf.sprintf "truncate@%d" !cut)
      (String.sub baseline_vo 0 !cut);
    cut := !cut + stride
  done;
  check_mutated "truncate@n-1" (String.sub baseline_vo 0 (n - 1))

let test_vo_bitflips () =
  let n = String.length baseline_vo in
  (* Deterministic sample of positions so failures reproduce. *)
  let prng = ref 0x2545F491 in
  let next () =
    prng := (!prng * 1103515245 + 12345) land 0x3FFFFFFF;
    !prng
  in
  for _ = 1 to 120 do
    let pos = next () mod n in
    let bit = next () mod 8 in
    let b = Bytes.of_string baseline_vo in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
    check_mutated
      (Printf.sprintf "bitflip@%d.%d" pos bit)
      (Bytes.to_string b)
  done

let test_vo_inflation () =
  (* Trailing garbage after a well-formed VO must be rejected. *)
  check_mutated "append garbage" (baseline_vo ^ "garbage");
  check_mutated "append zeros" (baseline_vo ^ String.make 64 '\x00');
  (* Inflate the leading entry count so the decoder wants more entries than
     the payload provides. *)
  let b = Bytes.of_string baseline_vo in
  Bytes.set b 3 (Char.chr ((Char.code (Bytes.get b 3) + 1) land 0xff));
  check_mutated "inflated count" (Bytes.to_string b)

let suite =
  [ ( "wire",
      [ Alcotest.test_case "u32 round-trip" `Quick test_u32_roundtrip;
        Alcotest.test_case "u32 out of range" `Quick test_u32_out_of_range;
        Alcotest.test_case "malformed reads" `Quick test_malformed_reads;
        Alcotest.test_case "slice reads" `Quick test_slice_reads;
        Alcotest.test_case "vo truncation" `Quick test_vo_truncation;
        Alcotest.test_case "vo bit flips" `Quick test_vo_bitflips;
        Alcotest.test_case "vo inflation" `Quick test_vo_inflation ] ) ]
