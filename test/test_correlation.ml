(* Property tests for the correlation plane's wire contracts: the canonical
   hex id form round-trips, a request id survives the envelope byte-exactly,
   the response footer preserves id + timing split, and there is one
   envelope version: frames under the retired "-1" magics are Malformed. *)

module Proto = Zkqac_server.Proto
module Box = Zkqac_core.Box
module Wire = Zkqac_util.Wire

let qprop name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:500 ~name gen f)

let gen_req_id =
  (* Any id the client could mint: non-zero (0 is "no id" everywhere). *)
  QCheck2.Gen.(map (function 0L -> 1L | id -> id) int64)

let gen_box =
  QCheck2.Gen.(
    int_range 1 4 >>= fun dims ->
    let corner = array_size (return dims) (int_range 0 1000) in
    map2
      (fun lo ext ->
        Box.make ~lo ~hi:(Array.map2 (fun l e -> l + e) lo ext))
      corner corner)

let gen_roles =
  QCheck2.Gen.(
    map (fun n -> List.init n (Printf.sprintf "role-%d")) (int_range 0 6))

let gen_request =
  QCheck2.Gen.(
    map3
      (fun req_id roles query -> { Proto.req_id; roles; query })
      (* 0L is "no id": the server mints one, the envelope is the same. *)
      (frequency [ (1, return 0L); (4, gen_req_id) ])
      gen_roles gen_box)

let gen_timing =
  (* Each field independently anywhere in the encodable u32 range. *)
  let field = QCheck2.Gen.int_range 0 Wire.max_u32 in
  QCheck2.Gen.(
    map3
      (fun (queue_us, relax_us) (prove_us, encode_us) total_us ->
        { Proto.queue_us; relax_us; prove_us; encode_us; total_us })
      (pair field field) (pair field field) field)

let prop_hex_roundtrip =
  qprop "req_id_hex round-trips" QCheck2.Gen.int64 (fun id ->
      Int64.of_string_opt ("0x" ^ Proto.req_id_hex id) = Some id)

let prop_hex_canonical =
  qprop "req_id_hex is 16 lowercase hex digits" QCheck2.Gen.int64 (fun id ->
      let h = Proto.req_id_hex id in
      String.length h = 16
      && String.for_all
           (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
           h)

let prop_request_roundtrip =
  qprop "request envelope round-trips" gen_request (fun r ->
      match Proto.decode_request (Proto.encode_request r) with
      | Ok d ->
        d.Proto.req_id = r.Proto.req_id
        && d.Proto.roles = r.Proto.roles
        && Box.equal d.Proto.query r.Proto.query
      | Error _ -> false)

let prop_request_one_magic =
  (* Every request, with or without an id, opens with the one request
     magic, and the id follows it — never dropped or remapped. *)
  qprop "requests carry the one magic" gen_request (fun r ->
      let rd = Wire.reader (Proto.encode_request r) in
      String.equal (Wire.rbytes rd) "ZKQAC-REQ-2"
      && Wire.ru64 rd = r.Proto.req_id)

let prop_footer_roundtrip =
  qprop "response footer round-trips"
    QCheck2.Gen.(triple gen_req_id gen_timing (string_size (int_range 0 64)))
    (fun (f_req_id, f_timing, payload) ->
      let footer = { Proto.f_req_id; f_timing } in
      match Proto.decode_response (Proto.encode_response ~footer (Proto.Vo payload)) with
      | Ok (Proto.Vo p, f) ->
        p = payload
        && f.Proto.f_req_id = f_req_id
        && f.Proto.f_timing = f_timing
      | _ -> false)

let prop_v1_frames_malformed =
  (* The retired v1 layouts — the magic, then the body with no id and no
     footer — decode to Malformed in both directions. *)
  qprop "v1 frames are malformed"
    QCheck2.Gen.(pair gen_request (string_size (int_range 0 64)))
    (fun (r, payload) ->
      let frame magic body =
        let w = Wire.writer () in
        Wire.bytes w magic;
        body w;
        Wire.contents w
      in
      let req =
        frame "ZKQAC-REQ-1" (fun w ->
            Wire.u32 w (List.length r.Proto.roles);
            List.iter (Wire.bytes w) r.Proto.roles;
            let q = r.Proto.query in
            Wire.u8 w (Array.length q.Box.lo);
            Array.iter (Wire.u32 w) q.Box.lo;
            Array.iter (Wire.u32 w) q.Box.hi)
      in
      let rsp =
        frame "ZKQAC-RSP-1" (fun w ->
            Wire.u8 w 0;
            Wire.bytes w payload)
      in
      let malformed = function
        | Error (Zkqac_util.Verify_error.Malformed _) -> true
        | _ -> false
      in
      malformed (Proto.decode_request req)
      && malformed (Proto.decode_response rsp))

let suite =
  [ ( "correlation",
      [ prop_hex_roundtrip;
        prop_hex_canonical;
        prop_request_roundtrip;
        prop_request_one_magic;
        prop_footer_roundtrip;
        prop_v1_frames_malformed ] ) ]
