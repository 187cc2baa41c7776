module Aes = Zkqac_symmetric.Aes128
module Sha256 = Zkqac_hashing.Sha256
module Hmac = Zkqac_hashing.Hmac
module Wire = Zkqac_util.Wire

module Make (P : Zkqac_group.Pairing_intf.PAIRING) = struct
  module C = Cpabe.Make (P)

  type sealed = {
    kem : C.ciphertext;   (* CP-ABE encryption of the KEM element *)
    nonce : string;
    body : string;        (* AES-CTR encrypted payload *)
    tag : string;         (* HMAC-SHA256 over nonce || body *)
  }

  (* Derive AES and MAC keys from the KEM group element. *)
  let keys_of_element elt =
    let seed = Sha256.digest_list [ "zkqac-envelope"; P.Gt.to_bytes elt ] in
    let enc = String.sub (Sha256.digest_list [ "enc"; seed ]) 0 16 in
    let mac = Sha256.digest_list [ "mac"; seed ] in
    (enc, mac)

  let seal drbg pp ~policy payload =
    Zkqac_telemetry.Trace.with_span "envelope.seal" (fun _ ->
        let m = C.random_message drbg pp in
        let kem = C.encrypt drbg pp m ~policy in
        let enc_key, mac_key = keys_of_element m in
        let nonce = Zkqac_hashing.Drbg.generate drbg 12 in
        let body = Aes.ctr ~key:enc_key ~nonce payload in
        let tag = Hmac.mac ~key:mac_key (nonce ^ body) in
        { kem; nonce; body; tag })

  let open_result pp sk sealed =
    Zkqac_telemetry.Trace.with_span "envelope.open" (fun _ ->
        match C.decrypt pp sk sealed.kem with
        | None ->
          Error
            (Zkqac_util.Verify_error.Envelope_open_failed
               "roles do not satisfy the sealing policy")
        | Some m ->
          let enc_key, mac_key = keys_of_element m in
          let expect = Hmac.mac ~key:mac_key (sealed.nonce ^ sealed.body) in
          if not (String.equal expect sealed.tag) then
            Error (Zkqac_util.Verify_error.Digest_mismatch "envelope HMAC tag")
          else Ok (Aes.ctr ~key:enc_key ~nonce:sealed.nonce sealed.body))

  let open_ pp sk sealed = Result.to_option (open_result pp sk sealed)

  let to_bytes sealed =
    let w = Wire.writer () in
    Wire.bytes w (C.ciphertext_to_bytes sealed.kem);
    Wire.bytes w sealed.nonce;
    Wire.bytes w sealed.body;
    Wire.bytes w sealed.tag;
    Wire.contents w

  let decode ?limits data =
    Wire.decode ?limits data @@ fun r ->
    let kem =
      match C.ciphertext_of_bytes (Wire.rbytes r) with
      | Some k -> k
      | None -> raise Wire.Malformed
    in
    let nonce = Wire.rbytes r in
    let body = Wire.rbytes r in
    let tag = Wire.rbytes r in
    { kem; nonce; body; tag }

  let of_bytes data = Result.to_option (decode data)

  let size sealed =
    C.ciphertext_size sealed.kem + String.length sealed.nonce
    + String.length sealed.body + String.length sealed.tag
end
