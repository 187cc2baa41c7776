(* HMAC_DRBG (NIST SP 800-90A, SHA-256 instantiation, no reseeding).

   This is the source of the "random values" the paper's cryptographic
   algorithms draw (ABS nonces, CP-ABE secrets, re-randomizers). Being
   deterministic in the seed makes every protocol run replayable. *)

module B = Zkqac_bigint.Bigint

(* [key] is the current HMAC key, held with its pad states prepared
   (SP 800-90A's K); the output bytes are those of the plain RFC 2104 MAC. *)
type t = { mutable key : Hmac.key; mutable v : string }

let create ~seed =
  let t = { key = Hmac.prepare (String.make 32 '\000'); v = String.make 32 '\x01' } in
  let update provided =
    t.key <- Hmac.prepare (Hmac.mac_with t.key (t.v ^ "\x00" ^ provided));
    t.v <- Hmac.mac_with t.key t.v;
    if provided <> "" then begin
      t.key <- Hmac.prepare (Hmac.mac_with t.key (t.v ^ "\x01" ^ provided));
      t.v <- Hmac.mac_with t.key t.v
    end
  in
  update seed;
  t

let generate t n =
  let buf = Bytes.create n in
  let pos = ref 0 in
  while !pos < n do
    t.v <- Hmac.mac_with t.key t.v;
    let take = min 32 (n - !pos) in
    Bytes.blit_string t.v 0 buf !pos take;
    pos := !pos + take
  done;
  t.key <- Hmac.prepare (Hmac.mac_with t.key (t.v ^ "\x00"));
  t.v <- Hmac.mac_with t.key t.v;
  Bytes.unsafe_to_string buf

let bigint t bound =
  if B.compare bound B.zero <= 0 then invalid_arg "Drbg.bigint";
  let nb = B.num_bits bound in
  let nbytes = (nb + 7) / 8 in
  let topbits = nb - ((nbytes - 1) * 8) in
  let rec draw () =
    let s = Bytes.of_string (generate t nbytes) in
    let m = (1 lsl topbits) - 1 in
    Bytes.set s 0 (Char.chr (Char.code (Bytes.get s 0) land m));
    let v = B.of_bytes_be (Bytes.unsafe_to_string s) in
    if B.compare v bound < 0 then v else draw ()
  in
  draw ()

let nonzero_bigint t bound =
  let rec draw () =
    let v = bigint t bound in
    if B.is_zero v then draw () else v
  in
  draw ()
