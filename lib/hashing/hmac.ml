(* HMAC-SHA256 (RFC 2104). Used by the DRBG and by keyed derivation of
   pseudo-record contents.

   A key's ipad and opad blocks are hashed once, into two SHA-256 states;
   each MAC under the key copies them, so it compresses only its message and
   the outer digest. The prepared states are never mutated. *)

let block_size = 64

type key = { inner : Sha256.ctx; outer : Sha256.ctx }

let prepare key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let pad byte =
    let ctx = Sha256.init () in
    Sha256.update ctx
      (String.init block_size (fun i ->
           let k = if i < String.length key then Char.code key.[i] else 0 in
           Char.chr (k lxor byte)));
    ctx
  in
  { inner = pad 0x36; outer = pad 0x5c }

let mac_with k msg =
  let ctx = Sha256.copy k.inner in
  Sha256.update ctx msg;
  let inner = Sha256.finalize ctx in
  let ctx = Sha256.copy k.outer in
  Sha256.update ctx inner;
  Sha256.finalize ctx

let mac ~key msg = mac_with (prepare key) msg
