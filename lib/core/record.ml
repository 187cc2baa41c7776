module Sha256 = Zkqac_hashing.Sha256
module Expr = Zkqac_policy.Expr
module Attr = Zkqac_policy.Attr

type t = { key : int array; value : string; policy : Expr.t }

let make ~key ~value ~policy = { key; value; policy }

let value_hash v = Sha256.digest_list [ "zkqac-value"; v ]

let key_bytes key =
  let buf = Buffer.create 16 in
  Buffer.add_char buf (Char.chr (Array.length key));
  Array.iter
    (fun k ->
      for i = 7 downto 0 do
        Buffer.add_char buf (Char.chr ((k lsr (8 * i)) land 0xff))
      done)
    key;
  Buffer.contents buf

let message ~key ~value_hash =
  Sha256.digest_list [ "zkqac-key"; key_bytes key ] ^ value_hash

let message_of r = message ~key:r.key ~value_hash:(value_hash r.value)

let node_message box = Sha256.digest_list [ "zkqac-node"; Box.encode box ]

let pseudo ~seed =
  let mac = Zkqac_hashing.Hmac.(mac_with (prepare ("zkqac-pseudo:" ^ seed))) in
  fun ~key -> { key; value = mac (key_bytes key); policy = Expr.Leaf Attr.pseudo_role }
