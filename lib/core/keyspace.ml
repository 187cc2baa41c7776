type t = { dims : int; depth : int }

let create ~dims ~depth =
  if dims < 1 then invalid_arg "Keyspace.create: dims < 1";
  if depth < 0 then invalid_arg "Keyspace.create: depth < 0";
  (* The codecs write each coordinate as a u32, the whole space's upper
     corner (2^depth) included. *)
  if depth >= 32 then invalid_arg "Keyspace.create: depth >= 32 (coordinates are u32)";
  if dims * depth > 60 then invalid_arg "Keyspace.create: space too large";
  { dims; depth }

let dims t = t.dims
let depth t = t.depth
let side t = 1 lsl t.depth
let num_leaves t = 1 lsl (t.dims * t.depth)

let whole t =
  Box.make ~lo:(Array.make t.dims 0) ~hi:(Array.make t.dims (side t))

let valid_key t key =
  Array.length key = t.dims && Array.for_all (fun k -> k >= 0 && k < side t) key

(* A grid cell has equal power-of-two extent in every dimension and is
   aligned to that extent. *)
let cell_extent t box =
  let e = box.Box.hi.(0) - box.Box.lo.(0) in
  let ok =
    e > 0
    && e land (e - 1) = 0
    && Array.for_all2 (fun l h -> h - l = e && l mod e = 0) box.Box.lo box.Box.hi
    && e <= side t
  in
  if ok then Some e else None

let children_boxes t box =
  match cell_extent t box with
  | None -> invalid_arg "Keyspace.children_boxes: not a grid cell"
  | Some 1 -> []
  | Some e ->
    let half = e / 2 in
    let n = 1 lsl t.dims in
    List.init n (fun mask ->
        let lo =
          Array.mapi
            (fun d l -> if mask land (1 lsl d) <> 0 then l + half else l)
            box.Box.lo
        in
        let hi = Array.map (fun l -> l + half) lo in
        Box.make ~lo ~hi)

let is_unit box = Array.for_all2 (fun l h -> h - l = 1) box.Box.lo box.Box.hi
let key_of_unit box = Array.copy box.Box.lo
