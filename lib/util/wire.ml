(* Minimal length-prefixed binary writer/reader used by the VO codecs.

   The reader side treats its input as hostile: besides the usual bounds
   checks (raising [Malformed]), every reader carries resource [limits] —
   maximum input size, maximum collection count, maximum nesting depth — so
   that a VO with an inflated length field, a huge element count, or a
   deeply nested structure is rejected up front ([Limit]) instead of driving
   the decoder into pathological allocation or recursion. *)

type writer = Buffer.t

let writer () = Buffer.create 256

let u8 buf v =
  if v < 0 || v > 0xff then invalid_arg "Wire.u8";
  Buffer.add_char buf (Char.chr v)

let max_u32 = 0xffff_ffff

let u32 buf v =
  (* Out-of-range values must be rejected, not silently truncated: a 2^32
     length would otherwise round-trip as 0 and corrupt every later field. *)
  if v < 0 || v > max_u32 then invalid_arg "Wire.u32";
  for i = 3 downto 0 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let u64 buf (v : int64) =
  for i = 7 downto 0 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL)))
  done

let bytes_sub buf s ~off ~len =
  u32 buf len;
  Buffer.add_substring buf s off len

let bytes buf s = bytes_sub buf s ~off:0 ~len:(String.length s)

let int_array buf a =
  u8 buf (Array.length a);
  Array.iter (fun v -> u32 buf v) a

let contents = Buffer.contents

(* --- reader --- *)

type limits = { max_bytes : int; max_collection : int; max_depth : int }

(* Generous production defaults: a multi-GB VO, a million-entry collection
   or a 96-deep recursion is outside anything the system produces; anything
   beyond is an attack or a bug, and either way must fail cleanly. *)
let default_limits = { max_bytes = 1 lsl 30; max_collection = 1 lsl 20; max_depth = 96 }

(* A reader covers the slice [pos, stop) of [data] and never reads past
   [stop]: a checkpoint's body is decoded in place, inside the file it came
   in. *)
type reader = {
  data : string;
  mutable pos : int;
  stop : int;
  limits : limits;
  mutable depth : int;
}

exception Malformed
exception Limit of { what : string; limit : int }

(* Resource-limit hits are the signature of hostile input, so each one goes
   into the always-on flight recorder before the exception unwinds. *)
let limit_hit what limit =
  Zkqac_telemetry.Flight.record ~cat:"wire" ~detail:what ~v:limit "wire.limit";
  raise (Limit { what; limit })

let reader ?(limits = default_limits) ?(off = 0) ?len data =
  let len = Option.value len ~default:(String.length data - off) in
  if off < 0 || len < 0 || off > String.length data - len then invalid_arg "Wire.reader";
  if len > limits.max_bytes then limit_hit "input bytes" limits.max_bytes;
  { data; pos = off; stop = off + len; limits; depth = 0 }

let pos r = r.pos
let remaining r = r.stop - r.pos

let ru8 r =
  if r.pos + 1 > r.stop then raise Malformed;
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let ru32 r =
  if r.pos + 4 > r.stop then raise Malformed;
  let v = ref 0 in
  for _ = 1 to 4 do
    v := (!v lsl 8) lor Char.code r.data.[r.pos];
    r.pos <- r.pos + 1
  done;
  !v

let ru64 r =
  if r.pos + 8 > r.stop then raise Malformed;
  let v = ref 0L in
  for _ = 1 to 8 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code r.data.[r.pos]));
    r.pos <- r.pos + 1
  done;
  !v

(* The offset and length of the next length-prefixed field, skipped
   without copying it. *)
let rslice r =
  let n = ru32 r in
  if n > r.stop - r.pos then raise Malformed;
  let off = r.pos in
  r.pos <- r.pos + n;
  (off, n)

let rbytes r =
  let off, n = rslice r in
  String.sub r.data off n

let rint_array r =
  let n = ru8 r in
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (ru32 r :: acc) in
  Array.of_list (go n [])

(* A u32 collection count, bounded twice over: by the configured maximum,
   and by the bytes actually remaining (every element costs at least one
   byte), so an inflated count fails before its first iteration. *)
let rcount r =
  let n = ru32 r in
  if n > r.limits.max_collection then
    limit_hit "collection count" r.limits.max_collection;
  if n > remaining r then raise Malformed;
  n

(* Depth-guarded recursion for decoders of tree-shaped structures. *)
let nested r f =
  r.depth <- r.depth + 1;
  if r.depth > r.limits.max_depth then
    limit_hit "nesting depth" r.limits.max_depth;
  let v = f () in
  r.depth <- r.depth - 1;
  v

let at_end r = r.pos = r.stop

(* Run a decoding function over hostile bytes, translating every failure
   mode into a typed {!Verify_error.t}: resource bounds to [Limit_exceeded],
   anything else (including exceptions escaping embedded parsers) to
   [Malformed] at the current read position. Trailing bytes are rejected —
   every top-level decoder built on [decode] gets that check for free.
   [off]/[len] pick a slice of [data] to decode; error offsets are relative
   to its start. *)
let decode ?limits ?(off = 0) ?len data f =
  match reader ?limits ~off ?len data with
  | exception Limit { what; limit } ->
    Error (Verify_error.Limit_exceeded { what; limit })
  | r -> (
    match f r with
    | v ->
      if at_end r then Ok v
      else Error (Verify_error.Malformed { offset = r.pos - off })
    | exception Limit { what; limit } ->
      Error (Verify_error.Limit_exceeded { what; limit })
    | exception (Malformed | Invalid_argument _ | Failure _) ->
      Error (Verify_error.Malformed { offset = r.pos - off }))
