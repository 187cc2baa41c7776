(* The query protocol spoken between `zkqac client` and `zkqac serve`.

   One exchange per connection: the client sends a single request frame
   (claimed roles + query box), the server answers with a single response
   frame, both length-prefixed by Sockio and encoded with the
   resource-bounded Wire readers. Responses are typed: besides the VO
   payload there are explicit Overloaded / Deadline statuses, so shedding
   and expiry are protocol outcomes the client can act on (retry with
   backoff) — never a silent hang.

   One envelope version. Every request carries a 64-bit request id after
   its magic string, and every response opens with a footer: the echoed
   request id plus the server-side timing split. A frame under any other
   magic string is Malformed. Request ids are correlation-only: they are
   never hashed into, signed over, or carried inside VO bytes. *)

module Wire = Zkqac_util.Wire
module Box = Zkqac_core.Box

let request_magic = "ZKQAC-REQ-2"
let response_magic = "ZKQAC-RSP-2"

(* A request is small: 8 id bytes, role names and 2·dims u32 corners.
   Anything bigger than this bound is hostile and is refused before
   allocation. *)
let max_request_bytes = 1 lsl 16

(* --- request ids --- *)

let req_id_hex id = Printf.sprintf "%016Lx" id

(* Minting: a splitmix64 step over a per-process random base plus an atomic
   counter — unique within a process run and collision-unlikely across
   processes, which is all a correlation id needs (it carries no authority
   and never enters VO bytes). *)
let splitmix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let mint_base =
  Int64.logxor
    (Int64.of_float (Unix.gettimeofday () *. 1e6))
    (Int64.shift_left (Int64.of_int (Unix.getpid ())) 40)

let mint_ctr = Atomic.make 1

let mint_req_id () =
  let k = Atomic.fetch_and_add mint_ctr 1 in
  let id = splitmix64 (Int64.add mint_base (Int64.of_int k)) in
  (* 0 means "no id" everywhere (flight events, slowlog); never mint it. *)
  if id = 0L then 1L else id

(* --- requests --- *)

type request = { req_id : int64; roles : string list; query : Box.t }

let encode_box w (b : Box.t) =
  let dims = Array.length b.Box.lo in
  Wire.u8 w dims;
  Array.iter (fun v -> Wire.u32 w v) b.Box.lo;
  Array.iter (fun v -> Wire.u32 w v) b.Box.hi

let decode_box r =
  let dims = Wire.ru8 r in
  let corner () = Array.init dims (fun _ -> Wire.ru32 r) in
  let lo = corner () in
  let hi = corner () in
  (* Box.make re-checks the invariants; Invalid_argument becomes Malformed
     through Wire.decode. *)
  Box.make ~lo ~hi

let encode_request { req_id; roles; query } =
  let w = Wire.writer () in
  Wire.bytes w request_magic;
  Wire.u64 w req_id;
  Wire.u32 w (List.length roles);
  List.iter (fun role -> Wire.bytes w role) roles;
  encode_box w query;
  Wire.contents w

let decode_request ?limits data =
  Wire.decode ?limits data @@ fun r ->
  if not (String.equal (Wire.rbytes r) request_magic) then raise Wire.Malformed;
  let req_id = Wire.ru64 r in
  let n = Wire.rcount r in
  let roles = List.init n (fun _ -> Wire.rbytes r) in
  let query = decode_box r in
  { req_id; roles; query }

(* --- responses --- *)

type response =
  | Vo of string  (** the encoded VO — the client verifies it locally *)
  | Overloaded  (** load-shed: the in-flight bound was hit; retry later *)
  | Deadline  (** the server's query deadline expired; retry later *)
  | Bad_request of string  (** the request failed to decode; never retried *)
  | Server_error of string  (** query execution failed on the server *)

let response_code = function
  | Vo _ -> "ok"
  | Overloaded -> "overloaded"
  | Deadline -> "deadline"
  | Bad_request _ -> "bad-request"
  | Server_error _ -> "server-error"

(* Server-side time split, microseconds, clamped into u32 (a stage longer
   than ~71 minutes saturates rather than wraps). [queue_us] is pool queue
   wait, [relax_us] the ABS.Relax batch, [prove_us] the rest of VO
   construction (traversal + direct entries), [encode_us] VO byte encoding,
   [total_us] the whole server-side handling of the request. *)
type timing = {
  queue_us : int;
  relax_us : int;
  prove_us : int;
  encode_us : int;
  total_us : int;
}

let zero_timing =
  { queue_us = 0; relax_us = 0; prove_us = 0; encode_us = 0; total_us = 0 }

let us_of_ns ns =
  if Int64.compare ns 0L <= 0 then 0
  else
    let us = Int64.div ns 1_000L in
    if Int64.compare us (Int64.of_int Wire.max_u32) >= 0 then Wire.max_u32
    else Int64.to_int us

type footer = { f_req_id : int64; f_timing : timing }

let encode_timing w t =
  Wire.u32 w t.queue_us;
  Wire.u32 w t.relax_us;
  Wire.u32 w t.prove_us;
  Wire.u32 w t.encode_us;
  Wire.u32 w t.total_us

let decode_timing r =
  let queue_us = Wire.ru32 r in
  let relax_us = Wire.ru32 r in
  let prove_us = Wire.ru32 r in
  let encode_us = Wire.ru32 r in
  let total_us = Wire.ru32 r in
  { queue_us; relax_us; prove_us; encode_us; total_us }

let timing_json t =
  Zkqac_telemetry.Json.Obj
    [ ("queue_us", Zkqac_telemetry.Json.Int t.queue_us);
      ("relax_us", Zkqac_telemetry.Json.Int t.relax_us);
      ("prove_us", Zkqac_telemetry.Json.Int t.prove_us);
      ("encode_us", Zkqac_telemetry.Json.Int t.encode_us);
      ("total_us", Zkqac_telemetry.Json.Int t.total_us) ]

let encode_response ~footer:{ f_req_id; f_timing } resp =
  let w = Wire.writer () in
  Wire.bytes w response_magic;
  Wire.u64 w f_req_id;
  encode_timing w f_timing;
  (match resp with
  | Vo vo ->
    Wire.u8 w 0;
    Wire.bytes w vo
  | Overloaded -> Wire.u8 w 1
  | Deadline -> Wire.u8 w 2
  | Bad_request detail ->
    Wire.u8 w 3;
    Wire.bytes w detail
  | Server_error detail ->
    Wire.u8 w 4;
    Wire.bytes w detail);
  Wire.contents w

let decode_response ?limits data =
  Wire.decode ?limits data @@ fun r ->
  if not (String.equal (Wire.rbytes r) response_magic) then raise Wire.Malformed;
  let f_req_id = Wire.ru64 r in
  let f_timing = decode_timing r in
  let resp =
    match Wire.ru8 r with
    | 0 -> Vo (Wire.rbytes r)
    | 1 -> Overloaded
    | 2 -> Deadline
    | 3 -> Bad_request (Wire.rbytes r)
    | 4 -> Server_error (Wire.rbytes r)
    | _ -> raise Wire.Malformed
  in
  (resp, { f_req_id; f_timing })
