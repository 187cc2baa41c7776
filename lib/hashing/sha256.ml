(* SHA-256 per FIPS 180-4. The compression function is the C kernel in
   sha256_stubs.c; this module keeps the chaining words, buffers a partial
   block and pads. *)

(* Eight 32-bit chaining words, one per int. *)
type state = int array

(* [blocks h s off n] compresses the [n] whole 64-byte blocks of [s] from
   [off] into [h]. The kernel trusts its arguments: [compress] below is the
   only caller, and every block it passes has been bounds-checked. *)
external blocks : state -> string -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "zkqac_sha256_blocks_bytecode" "zkqac_sha256_blocks"
  [@@noalloc]

(* Blocks per kernel call: 4 KiB, a few tens of microseconds. A noalloc
   call holds no poll point, so one call over a whole checkpoint would hold
   up every other domain's stop-the-world minor collection until it
   returned. *)
let max_blocks = 64

let compress h s off n =
  Zkqac_telemetry.Telemetry.(bump_n Sha256_compress n);
  let rec go off n =
    if n > 0 then begin
      let c = min n max_blocks in
      blocks h s off c;
      go (off + (64 * c)) (n - c)
    end
  in
  go off n

(* The block buffer, read by the kernel during the call and never kept. *)
let compress_buf h buf = compress h (Bytes.unsafe_to_string buf) 0 1

type ctx = {
  h : state;
  buf : Bytes.t;           (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int;     (* total bytes hashed *)
  mutable finished : bool;
}

let init () =
  {
    h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
         0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    finished = false;
  }

let copy ctx = { ctx with h = Array.copy ctx.h; buf = Bytes.copy ctx.buf }

let update_sub ctx s off n =
  if ctx.finished then invalid_arg "Sha256.update: finalized context";
  if off < 0 || n < 0 || off > String.length s - n then invalid_arg "Sha256.update_sub";
  ctx.total <- ctx.total + n;
  (* Fill a partial block first. *)
  let take = if ctx.buf_len = 0 then 0 else min (64 - ctx.buf_len) n in
  if take > 0 then begin
    Bytes.blit_string s off ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    if ctx.buf_len = 64 then begin
      compress_buf ctx.h ctx.buf;
      ctx.buf_len <- 0
    end
  end;
  (* Then whole blocks straight from [s], and buffer the tail. *)
  if ctx.buf_len = 0 then begin
    let off = off + take and n = n - take in
    let whole = n / 64 in
    compress ctx.h s off whole;
    let rest = n - (64 * whole) in
    Bytes.blit_string s (off + (64 * whole)) ctx.buf 0 rest;
    ctx.buf_len <- rest
  end

let update ctx s = update_sub ctx s 0 (String.length s)

let finalize ctx =
  if ctx.finished then invalid_arg "Sha256.finalize: already finalized";
  ctx.finished <- true;
  let buf = ctx.buf and len = ctx.buf_len in
  Bytes.set buf len '\x80';
  Bytes.fill buf (len + 1) (63 - len) '\000';
  (* No room for the 8-byte length: it goes in one more block. *)
  if len >= 56 then begin
    compress_buf ctx.h buf;
    Bytes.fill buf 0 56 '\000'
  end;
  Bytes.set_int64_be buf 56 (Int64.of_int (ctx.total * 8));
  compress_buf ctx.h buf;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  Bytes.to_string out

let digest_sub s off n =
  let ctx = init () in
  update_sub ctx s off n;
  finalize ctx

let digest s = digest_sub s 0 (String.length s)

let hex s = Hex.encode (digest s)

let digest_list parts =
  let ctx = init () in
  let len = Bytes.create 4 in
  List.iter
    (fun p ->
      Bytes.set_int32_be len 0 (Int32.of_int (String.length p));
      update ctx (Bytes.to_string len);
      update ctx p)
    parts;
  finalize ctx
