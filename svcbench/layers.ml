(* Single-layer timings taken from outside, by calling each layer's public
   functions: Zkqac_group arithmetic at the served type-A parameters, at the
   paper's (160-bit r, 512-bit p) and on the mock backend; one fsync'd
   audit append. *)

module Clock = Zkqac_parallel.Monotonic_clock
module Prng = Zkqac_rng.Prng
module Drbg = Zkqac_hashing.Drbg
module Fp = Zkqac_group.Fp
module Curve = Zkqac_group.Curve
module Params = Zkqac_group.Typea_params
module Backend = Zkqac_group.Backend
module Json = Zkqac_telemetry.Json
module Audit = Zkqac_audit.Audit

(* Mean seconds per call of [f], calling it until [min_s] seconds have
   passed (at least once). *)
let per_call ?(min_s = 0.05) f =
  let t0 = Clock.now_ns () in
  let rec go n =
    ignore (Sys.opaque_identity (f ()));
    let el = Clock.elapsed_since t0 in
    if el >= min_s then el /. float_of_int n else go (n + 1)
  in
  go 1

let group ~prefix (params : Params.t) kind =
  let module P = (val Backend.instantiate_raw kind) in
  let r = Prng.create 7 in
  let fp = params.Params.fp in
  let a = Prng.bigint r (Fp.modulus fp) and b = Prng.bigint r (Fp.modulus fp) in
  let drbg = Drbg.create ~seed:"svcbench:group" in
  let g1 = P.rand_g drbg and g2 = P.rand_g drbg and k = P.rand_scalar drbg in
  let pairs = List.init 8 (fun _ -> (P.rand_g drbg, P.rand_g drbg)) in
  [ (prefix ^ "fp_mul_us", "us", 1e6 *. per_call (fun () -> Fp.mul fp a b));
    (prefix ^ "fp_inv_us", "us", 1e6 *. per_call (fun () -> Fp.inv fp a));
    ( prefix ^ "curve_double_us",
      "us",
      1e6 *. per_call (fun () -> Curve.double fp params.Params.g) );
    (prefix ^ "g_pow_ms", "ms", 1e3 *. per_call ~min_s:0.1 (fun () -> P.G.pow g1 k));
    (prefix ^ "pairing_ms", "ms", 1e3 *. per_call ~min_s:0.2 (fun () -> P.e g1 g2));
    ( prefix ^ "e_prod8_ms",
      "ms",
      1e3 *. per_call ~min_s:0.2 (fun () -> P.e_prod pairs) ) ]

let mock_g_pow_us () =
  let module P = (val Backend.instantiate_raw Backend.Mock) in
  let drbg = Drbg.create ~seed:"svcbench:mock" in
  let g = P.rand_g drbg and k = P.rand_scalar drbg in
  1e6 *. per_call (fun () -> P.G.pow g k)

let groups () =
  group ~prefix:"group." (Lazy.force Params.tiny) Backend.Typea_tiny
  @ group ~prefix:"group.paper." (Lazy.force Params.default) Backend.Typea_default
  @ [ ("group.mock.g_pow_us", "us", mock_g_pow_us ()) ]

(* Mean milliseconds of one audit append under durability [Always]. *)
let audit_record_ms ~path =
  (match Audit.enable ~durability:Audit.Always ~path () with
  | Ok () -> ()
  | Error e -> failwith ("audit: " ^ e));
  let n = 200 in
  let t0 = Clock.now_ns () in
  for i = 1 to n do
    Audit.record ~kind:"svcbench" (Json.Obj [ ("i", Json.Int i) ])
  done;
  let el = Clock.elapsed_since t0 in
  Audit.disable ();
  el /. float_of_int n *. 1e3
