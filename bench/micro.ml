(* Micro-benchmarks of the cryptographic primitives, per backend, and the
   paired overhead gates of the telemetry wrapper, the flight recorder and
   GC-pause attribution.
   These underpin every table: e.g. Table 2 is a direct consequence of how
   Sign/Verify/Relax scale with predicate size. Every figure is a median
   over timed blocks on the monotonic clock ([Pool.time]), with the
   statistics svcbench uses ([Svcbench.Stats]). The primitives table also
   goes into BENCH.json as the [primitives] series, one row per backend and
   operation. *)

module Pool = Zkqac_parallel.Pool
module Stats = Svcbench.Stats
module Json = Zkqac_telemetry.Json
module Rte = Zkqac_telemetry.Rte
module Expr = Zkqac_policy.Expr
module Attr = Zkqac_policy.Attr
module Universe = Zkqac_policy.Universe
module Drbg = Zkqac_hashing.Drbg
module Htf = Zkqac_hashing.Hash_to_field
module Sha256 = Zkqac_hashing.Sha256

(* Seconds to run [run iters]. *)
let block run iters = snd (Pool.time (fun () -> run iters))

let repeat f iters =
  for _ = 1 to iters do
    f ()
  done

(* Median per-op seconds of [f] over 7 timed blocks, each long enough
   (>= 20 ms, or one op) to dwarf the clock read. *)
let per_op f =
  let rec calibrate iters =
    if iters >= 1 lsl 20 || block (repeat f) iters >= 0.02 then iters
    else calibrate (2 * iters)
  in
  let iters = calibrate 1 in
  Stats.median
    (List.init 7 (fun _ -> block (repeat f) iters /. float_of_int iters))

module Make (P : Zkqac_group.Pairing_intf.PAIRING) = struct
  module Abs = Zkqac_abs.Abs.Make (P)

  let rows () =
    let drbg = Drbg.create ~seed:("micro:" ^ P.name) in
    let msk, mvk = Abs.setup drbg in
    let roles = Universe.roles ~prefix:"R" 10 in
    let universe = Universe.create roles in
    let sk = Abs.keygen drbg msk (Universe.attrs universe) in
    let policy = Expr.of_string "(R0 & R1) | (R2 & R3) | (R4 & R5)" in
    let msg = "micro-benchmark message" in
    let sigma = Abs.sign drbg mvk sk ~msg ~policy in
    let user = Attr.set_of_list [ "R8"; "R9" ] in
    let keep = Universe.missing universe ~user in
    let g1 = P.rand_g drbg and g2 = P.rand_g drbg in
    let k = P.rand_scalar drbg in
    let t1 = P.G.precompute g1 in
    let z1 = P.e g1 g2 and z2 = P.e g2 g2 in
    let enc = P.G.to_bytes g1 in
    let sigma_bytes = Abs.to_bytes sigma and stored = Abs.store sigma in
    let bulk = Drbg.generate drbg 65536 in
    List.map
      (fun (op, f) -> (P.name, op, per_op f))
      [
        ("pairing", fun () -> ignore (P.e g1 g2));
        ("g-exp", fun () -> ignore (P.G.pow g1 k));
        ("g-exp-table", fun () -> ignore (P.G.pow_prod [ (t1, k) ]));
        ("g-mul", fun () -> ignore (P.G.mul g1 g2));
        ("gt-mul", fun () -> ignore (P.Gt.mul z1 z2));
        ("g-decode", fun () -> ignore (P.G.of_bytes enc));
        ("abs-decode", fun () -> ignore (Abs.of_bytes sigma_bytes));
        ("abs-decode-stored", fun () -> ignore (Abs.of_stored stored));
        ("drbg-scalar", fun () -> ignore (P.rand_scalar drbg));
        ("sha256-64k", fun () -> ignore (Sha256.digest bulk));
        ("hash-to-field", fun () -> ignore (Htf.to_zp ~domain:"micro" ~p:P.order msg));
        ("abs-sign", fun () -> ignore (Abs.sign drbg mvk sk ~msg ~policy));
        ("abs-verify", fun () -> ignore (Abs.verify mvk ~msg ~policy sigma));
        ( "abs-relax",
          fun () -> ignore (Abs.relax drbg mvk sigma ~msg ~policy ~keep) );
      ]
end

(* The mock-backend ABS.Verify loop the overhead gates time: [verifier
   (module P) ~wrap] returns a function running [iters] verifies, each
   inside [wrap]. *)
let verifier (module P : Zkqac_group.Pairing_intf.PAIRING) ~wrap =
  let module Abs = Zkqac_abs.Abs.Make (P) in
  let drbg = Drbg.create ~seed:"micro:overhead" in
  let msk, mvk = Abs.setup drbg in
  let universe = Universe.create (Universe.roles ~prefix:"R" 10) in
  let sk = Abs.keygen drbg msk (Universe.attrs universe) in
  let policy = Expr.of_string "(R0 & R1) | (R2 & R3) | (R4 & R5)" in
  let msg = "overhead message" in
  let sigma = Abs.sign drbg mvk sk ~msg ~policy in
  fun iters ->
    for _ = 1 to iters do
      wrap (fun () -> assert (Abs.verify mvk ~msg ~policy sigma))
    done

(* Paired overhead of [variant] over [base]: [pairs] pairs of short
   [iters]-verify blocks, alternating which variant runs first so drift
   and warm-up hit both alike. A compaction first and a full major
   collection before each block start both from the same heap, so a major
   slice that lands in one block and not its partner is not read as
   overhead. Each pair gives one
   overhead, (variant - base) / base; the series row reports their median
   and quartiles. Both labels name the row's [<label>_us_per_verify]
   keys. *)
let paired_overhead ~title ~series ~base:(base_label, base)
    ~variant:(variant_label, variant) =
  let iters = 50 and pairs = 60 in
  let block run iters =
    Gc.full_major ();
    block run iters
  in
  Gc.compact ();
  ignore (block base iters);
  ignore (block variant iters);
  let times =
    List.init pairs (fun i ->
        if i mod 2 = 0 then
          let b = block base iters in
          (b, block variant iters)
        else
          let v = block variant iters in
          (block base iters, v))
  in
  let overheads = List.map (fun (b, v) -> (v -. b) /. b *. 100.) times in
  let overhead = Stats.median overheads in
  let q1, q3 = Stats.quartiles overheads in
  let us f = Stats.median (List.map f times) /. float_of_int iters *. 1e6 in
  let base_us = us fst and variant_us = us snd in
  Report.print_table ~title
    ~header:[ "variant"; "us/verify"; "overhead"; "q1..q3" ]
    [
      [ base_label; Printf.sprintf "%.2f" base_us; "-"; "-" ];
      [ variant_label; Printf.sprintf "%.2f" variant_us;
        Printf.sprintf "%+.2f%%" overhead;
        Printf.sprintf "%+.2f..%+.2f%%" q1 q3 ];
    ];
  Report.emit ~series
    (Json.Obj
       [ ("iters_per_block", Json.Int iters);
         ("pairs", Json.Int pairs);
         (base_label ^ "_us_per_verify", Json.Float base_us);
         (variant_label ^ "_us_per_verify", Json.Float variant_us);
         ("overhead_percent", Json.Float overhead);
         ("q1", Json.Float q1);
         ("q3", Json.Float q3) ])

(* Overhead of the op counters: the instrumented backend bumps one slot of
   the calling domain's counters per group op, always. The budget is the CI
   gate's: a median under 10% on mock ABS.Verify. *)
let telemetry_overhead () =
  let module R = (val Zkqac_group.Backend.instantiate_raw Zkqac_group.Backend.Mock)
  in
  let module I = Zkqac_group.Instrumented.Make (R) in
  let wrap f = f () in
  paired_overhead
    ~title:"Op-counting overhead (mock ABS.Verify, instrumented vs raw backend)"
    ~series:"telemetry_overhead"
    ~base:("raw", verifier (module R) ~wrap)
    ~variant:("instrumented", verifier (module I) ~wrap)

(* [verifier] on the mock backend, each verify inside a root span [name]. *)
let span_verifier name =
  let module Trace = Zkqac_telemetry.Trace in
  verifier
    (Zkqac_group.Backend.instantiate Zkqac_group.Backend.Mock)
    ~wrap:(fun f -> Trace.with_span name ~parent:Trace.none (fun _ -> f ()))

(* Overhead of the always-on span store, the whole store against none: per
   span, a record, an atomic sequence number, a push and a pop on the
   domain's open-span stack under its mutex and a ring store, on top of the
   stage table's note, which both variants pay. The budget is the CI
   gate's: a median under 10%. *)
let flight_overhead () =
  let module Flight = Zkqac_telemetry.Flight in
  let was_on = Flight.enabled () in
  Fun.protect
    ~finally:(fun () -> if was_on then Flight.enable () else Flight.disable ())
  @@ fun () ->
  let run = span_verifier "flight.overhead" in
  paired_overhead
    ~title:"Flight recorder overhead (mock ABS.Verify inside a span)"
    ~series:"flight_overhead"
    ~base:("disabled", fun iters -> Flight.disable (); run iters)
    ~variant:("enabled", fun iters -> Flight.enable (); run iters)

(* Overhead of GC-pause attribution: each span's open and close read
   [Rte.pause_mark], which drains the runtime-events ring while [Rte] is
   started. The variant block starts [Rte] and stops it at its end, so it
   pays for every drain, the final one included, and the base block and
   the collections between blocks run with event collection paused. The
   budget is the CI gate's: a median under 10%. *)
let rte_overhead () =
  let rte_on = Rte.started () in
  Rte.stop ();
  Fun.protect ~finally:(fun () -> if rte_on then Rte.start ())
  @@ fun () ->
  let run = span_verifier "rte.overhead" in
  paired_overhead
    ~title:"GC-pause attribution overhead (mock ABS.Verify inside a span)"
    ~series:"rte_overhead"
    ~base:("stopped", run)
    ~variant:
      ( "started",
        fun iters ->
          Rte.start ();
          run iters;
          Rte.stop () )

let micro backends =
  let rows =
    List.concat_map
      (fun (m : (module Zkqac_group.Pairing_intf.PAIRING)) ->
        let module B = (val m) in
        let module M = Make (B) in
        M.rows ())
      backends
  in
  let rows = List.sort compare rows in
  List.iter
    (fun (backend, op, s) ->
      Report.emit ~series:"primitives"
        (Json.Obj [ ("backend", Json.Str backend); ("op", Json.Str op); ("seconds", Json.Float s) ]))
    rows;
  Report.print_table ~title:"Micro-benchmarks (median per op, monotonic clock)"
    ~header:[ "operation"; "time/run" ]
    (List.map
       (fun (backend, op, s) ->
         let ns = s *. 1e9 in
         let pretty =
           if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
           else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
           else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
           else Printf.sprintf "%.0f ns" ns
         in
         [ backend ^ "/" ^ op; pretty ])
       rows);
  telemetry_overhead ();
  flight_overhead ();
  rte_overhead ()
