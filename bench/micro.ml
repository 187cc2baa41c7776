(* Bechamel micro-benchmarks of the cryptographic primitives: one Test.make
   per operation, per backend. These underpin every table: e.g. Table 2 is a
   direct consequence of how Sign/Verify/Relax scale with predicate size. *)

open Bechamel
open Toolkit
module Report = Zkqac_bench.Report
module Expr = Zkqac_policy.Expr
module Attr = Zkqac_policy.Attr
module Universe = Zkqac_policy.Universe
module Drbg = Zkqac_hashing.Drbg

module Make (P : Zkqac_group.Pairing_intf.PAIRING) = struct
  module Abs = Zkqac_abs.Abs.Make (P)

  let tests () =
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
    [
      Test.make ~name:(P.name ^ "/pairing") (Staged.stage (fun () -> P.e g1 g2));
      Test.make ~name:(P.name ^ "/g-exp") (Staged.stage (fun () -> P.G.pow g1 k));
      Test.make ~name:(P.name ^ "/abs-sign")
        (Staged.stage (fun () -> Abs.sign drbg mvk sk ~msg ~policy));
      Test.make ~name:(P.name ^ "/abs-verify")
        (Staged.stage (fun () -> Abs.verify mvk ~msg ~policy sigma));
      Test.make ~name:(P.name ^ "/abs-relax")
        (Staged.stage (fun () -> Abs.relax drbg mvk sigma ~msg ~policy ~keep));
    ]
end

let run_tests tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  List.concat_map
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      Hashtbl.fold
        (fun name raw acc ->
          let est = Analyze.one ols instance raw in
          match Analyze.OLS.estimates est with
          | Some [ ns ] -> (name, ns) :: acc
          | Some _ | None -> (name, nan) :: acc)
        results [])
    tests

(* Overhead of the telemetry wrapper when collection is disabled: the
   instrumented backend adds one atomic load + branch per group op. The
   budget is the CI gate's: under 10% on mock ABS.Verify. On a 2-vCPU
   container host five runs measured a median of -3.4% (range -6.9% to
   +9.0%): the cost is below this host's run-to-run noise. Raw and wrapped
   variants run interleaved blocks and we keep the best of each, so
   frequency drift hits both alike. *)
let telemetry_overhead () =
  let module Telemetry = Zkqac_telemetry.Telemetry in
  let module Json = Zkqac_telemetry.Json in
  let was_on = Telemetry.enabled () in
  Telemetry.disable ();
  Fun.protect ~finally:(fun () -> if was_on then Telemetry.enable ())
  @@ fun () ->
  let runner (module P : Zkqac_group.Pairing_intf.PAIRING) =
    let module Abs = Zkqac_abs.Abs.Make (P) in
    let drbg = Drbg.create ~seed:"micro:overhead" in
    let msk, mvk = Abs.setup drbg in
    let universe = Universe.create (Universe.roles ~prefix:"R" 10) in
    let sk = Abs.keygen drbg msk (Universe.attrs universe) in
    let policy = Expr.of_string "(R0 & R1) | (R2 & R3) | (R4 & R5)" in
    let msg = "telemetry-overhead message" in
    let sigma = Abs.sign drbg mvk sk ~msg ~policy in
    fun iters ->
      let t0 = Unix.gettimeofday () in
      for _ = 1 to iters do
        assert (Abs.verify mvk ~msg ~policy sigma)
      done;
      Unix.gettimeofday () -. t0
  in
  let module R = (val Zkqac_group.Backend.instantiate_raw Zkqac_group.Backend.Mock)
  in
  let module I = Zkqac_group.Instrumented.Make (R) in
  let raw = runner (module R) and inst = runner (module I) in
  let iters = 400 and blocks = 5 in
  (* Warm-up. *)
  ignore (raw 100);
  ignore (inst 100);
  let best_raw = ref infinity and best_inst = ref infinity in
  for _ = 1 to blocks do
    best_raw := Float.min !best_raw (raw iters);
    best_inst := Float.min !best_inst (inst iters)
  done;
  let per v = v /. float_of_int iters *. 1e6 in
  let overhead = (!best_inst -. !best_raw) /. !best_raw *. 100. in
  Report.print_table
    ~title:"Telemetry wrapper overhead (mock ABS.Verify, telemetry disabled)"
    ~header:[ "variant"; "us/verify"; "overhead" ]
    [
      [ "raw backend"; Printf.sprintf "%.2f" (per !best_raw); "-" ];
      [ "instrumented, disabled"; Printf.sprintf "%.2f" (per !best_inst);
        Printf.sprintf "%+.2f%%" overhead ];
    ];
  Report.emit ~series:"telemetry_overhead"
    (Json.Obj
       [ ("iters_per_block", Json.Int iters);
         ("blocks", Json.Int blocks);
         ("raw_us_per_verify", Json.Float (per !best_raw));
         ("instrumented_us_per_verify", Json.Float (per !best_inst));
         ("overhead_percent", Json.Float overhead) ])

(* Overhead of the always-on flight recorder: unlike the telemetry wrapper
   above, [Flight] records by default, so its cost per instrumented span is
   what every production run pays. The span fast path with flight enabled
   does two clock reads and a ring store; with flight disabled it is a
   single branch. Both variants run with telemetry and tracing off, so the
   difference isolates the recorder itself. The budget is the CI gate's:
   under 10%. On a 2-vCPU container host five runs measured a median of
   +1.5% (range -1.8% to +7.7%). *)
let flight_overhead () =
  let module Telemetry = Zkqac_telemetry.Telemetry in
  let module Trace = Zkqac_telemetry.Trace in
  let module Flight = Zkqac_telemetry.Flight in
  let module Json = Zkqac_telemetry.Json in
  let was_on = Flight.enabled () in
  let tel_on = Telemetry.enabled () in
  Telemetry.disable ();
  Fun.protect
    ~finally:(fun () ->
      if was_on then Flight.enable () else Flight.disable ();
      if tel_on then Telemetry.enable ())
  @@ fun () ->
  let module P =
    (val Zkqac_group.Backend.instantiate Zkqac_group.Backend.Mock)
  in
  let module Abs = Zkqac_abs.Abs.Make (P) in
  let drbg = Drbg.create ~seed:"micro:flight-overhead" in
  let msk, mvk = Abs.setup drbg in
  let universe = Universe.create (Universe.roles ~prefix:"R" 10) in
  let sk = Abs.keygen drbg msk (Universe.attrs universe) in
  let policy = Expr.of_string "(R0 & R1) | (R2 & R3) | (R4 & R5)" in
  let msg = "flight-overhead message" in
  let sigma = Abs.sign drbg mvk sk ~msg ~policy in
  let run iters =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      Trace.with_span "flight.overhead" ~parent:Trace.none @@ fun _ ->
      assert (Abs.verify mvk ~msg ~policy sigma)
    done;
    Unix.gettimeofday () -. t0
  in
  let iters = 400 and blocks = 5 in
  Flight.disable ();
  ignore (run 100);
  Flight.enable ();
  ignore (run 100);
  let best_off = ref infinity and best_on = ref infinity in
  for _ = 1 to blocks do
    Flight.disable ();
    best_off := Float.min !best_off (run iters);
    Flight.enable ();
    best_on := Float.min !best_on (run iters)
  done;
  let per v = v /. float_of_int iters *. 1e6 in
  let overhead = (!best_on -. !best_off) /. !best_off *. 100. in
  Report.print_table
    ~title:"Flight recorder overhead (mock ABS.Verify inside a span)"
    ~header:[ "variant"; "us/verify"; "overhead" ]
    [
      [ "flight disabled"; Printf.sprintf "%.2f" (per !best_off); "-" ];
      [ "flight enabled"; Printf.sprintf "%.2f" (per !best_on);
        Printf.sprintf "%+.2f%%" overhead ];
    ];
  Report.emit ~series:"flight_overhead"
    (Json.Obj
       [ ("iters_per_block", Json.Int iters);
         ("blocks", Json.Int blocks);
         ("disabled_us_per_verify", Json.Float (per !best_off));
         ("enabled_us_per_verify", Json.Float (per !best_on));
         ("overhead_percent", Json.Float overhead) ])

let micro backends =
  let rows =
    List.concat_map
      (fun (m : (module Zkqac_group.Pairing_intf.PAIRING)) ->
        let module B = (val m) in
        let module M = Make (B) in
        run_tests (M.tests ()))
      backends
  in
  Report.print_table ~title:"Micro-benchmarks (Bechamel, monotonic clock)"
    ~header:[ "operation"; "time/run" ]
    (List.map
       (fun (name, ns) ->
         let pretty =
           if Float.is_nan ns then "n/a"
           else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
           else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
           else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
           else Printf.sprintf "%.0f ns" ns
         in
         [ name; pretty ])
       (List.sort compare rows));
  telemetry_overhead ();
  flight_overhead ()
