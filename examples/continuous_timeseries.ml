(* Continuous query attributes under the relaxed model (Section 9.2).

   A sensor event log is keyed by timestamp — a continuous attribute with no
   practical discretization grid. Under access-policy confidentiality the DO
   signs one pseudo-region per gap between consecutive events, so range
   queries are answered with event proofs + gap proofs. The key distribution
   is disclosed (that is the model's relaxation) but contents and policies of
   inaccessible events are not.

   Run with:  dune exec examples/continuous_timeseries.exe *)

module Backend = (val Zkqac_group.Backend.instantiate Zkqac_group.Backend.Mock)
module Abs = Zkqac_abs.Abs.Make (Backend)
module Cont = Zkqac_core.Continuous.Make (Backend)
module Vo = Zkqac_core.Vo.Make (Backend)
module Record = Zkqac_core.Record
module Expr = Zkqac_policy.Expr
module Attr = Zkqac_policy.Attr
module Universe = Zkqac_policy.Universe
module Drbg = Zkqac_hashing.Drbg

let () =
  let drbg = Drbg.create ~seed:"timeseries" in
  let msk, mvk = Abs.setup drbg in
  let roles = [ "Operator"; "Maintenance"; "Auditor" ] in
  let universe = Universe.create roles in
  let sk = Abs.keygen drbg msk (Universe.attrs universe) in
  (* (unix-ish timestamp, event, policy) -- timestamps are sparse and
     irregular: no grid. *)
  let events =
    [ (1_700_000_012, "pump A started", "Operator");
      (1_700_003_615, "pressure spike 4.2 bar", "Operator | Auditor");
      (1_700_009_401, "valve 7 serviced", "Maintenance");
      (1_700_011_000, "pump A stopped", "Operator");
      (1_700_040_777, "calibration drift logged", "Maintenance & Auditor") ]
  in
  let records =
    List.map
      (fun (ts, ev, pol) ->
        Record.make ~key:[| ts |] ~value:ev ~policy:(Expr.of_string pol))
      events
  in
  let log = Cont.build drbg ~mvk ~sk ~universe records in
  Printf.printf "signed %d events + %d gap regions (%d signatures total)\n"
    (List.length events)
    (List.length events + 1)
    (Cont.num_signatures log);

  let scan name user lo hi =
    let user = Attr.set_of_list user in
    let vo, _ = Cont.range_vo drbg ~mvk log ~user ~lo ~hi in
    match Cont.verify_range ~mvk ~t_universe:universe ~user ~lo ~hi vo with
    | Error e ->
      Printf.printf "%-22s [%d, %d] VERIFY FAILED: %s\n" name lo hi
        (Vo.error_to_string e);
      exit 1
    | Ok events ->
      let gaps =
        List.length
          (List.filter (function Vo.Inaccessible_node _ -> true | _ -> false) vo)
      in
      Printf.printf "%-22s [%d, %d]: %d readable event(s), %d entries (%d gap proofs)\n"
        name lo hi (List.length events) (List.length vo) gaps;
      List.iter
        (fun (r : Record.t) -> Printf.printf "    t=%d  %s\n" r.Record.key.(0) r.Record.value)
        events
  in
  scan "operator, full day:" [ "Operator" ] 1_700_000_000 1_700_086_400;
  scan "auditor, full day:" [ "Auditor" ] 1_700_000_000 1_700_086_400;
  scan "maintenance, morning:" [ "Maintenance" ] 1_700_000_000 1_700_010_000;
  scan "operator, quiet hour:" [ "Operator" ] 1_700_020_000 1_700_030_000;

  (* Equality probe in a gap: the signed region proves "no event here". *)
  let user = Attr.Set.singleton "Operator" in
  (match Cont.equality_vo drbg ~mvk log ~user 1_700_005_000 with
   | Vo.Inaccessible_node { region; _ } ->
     Printf.printf
       "\npoint lookup t=1700005000: proven empty, gap (%d, %d) disclosed (relaxed model)\n"
       (region.lo.(0) - 1) region.hi.(0)
   | _ -> failwith "expected a gap proof");
  print_endline "continuous_timeseries OK"
