(* Extensions beyond the paper, together: k-of-n threshold policy gates and
   verified aggregation (the paper's stated future work).

   A payroll table is protected with the policy "2of(HR, Finance, Audit)" --
   any two of the three departments can see salaries, no single one can.
   An auditor paired with finance runs a verified SUM/AVG over a range; the
   verification guarantees the aggregate covers exactly the accessible
   records in range (nothing dropped, nothing injected).

   Run with:  dune exec examples/aggregation_thresholds.exe *)

module Backend = (val Zkqac_group.Backend.instantiate Zkqac_group.Backend.Mock)
module Abs = Zkqac_abs.Abs.Make (Backend)
module Ap2g = Zkqac_core.Ap2g.Make (Backend)
module Aggregate = Zkqac_core.Aggregate.Make (Backend)
module Vo = Zkqac_core.Vo.Make (Backend)
module Box = Zkqac_core.Box
module Keyspace = Zkqac_core.Keyspace
module Record = Zkqac_core.Record
module Expr = Zkqac_policy.Expr
module Attr = Zkqac_policy.Attr
module Universe = Zkqac_policy.Universe
module Drbg = Zkqac_hashing.Drbg

let () =
  let drbg = Drbg.create ~seed:"payroll" in
  let msk, mvk = Abs.setup drbg in
  let roles = [ "HR"; "Finance"; "Audit"; "Engineering" ] in
  let universe = Universe.create roles in
  let sk = Abs.keygen drbg msk (Universe.attrs universe) in
  let space = Keyspace.create ~dims:1 ~depth:4 in

  (* Employee id -> salary; leadership salaries additionally require HR. *)
  let two_of_three = Expr.of_string "2of(HR, Finance, Audit)" in
  let leadership = Expr.of_string "HR & 2of(HR, Finance, Audit)" in
  let payroll =
    [ (1, 52_000, two_of_three); (3, 61_500, two_of_three);
      (5, 58_250, two_of_three); (8, 49_000, two_of_three);
      (11, 95_000, leadership); (14, 120_000, leadership) ]
  in
  let records =
    List.map
      (fun (id, salary, policy) ->
        Record.make ~key:[| id |] ~value:(string_of_int salary) ~policy)
      payroll
  in
  let tree = Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"pay" records in
  let query = Box.of_range ~alpha:[| 0 |] ~beta:[| 15 |] in
  let extract (r : Record.t) = float_of_string_opt r.Record.value in

  let report name user =
    let user = Attr.set_of_list user in
    let vo, _ = Ap2g.range_vo drbg ~mvk tree ~user query in
    (* Batched verification: all inaccessibility proofs checked at once. *)
    match
      Aggregate.sum ~batch:drbg ~mvk ~tree_universe:universe ~user ~query ~extract vo
    with
    | Error e ->
      Printf.printf "%-28s VERIFY FAILED: %s\n" name (Vo.error_to_string e);
      exit 1
    | Ok { Aggregate.value = total; over } ->
      if over = 0 then Printf.printf "%-28s no accessible salaries\n" name
      else
        Printf.printf "%-28s %d salaries, total %.0f, avg %.0f (verified)\n" name
          over total (total /. float_of_int over)
  in
  report "HR alone:" [ "HR" ];
  report "Finance alone:" [ "Finance" ];
  report "Engineering:" [ "Engineering" ];
  report "Finance + Audit:" [ "Finance"; "Audit" ];
  report "HR + Finance:" [ "HR"; "Finance" ];

  (* The integrity payoff: if the SP drops a salary from the response, the
     aggregate is refused rather than silently wrong. *)
  let user = Attr.set_of_list [ "Finance"; "Audit" ] in
  let vo, _ = Ap2g.range_vo drbg ~mvk tree ~user query in
  let cooked = List.filter (function Vo.Accessible _ -> false | _ -> true) vo in
  (match Aggregate.sum ~mvk ~tree_universe:universe ~user ~query ~extract cooked with
   | Error _ -> print_endline "\ncooked response (salary withheld) rejected: aggregate integrity holds"
   | Ok _ ->
     print_endline "cooked response accepted!?";
     exit 1);
  print_endline "aggregation_thresholds OK"
