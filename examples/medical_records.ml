(* Medical-records scenario from the paper's introduction: patients authorize
   access to their records "only to senior researchers or doctors specializing
   in cancer". Shows:

   - fine-grained attribute policies enforced cryptographically;
   - equality queries whose negative answers are indistinguishable between
     "no such patient" and "patient record not accessible to you";
   - hierarchical role assignment (Section 8.1) shrinking the inaccessible
     predicate.

   Run with:  dune exec examples/medical_records.exe *)

module Backend = (val Zkqac_group.Backend.instantiate Zkqac_group.Backend.Mock)
module Abs = Zkqac_abs.Abs.Make (Backend)
module Ap2g = Zkqac_core.Ap2g.Make (Backend)
module Equality = Zkqac_core.Equality.Make (Backend)
module Vo = Zkqac_core.Vo.Make (Backend)
module Box = Zkqac_core.Box
module Keyspace = Zkqac_core.Keyspace
module Record = Zkqac_core.Record
module Expr = Zkqac_policy.Expr
module Attr = Zkqac_policy.Attr
module Universe = Zkqac_policy.Universe
module Hierarchy = Zkqac_policy.Hierarchy
module Drbg = Zkqac_hashing.Drbg

let roles =
  [ "Doctor"; "Doctor.Oncology"; "Doctor.Cardiology"; "Researcher";
    "Researcher.Senior"; "Nurse" ]

(* Role hierarchy: a specialty implies the base role. *)
let hierarchy =
  Hierarchy.create
    [ ("Doctor.Oncology", "Doctor"); ("Doctor.Cardiology", "Doctor");
      ("Researcher.Senior", "Researcher") ]

let patients =
  (* patient id (query key), diagnosis, access policy *)
  [
    (3, "melanoma stage II", "Doctor.Oncology | Researcher.Senior");
    (7, "arrhythmia", "Doctor.Cardiology");
    (12, "melanoma stage I", "Doctor.Oncology | Researcher.Senior");
    (20, "hypertension", "Doctor");
    (28, "post-op care", "Nurse | Doctor");
  ]

let () =
  let drbg = Drbg.create ~seed:"medical" in
  let msk, mvk = Abs.setup drbg in
  let universe = Universe.create roles in
  let sk = Abs.keygen drbg msk (Universe.attrs universe) in
  let space = Keyspace.create ~dims:1 ~depth:5 in
  let records =
    List.map
      (fun (id, diag, pol) ->
        Record.make ~key:[| id |] ~value:diag
          ~policy:(Hierarchy.augment_policy hierarchy (Expr.of_string pol)))
      patients
  in
  let tree =
    Ap2g.build drbg ~mvk ~sk ~space ~universe ~hierarchy ~pseudo_seed:"medical"
      records
  in
  let flat = Equality.of_ap2g tree in

  let show_user name user =
    Printf.printf "\n== %s (roles: %s) ==\n" name
      (String.concat ", " (Attr.Set.elements user));
    let user = Hierarchy.close_user hierarchy user in
    (* Range query over all patient ids. *)
    let query = Box.of_range ~alpha:[| 0 |] ~beta:[| 31 |] in
    let vo, stats = Ap2g.range_vo drbg ~mvk tree ~user query in
    (match Ap2g.verify ~mvk ~t_universe:universe ~hierarchy ~user ~query vo with
     | Error e ->
       Printf.printf "  VERIFY FAILED: %s\n" (Vo.error_to_string e);
       exit 1
     | Ok rs ->
       Printf.printf "  verified scan: %d accessible record(s), %d VO entries, %d relaxations\n"
         (List.length rs) (List.length vo) stats.Ap2g.relax_calls;
       List.iter
         (fun (r : Record.t) ->
           Printf.printf "    patient %d: %s\n" r.Record.key.(0) r.Record.value)
         rs);
    (* Equality probes: a real-but-hidden patient vs a non-existent id give
       the same answer shape. *)
    List.iter
      (fun id ->
        let entry = Equality.query_vo drbg ~mvk flat ~user [| id |] in
        match
          Equality.verify_equality ~mvk ~t_universe:universe ~user ~key:[| id |] entry
        with
        | Ok (Equality.Result r) ->
          Printf.printf "  patient %2d -> %s\n" id r.Record.value
        | Ok Equality.Denied ->
          Printf.printf "  patient %2d -> no accessible record (exists? cannot tell)\n" id
        | Error e ->
          Printf.printf "  patient %2d -> VERIFY FAILED: %s\n" id (Vo.error_to_string e);
          exit 1)
      [ 3; 7; 13 (* non-existent *) ]
  in
  show_user "Dr. Chen, oncologist" (Attr.set_of_list [ "Doctor.Oncology" ]);
  show_user "Dr. Patel, cardiologist" (Attr.set_of_list [ "Doctor.Cardiology" ]);
  show_user "Sam, junior researcher" (Attr.set_of_list [ "Researcher" ]);

  (* The Section 8.1 payoff: the cardiologist's inaccessible predicate with
     the hierarchy vs without it. *)
  let user = Attr.set_of_list [ "Doctor.Cardiology" ] in
  let reduced = Hierarchy.super_policy hierarchy universe ~user in
  let flat_sp = Universe.super_policy universe ~user:(Hierarchy.close_user hierarchy user) in
  Printf.printf
    "\nhierarchical role assignment: inaccessible predicate %d roles -> %d roles\n"
    (Expr.num_leaves flat_sp) (Expr.num_leaves reduced);
  print_endline "medical_records OK"
