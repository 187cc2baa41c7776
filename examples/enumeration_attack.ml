(* The enumeration attack of the introduction, and why zero-knowledge VOs
   defeat it.

   An adversary with few roles issues overlapping range queries trying to
   learn the distribution of keys it cannot access (e.g. which diseases
   exist in a medical database). Against a naive scheme that returns
   "encrypted but visible" inaccessible records, the attack reads off the
   hidden key distribution directly. Against the AP2G-tree's zero-knowledge
   VOs, the transcript the attacker sees is *identical* to the transcript
   over a database in which its inaccessible records never existed — so no
   sequence of queries can tell the two worlds apart.

   Run with:  dune exec examples/enumeration_attack.exe *)

module Backend = (val Zkqac_group.Backend.instantiate Zkqac_group.Backend.Mock)
module Abs = Zkqac_abs.Abs.Make (Backend)
module Ap2g = Zkqac_core.Ap2g.Make (Backend)
module Vo = Zkqac_core.Vo.Make (Backend)
module Box = Zkqac_core.Box
module Keyspace = Zkqac_core.Keyspace
module Record = Zkqac_core.Record
module Expr = Zkqac_policy.Expr
module Attr = Zkqac_policy.Attr
module Universe = Zkqac_policy.Universe
module Drbg = Zkqac_hashing.Drbg

let () =
  let drbg = Drbg.create ~seed:"enum" in
  let msk, mvk = Abs.setup drbg in
  let roles = [ "Public"; "Oncology"; "Cardiology" ] in
  let universe = Universe.create roles in
  let sk = Abs.keygen drbg msk (Universe.attrs universe) in
  let space = Keyspace.create ~dims:1 ~depth:5 in

  (* World 1: the real database. Hidden specialist records cluster at keys
     8..15 -- that clustering is exactly what the attacker wants to learn. *)
  let world_real =
    List.map
      (fun (k, v, p) -> Record.make ~key:[| k |] ~value:v ~policy:(Expr.of_string p))
      [ (2, "public-2", "Public"); (9, "onco-9", "Oncology");
        (10, "onco-10", "Oncology"); (11, "onco-11", "Oncology");
        (13, "onco-13", "Oncology"); (25, "public-25", "Public") ]
  in
  (* World 2: the simulator's database -- the attacker-inaccessible records
     simply do not exist (Definition 7.5's ideal game). *)
  let world_ideal =
    List.filter
      (fun (r : Record.t) -> Expr.eval r.Record.policy (Attr.Set.singleton "Public"))
      world_real
  in
  let tree_real =
    Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"w1" world_real
  in
  let tree_ideal =
    Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"w2" world_ideal
  in

  let attacker = Attr.Set.singleton "Public" in
  (* The attack: sweep overlapping windows over the key space. *)
  let windows = List.init 29 (fun i -> (i, i + 3)) in
  let transcript tree =
    List.map
      (fun (lo, hi) ->
        let query = Box.of_range ~alpha:[| lo |] ~beta:[| hi |] in
        let vo, _ = Ap2g.range_vo drbg ~mvk tree ~user:attacker query in
        (match Ap2g.verify ~mvk ~t_universe:universe ~user:attacker ~query vo with
         | Ok _ -> ()
         | Error e ->
           Printf.printf "VERIFY FAILED: %s\n" (Vo.error_to_string e);
           exit 1);
        (* Everything the attacker observes, minus the (randomized) group
           elements: entry kinds, regions, plaintext results. *)
        List.map
          (function
            | Vo.Accessible { region; record; _ } ->
              ("result", Box.to_string region, record.Record.value)
            | Vo.Inaccessible_leaf { region; _ } -> ("leaf", Box.to_string region, "")
            | Vo.Inaccessible_node { region; _ } -> ("node", Box.to_string region, ""))
          vo)
      windows
  in
  let t_real = transcript tree_real in
  let t_ideal = transcript tree_ideal in
  Printf.printf "issued %d overlapping window queries per world\n" (List.length windows);
  if t_real = t_ideal then
    print_endline
      "attack transcript over the REAL database is identical to the transcript\n\
       over the world where the hidden records never existed:\n\
       the enumeration attack learns NOTHING. (zero-knowledge holds)"
  else begin
    print_endline "transcripts differ -- zero-knowledge violated!";
    exit 1
  end;

  (* Contrast: what a non-ZK scheme (returning inaccessible records in
     encrypted form, MHT-style) would have leaked. *)
  let leaked =
    List.filter_map
      (fun (r : Record.t) ->
        if Expr.eval r.Record.policy attacker then None else Some r.Record.key.(0))
      world_real
  in
  Printf.printf
    "\na Merkle-tree baseline would have revealed hidden keys at positions: %s\n"
    (String.concat ", " (List.map string_of_int leaked));
  print_endline "enumeration_attack OK"
