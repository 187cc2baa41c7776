(* The paper's experimental workload in miniature: a TPC-H Lineitem table
   over (shipdate, discount, quantity), Q6-style authenticated range queries
   comparing the Basic approach against the AP2G-tree, and a Q12-style
   authenticated equi-join of Lineitem and Orders on orderkey.

   Run with:  dune exec examples/tpch_range_join.exe *)

module Backend = (val Zkqac_group.Backend.instantiate Zkqac_group.Backend.Mock)
module Abs = Zkqac_abs.Abs.Make (Backend)
module Ap2g = Zkqac_core.Ap2g.Make (Backend)
module Equality = Zkqac_core.Equality.Make (Backend)
module Join = Zkqac_core.Join.Make (Backend)
module Vo = Zkqac_core.Vo.Make (Backend)
module Box = Zkqac_core.Box
module Keyspace = Zkqac_core.Keyspace
module Record = Zkqac_core.Record
module Expr = Zkqac_policy.Expr
module Universe = Zkqac_policy.Universe
module Workload = Zkqac_tpch.Workload
module Drbg = Zkqac_hashing.Drbg
module Prng = Zkqac_rng.Prng
module Pool = Zkqac_parallel.Pool

let () =
  let rng = Prng.create 2018 in
  let drbg = Drbg.create ~seed:"tpch-example" in
  let roles, policies = Workload.gen_policies rng Workload.default_policies in
  let universe = Universe.create roles in
  let msk, mvk = Abs.setup drbg in
  let sk = Abs.keygen drbg msk (Universe.attrs universe) in

  (* --- Q6-style range over (shipdate, discount, quantity) --- *)
  let space = Keyspace.create ~dims:3 ~depth:3 in
  let records = Workload.lineitem_records rng ~space ~rows:2000 ~policies in
  Printf.printf "lineitem: %d rows -> %d distinct-key records over a %dx%dx%d space\n"
    2000 (List.length records) (Keyspace.side space) (Keyspace.side space)
    (Keyspace.side space);
  let (tree, build_t) =
    Pool.time (fun () ->
        Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"tpch" records)
  in
  let st = Ap2g.stats tree in
  Printf.printf "AP2G-tree: %d leaf + %d node signatures in %.2fs (%.1f KB signatures)\n"
    st.Ap2g.leaf_signatures st.Ap2g.node_signatures build_t
    (float_of_int st.Ap2g.signature_bytes /. 1024.);
  let flat = Equality.of_ap2g tree in
  let user = Workload.user_for_fraction rng ~roles ~policies ~frac:0.2 in
  Printf.printf "user roles (≈20%% of policies): %s\n"
    (String.concat ", " (Zkqac_policy.Attr.Set.elements user));

  List.iter
    (fun frac ->
      let query = Workload.range_query rng ~space ~frac in
      let vo_g, st_g = Ap2g.range_vo drbg ~mvk tree ~user query in
      let vo_b, st_b = Equality.range_vo drbg ~mvk flat ~user query in
      (match Ap2g.verify ~mvk ~t_universe:universe ~user ~query vo_g with
       | Ok rs ->
         Printf.printf
           "range %.2f%%: %d results | AP2G: %4d entries %7.1f KB %4d relax %.3fs | Basic: %4d entries %7.1f KB %4d relax %.3fs\n"
           (frac *. 100.) (List.length rs) (List.length vo_g)
           (float_of_int (Vo.size vo_g) /. 1024.)
           st_g.Ap2g.relax_calls st_g.Ap2g.sp_time (List.length vo_b)
           (float_of_int (Vo.size vo_b) /. 1024.)
           st_b.Ap2g.relax_calls st_b.Ap2g.sp_time
       | Error e ->
         Printf.printf "VERIFY FAILED: %s\n" (Vo.error_to_string e);
         exit 1);
      match Equality.verify_range ~mvk ~t_universe:universe ~user ~query vo_b with
      | Ok _ -> ()
      | Error e ->
        Printf.printf "BASIC VERIFY FAILED: %s\n" (Vo.error_to_string e);
        exit 1)
    [ 0.01; 0.05; 0.25 ];

  (* --- Q12-style join on orderkey --- *)
  let jspace = Keyspace.create ~dims:1 ~depth:8 in
  let li, ord =
    Workload.orderkey_tables rng ~space:jspace ~lineitem_rows:600 ~order_rows:200
      ~policies
  in
  let r_tree = Ap2g.build drbg ~mvk ~sk ~space:jspace ~universe ~pseudo_seed:"li" li in
  let s_tree = Ap2g.build drbg ~mvk ~sk ~space:jspace ~universe ~pseudo_seed:"or" ord in
  Printf.printf "\njoin tables: %d lineitem keys, %d orders\n" (List.length li)
    (List.length ord);
  let query = Box.of_range ~alpha:[| 0 |] ~beta:[| Keyspace.side jspace - 1 |] in
  let jvo, jst = Join.join_vo drbg ~mvk ~r:r_tree ~s:s_tree ~user query in
  (match Join.verify ~mvk ~t_universe:universe ~user ~query jvo with
   | Ok pairs ->
     Printf.printf
       "join over full range: %d verified pairs, %d VO entries (%.1f KB), %d relaxations, %.3fs\n"
       (List.length pairs) (List.length jvo)
       (float_of_int (Join.size jvo) /. 1024.)
       jst.Join.relax_calls jst.Join.sp_time
   | Error e ->
     Printf.printf "JOIN VERIFY FAILED: %s\n" (Vo.error_to_string e);
     exit 1);
  print_endline "tpch_range_join OK"
