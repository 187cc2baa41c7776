(* One function per paper table/figure. Sizes are scaled down from the
   paper's testbed (6M-row TPC-H, 512-bit PBC pairings, 24 hyper-threads) to
   laptop-scale runs; EXPERIMENTS.md records the mapping and the expected
   shapes. Every experiment prints the same rows/series the paper reports. *)

module Expr = Zkqac_policy.Expr
module Attr = Zkqac_policy.Attr
module Universe = Zkqac_policy.Universe
module Hierarchy = Zkqac_policy.Hierarchy
module Drbg = Zkqac_hashing.Drbg
module Prng = Zkqac_rng.Prng
module Box = Zkqac_core.Box
module Keyspace = Zkqac_core.Keyspace
module Record = Zkqac_core.Record
module Workload = Zkqac_tpch.Workload
module Pool = Zkqac_parallel.Pool
module Telemetry = Zkqac_telemetry.Telemetry
module Json = Zkqac_telemetry.Json

(* Run [f], returning its result plus the telemetry cost (op counts) of the
   region as a JSON object — the per-row "ops" field of BENCH.json. *)
let with_ops f =
  let before = Telemetry.snapshot () in
  let v = f () in
  let cost = Telemetry.diff ~earlier:before ~later:(Telemetry.snapshot ()) in
  (v, Telemetry.ops_json cost)

type scale_cfg = { full : bool }

module Make (P : Zkqac_group.Pairing_intf.PAIRING) = struct
  module Abs = Zkqac_abs.Abs.Make (P)
  module Ap2g = Zkqac_core.Ap2g.Make (P)
  module Ap2kd = Zkqac_core.Ap2kd.Make (P)
  module Equality = Zkqac_core.Equality.Make (P)
  module Join = Zkqac_core.Join.Make (P)
  module Vo = Zkqac_core.Vo.Make (P)
  module Dup = Zkqac_core.Duplicates.Make (P)

  let drbg = Drbg.create ~seed:("bench:" ^ P.name)
  let msk, mvk = Abs.setup drbg

  let keygen_for universe = Abs.keygen drbg msk (Universe.attrs universe)

  (* A standard workload instance: policies, universe, records, tree. *)
  type instance = {
    roles : Attr.t list;
    policies : Expr.t array;
    universe : Universe.t;
    sk : Abs.signing_key;
    space : Keyspace.t;
    records : Record.t list;
    tree : Ap2g.t;
  }

  let make_instance ?(policy_cfg = Workload.default_policies) ~seed ~depth ~rows () =
    let rng = Prng.create seed in
    let roles, policies = Workload.gen_policies rng policy_cfg in
    let universe = Universe.create roles in
    let sk = keygen_for universe in
    let space = Keyspace.create ~dims:3 ~depth in
    let records = Workload.lineitem_records rng ~space ~rows ~policies in
    let tree = Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"b" records in
    { roles; policies; universe; sk; space; records; tree }

  let user_20pct ~seed inst =
    let rng = Prng.create (seed + 7919) in
    Workload.user_for_fraction rng ~roles:inst.roles ~policies:inst.policies ~frac:0.2

  (* Run a range query on both approaches and verify; returns per-approach
     (sp_time, user_time, vo_kb). *)
  let run_range ?(runs = 3) inst flat ~user query =
    let (vo_g, st_g), _ =
      Report.avg_time 1 (fun () -> Ap2g.range_vo drbg ~mvk inst.tree ~user query)
    in
    let _, sp_g = Report.avg_time runs (fun () -> Ap2g.range_vo drbg ~mvk inst.tree ~user query) in
    ignore sp_g;
    let sp_g = st_g.Ap2g.sp_time in
    let res_g, user_g =
      Report.avg_time runs (fun () ->
          Ap2g.verify ~mvk ~t_universe:inst.universe ~user ~query vo_g)
    in
    (match res_g with
     | Ok _ -> ()
     | Error e -> failwith ("bench: AP2G verify failed: " ^ Vo.error_to_string e));
    let vo_b, st_b = Equality.range_vo drbg ~mvk flat ~user query in
    let res_b, user_b =
      Report.avg_time runs (fun () ->
          Equality.verify_range ~mvk ~t_universe:inst.universe ~user ~query vo_b)
    in
    (match res_b with
     | Ok _ -> ()
     | Error e -> failwith ("bench: basic verify failed: " ^ Vo.error_to_string e));
    ( (sp_g, user_g, Vo.size vo_g, st_g.Ap2g.relax_calls),
      (st_b.Ap2g.sp_time, user_b, Vo.size vo_b, st_b.Ap2g.relax_calls) )

  (* ------------------------------------------------------------------ *)
  (* Table 1: DO setup overhead vs database scale.                        *)

  let table1 { full } =
    let depth = if full then 4 else 3 in
    let scales = [ (0.1, 2_000); (0.3, 6_000); (1.0, 20_000); (3.0, 60_000) ] in
    let rows =
      List.map
        (fun (scale, rows) ->
          let inst = make_instance ~seed:1 ~depth ~rows () in
          let st = Ap2g.stats inst.tree in
          [ Printf.sprintf "%.1f" scale;
            string_of_int rows;
            string_of_int (List.length inst.records);
            Report.s st.Ap2g.sign_time;
            Report.s (st.Ap2g.sign_time *. float_of_int st.Ap2g.node_signatures
                      /. float_of_int (st.Ap2g.leaf_signatures + st.Ap2g.node_signatures));
            Report.mb (st.Ap2g.structure_bytes + st.Ap2g.signature_bytes);
            Report.mb st.Ap2g.structure_bytes;
            Report.mb st.Ap2g.signature_bytes ])
        scales
    in
    Report.print_table
      ~title:"Table 1: DO setup overhead (paper: time/size sublinear in scale; index dominated by the fixed grid)"
      ~header:
        [ "scale"; "rows"; "records"; "sign APPs (s)"; "~build idx (s)";
          "index (MB)"; "tree (MB)"; "sigs (MB)" ]
      rows

  (* ------------------------------------------------------------------ *)
  (* Table 2: equality query performance.                                 *)

  let table2 { full } =
    let runs = if full then 20 else 5 in
    (* Accessible record: cost grows with the record's policy length. *)
    let acc_rows =
      List.map
        (fun (or_f, and_f) ->
          let len = or_f * and_f in
          let rng = Prng.create (100 + len) in
          let n_roles = max 10 (2 * and_f) in
          let roles, _ = Workload.gen_policies rng
              { Workload.num_policies = 1; num_roles = n_roles; or_fanin = 1; and_fanin = 1 } in
          let universe = Universe.create roles in
          let sk = keygen_for universe in
          let role_arr = Array.of_list roles in
          (* An exact-length policy: OR of or_f AND-clauses of and_f roles. *)
          let clause () =
            Expr.of_attrs_and
              (List.init and_f (fun i -> role_arr.(i mod Array.length role_arr)))
          in
          let policy = Expr.disj (List.init or_f (fun _ -> clause ())) in
          let record = Record.make ~key:[| 1 |] ~value:"v" ~policy in
          let sigma =
            Abs.sign drbg mvk sk ~msg:(Record.message_of record) ~policy
          in
          let user = Attr.set_of_list roles in
          let (_, verify_t), ops =
            with_ops (fun () ->
                Report.avg_time runs (fun () ->
                    assert (Abs.verify mvk ~msg:(Record.message_of record) ~policy sigma)))
          in
          ignore user;
          Report.emit ~series:"equality_accessible"
            (Json.Obj
               [ ("policy_len", Json.Int len);
                 ("user_verify_ms", Json.Float (verify_t *. 1000.));
                 ("vo_bytes", Json.Int (Abs.size sigma));
                 ("runs", Json.Int runs);
                 ("ops", ops) ]);
          [ string_of_int len; Report.ms verify_t; Report.kb (Abs.size sigma) ])
        [ (3, 2); (6, 4); (12, 8); (24, 16) ]
    in
    Report.print_table
      ~title:"Table 2a: equality query, accessible record (paper: costs proportional to policy length)"
      ~header:[ "max policy len"; "user CPU (ms)"; "VO size (KB)" ]
      acc_rows;
    (* Inaccessible record: cost grows with the super-policy length. *)
    let inacc_rows =
      List.map
        (fun pred_len ->
          let roles = Universe.roles ~prefix:"R" pred_len in
          let universe = Universe.create roles in
          let sk = keygen_for universe in
          (* User holds one role; the record requires a role the user lacks;
             the super policy has pred_len roles (incl. the pseudo role). *)
          let user = Attr.Set.singleton (List.hd roles) in
          let policy = Expr.leaf (List.nth roles 1) in
          let record = Record.make ~key:[| 1 |] ~value:"v" ~policy in
          let sigma = Abs.sign drbg mvk sk ~msg:(Record.message_of record) ~policy in
          let keep = Universe.missing universe ~user in
          let relaxed = ref None in
          let ((), sp_t), sp_ops =
            with_ops (fun () ->
                Report.avg_time runs (fun () ->
                    relaxed :=
                      Abs.relax drbg mvk sigma ~msg:(Record.message_of record) ~policy
                        ~keep))
          in
          let aps = Option.get !relaxed in
          let super = Abs.relaxed_policy keep in
          let (_, user_t), user_ops =
            with_ops (fun () ->
                Report.avg_time runs (fun () ->
                    assert (Abs.verify mvk ~msg:(Record.message_of record) ~policy:super aps)))
          in
          Report.emit ~series:"equality_inaccessible"
            (Json.Obj
               [ ("predicate_len", Json.Int (Attr.Set.cardinal keep));
                 ("sp_relax_ms", Json.Float (sp_t *. 1000.));
                 ("user_verify_ms", Json.Float (user_t *. 1000.));
                 ("vo_bytes", Json.Int (Abs.size aps));
                 ("runs", Json.Int runs);
                 ("sp_ops", sp_ops);
                 ("user_ops", user_ops) ]);
          [ string_of_int (Attr.Set.cardinal keep); Report.ms sp_t;
            Report.ms user_t; Report.kb (Abs.size aps) ])
        [ 10; 20; 40; 80 ]
    in
    Report.print_table
      ~title:"Table 2b: equality query, inaccessible record (paper: costs proportional to predicate length)"
      ~header:[ "predicate len"; "SP CPU (ms)"; "user CPU (ms)"; "VO size (KB)" ]
      inacc_rows

  (* ------------------------------------------------------------------ *)
  (* Figure 7: range query vs query range size, Basic vs AP2G.            *)

  let fig_range_sweep title fracs inst =
    let flat = Equality.of_ap2g inst.tree in
    let user = user_20pct ~seed:2 inst in
    let rng = Prng.create 4242 in
    let rows =
      List.map
        (fun frac ->
          let query = Workload.range_query rng ~space:inst.space ~frac in
          let ((g_sp, g_u, g_vo, g_rx), (b_sp, b_u, b_vo, b_rx)), ops =
            with_ops (fun () -> run_range inst flat ~user query)
          in
          Report.emit ~series:"range_query"
            (Json.Obj
               [ ("range_frac", Json.Float frac);
                 ( "ap2g",
                   Json.Obj
                     [ ("sp_ms", Json.Float (g_sp *. 1000.));
                       ("user_ms", Json.Float (g_u *. 1000.));
                       ("vo_bytes", Json.Int g_vo);
                       ("relax_calls", Json.Int g_rx) ] );
                 ( "basic",
                   Json.Obj
                     [ ("sp_ms", Json.Float (b_sp *. 1000.));
                       ("user_ms", Json.Float (b_u *. 1000.));
                       ("vo_bytes", Json.Int b_vo);
                       ("relax_calls", Json.Int b_rx) ] );
                 ("ops", ops) ]);
          [ Printf.sprintf "%.2f%%" (frac *. 100.);
            Report.ms g_sp; Report.ms b_sp;
            Report.ms g_u; Report.ms b_u;
            Report.kb g_vo; Report.kb b_vo;
            string_of_int g_rx; string_of_int b_rx ])
        fracs
    in
    Report.print_table ~title
      ~header:
        [ "range"; "SP ap2g (ms)"; "SP basic (ms)"; "user ap2g (ms)";
          "user basic (ms)"; "VO ap2g (KB)"; "VO basic (KB)"; "relax ap2g";
          "relax basic" ]
      rows

  let fig7 { full } =
    let depth = if full then 5 else 4 in
    let inst = make_instance ~seed:7 ~depth ~rows:(if full then 20_000 else 2_000) () in
    fig_range_sweep
      "Figure 7: range query vs query range (paper: AP2G wins everywhere, gap grows with range)"
      [ 0.003; 0.01; 0.03; 0.1; 0.3 ]
      inst

  (* Figure 8: vs database scale, range fixed. *)
  let fig8 { full } =
    let depth = if full then 5 else 4 in
    let rows =
      List.map
        (fun (scale, rows) ->
          let inst = make_instance ~seed:8 ~depth ~rows () in
          let flat = Equality.of_ap2g inst.tree in
          let user = user_20pct ~seed:8 inst in
          let rng = Prng.create 88 in
          let query = Workload.range_query rng ~space:inst.space ~frac:0.05 in
          let (g_sp, g_u, g_vo, _), (b_sp, b_u, b_vo, _) =
            run_range inst flat ~user query
          in
          [ Printf.sprintf "%.1f" scale;
            Report.ms g_sp; Report.ms b_sp; Report.ms g_u; Report.ms b_u;
            Report.kb g_vo; Report.kb b_vo ])
        [ (0.1, 600); (0.3, 1_800); (1.0, 6_000); (3.0, 18_000) ]
    in
    Report.print_table
      ~title:"Figure 8: range query vs database scale (paper: AP2G grows steadily; basic fluctuates)"
      ~header:
        [ "scale"; "SP ap2g (ms)"; "SP basic (ms)"; "user ap2g (ms)";
          "user basic (ms)"; "VO ap2g (KB)"; "VO basic (KB)" ]
      rows

  (* Figure 9: vs number of distinct policies. *)
  let fig9 { full } =
    let depth = if full then 5 else 4 in
    let rows =
      List.map
        (fun num_policies ->
          let cfg = { Workload.default_policies with Workload.num_policies } in
          let inst = make_instance ~policy_cfg:cfg ~seed:9 ~depth ~rows:2_000 () in
          let flat = Equality.of_ap2g inst.tree in
          let user = user_20pct ~seed:9 inst in
          let rng = Prng.create 99 in
          let query = Workload.range_query rng ~space:inst.space ~frac:0.05 in
          let (g_sp, g_u, g_vo, _), (b_sp, b_u, b_vo, _) =
            run_range inst flat ~user query
          in
          [ string_of_int num_policies;
            Report.ms g_sp; Report.ms b_sp; Report.ms g_u; Report.ms b_u;
            Report.kb g_vo; Report.kb b_vo ])
        [ 2; 5; 10; 20; 50 ]
    in
    Report.print_table
      ~title:"Figure 9: range query vs #distinct policies (paper: roughly flat)"
      ~header:
        [ "#policies"; "SP ap2g (ms)"; "SP basic (ms)"; "user ap2g (ms)";
          "user basic (ms)"; "VO ap2g (KB)"; "VO basic (KB)" ]
      rows

  (* Figure 10: vs role-universe size and max policy length. *)
  let fig10 { full } =
    let depth = if full then 5 else 4 in
    let sweep name values mk_cfg =
      let rows =
        List.map
          (fun v ->
            let cfg = mk_cfg v in
            let inst = make_instance ~policy_cfg:cfg ~seed:(10 + v) ~depth ~rows:2_000 () in
            let flat = Equality.of_ap2g inst.tree in
            let user = user_20pct ~seed:(10 + v) inst in
            let rng = Prng.create (1000 + v) in
            let query = Workload.range_query rng ~space:inst.space ~frac:0.05 in
            let (g_sp, g_u, g_vo, _), (b_sp, b_u, b_vo, _) =
              run_range inst flat ~user query
            in
            [ string_of_int v;
              Report.ms g_sp; Report.ms b_sp; Report.ms g_u; Report.ms b_u;
              Report.kb g_vo; Report.kb b_vo ])
          values
      in
      Report.print_table
        ~title:("Figure 10" ^ name)
        ~header:
          [ "value"; "SP ap2g (ms)"; "SP basic (ms)"; "user ap2g (ms)";
            "user basic (ms)"; "VO ap2g (KB)"; "VO basic (KB)" ]
        rows
    in
    sweep "a: vs #roles (paper: larger role space -> higher cost)"
      [ 5; 10; 20; 40 ]
      (fun n -> { Workload.default_policies with Workload.num_roles = n });
    sweep "b: vs max policy length (paper: longer policies -> higher cost)"
      [ 2; 4; 6; 9 ]
      (fun len ->
        let and_fanin = max 1 (len / 3) in
        { Workload.default_policies with Workload.or_fanin = 3; and_fanin })

  (* ------------------------------------------------------------------ *)
  (* Figure 11: join query vs range, Basic vs AP2G.                       *)

  let fig11 { full } =
    let depth = if full then 9 else 7 in
    let rng = Prng.create 11 in
    let roles, policies = Workload.gen_policies rng Workload.default_policies in
    let universe = Universe.create roles in
    let sk = keygen_for universe in
    let space = Keyspace.create ~dims:1 ~depth in
    let side = Keyspace.side space in
    let li, ord =
      Workload.orderkey_tables rng ~space ~lineitem_rows:(side * 2)
        ~order_rows:(side / 2) ~policies
    in
    let r_tree = Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"jr" li in
    let s_tree = Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"js" ord in
    let r_flat = Equality.of_ap2g r_tree in
    let s_flat = Equality.of_ap2g s_tree in
    let user = Workload.user_for_fraction rng ~roles ~policies ~frac:0.2 in
    let rows =
      List.map
        (fun frac ->
          let extent = max 1 (int_of_float (frac *. float_of_int side)) in
          let lo = Prng.int rng (side - extent + 1) in
          let query = Box.of_range ~alpha:[| lo |] ~beta:[| lo + extent - 1 |] in
          let (jvo, jst), _ = Pool.time (fun () ->
              Join.join_vo drbg ~mvk ~r:r_tree ~s:s_tree ~user query) in
          let res, j_user = Pool.time (fun () ->
              Join.verify ~mvk ~t_universe:universe ~user ~query jvo) in
          (match res with
           | Ok _ -> ()
           | Error e -> failwith ("join verify: " ^ Vo.error_to_string e));
          (* Basic join: an equality proof per key on both tables. *)
          let (vo_r, st_r) = Equality.range_vo drbg ~mvk r_flat ~user query in
          let (vo_s, st_s) = Equality.range_vo drbg ~mvk s_flat ~user query in
          let b_sp = st_r.Ap2g.sp_time +. st_s.Ap2g.sp_time in
          let _, b_user = Pool.time (fun () ->
              ignore (Equality.verify_range ~mvk ~t_universe:universe ~user ~query vo_r);
              ignore (Equality.verify_range ~mvk ~t_universe:universe ~user ~query vo_s)) in
          [ Printf.sprintf "%.0f%%" (frac *. 100.);
            Report.ms jst.Join.sp_time; Report.ms b_sp;
            Report.ms j_user; Report.ms b_user;
            Report.kb (Join.size jvo); Report.kb (Vo.size vo_r + Vo.size vo_s) ])
        [ 0.05; 0.1; 0.25; 0.5; 1.0 ]
    in
    Report.print_table
      ~title:"Figure 11: join query vs range (paper: AP2G substantially below basic)"
      ~header:
        [ "range"; "SP ap2g (ms)"; "SP basic (ms)"; "user ap2g (ms)";
          "user basic (ms)"; "VO ap2g (KB)"; "VO basic (KB)" ]
      rows

  (* ------------------------------------------------------------------ *)
  (* Figure 12: hierarchical role assignment.                             *)

  let fig12 { full } =
    let depth = if full then 4 else 3 in
    let rng = Prng.create 12 in
    (* Two-level hierarchy: parents H0, H1; every AND clause gets a random
       hierarchical child role attached, as in the paper's setup. *)
    let base_roles = Universe.roles ~prefix:"Role" 8 in
    let child_roles = [ "H0.a"; "H0.b"; "H1.a"; "H1.b" ] in
    let hierarchy =
      Hierarchy.create
        [ ("H0.a", "H0"); ("H0.b", "H0"); ("H1.a", "H1"); ("H1.b", "H1") ]
    in
    let all_roles = base_roles @ [ "H0"; "H1" ] @ child_roles in
    let universe = Universe.create all_roles in
    let sk = keygen_for universe in
    let base_arr = Array.of_list base_roles in
    let child_arr = Array.of_list child_roles in
    let policies =
      Array.init 10 (fun _ ->
          let clause () =
            Expr.conj
              [ Expr.leaf (Prng.pick rng base_arr); Expr.leaf (Prng.pick rng child_arr) ]
          in
          Expr.disj (List.init (1 + Prng.int rng 3) (fun _ -> clause ())))
    in
    let space = Keyspace.create ~dims:3 ~depth in
    let records = Workload.lineitem_records rng ~space ~rows:4_000 ~policies in
    (* One fixed query and user for both modes, so the only variable is the
       hierarchy. *)
    let shared_query = Workload.range_query rng ~space ~frac:0.2 in
    let run with_hierarchy =
      let hierarchy = if with_hierarchy then Some hierarchy else None in
      let tree =
        Ap2g.build drbg ~mvk ~sk ~space ~universe ?hierarchy ~pseudo_seed:"h" records
      in
      let user = Attr.set_of_list [ List.hd base_roles; "H0.a" ] in
      let query = shared_query in
      let vo, st = Ap2g.range_vo drbg ~mvk tree ~user query in
      let res, user_t =
        Pool.time (fun () ->
            Ap2g.verify ~mvk ~t_universe:universe ?hierarchy ~user ~query vo)
      in
      (match res with
       | Ok _ -> ()
       | Error e -> failwith ("fig12 verify: " ^ Vo.error_to_string e));
      let pred_len = Expr.num_leaves (Ap2g.super_policy_for tree ~user) in
      [ (if with_hierarchy then "hierarchical" else "flat");
        string_of_int pred_len; Report.ms st.Ap2g.sp_time; Report.ms user_t;
        Report.kb (Vo.size vo) ]
    in
    Report.print_table
      ~title:"Figure 12: hierarchical role assignment (paper: smaller predicate -> all costs drop)"
      ~header:[ "mode"; "pred len"; "SP (ms)"; "user (ms)"; "VO (KB)" ]
      [ run false; run true ]

  (* ------------------------------------------------------------------ *)
  (* Figure 13: parallel speedup of the ABS.Relax fan-out.                *)

  let fig13 { full } =
    let depth = if full then 5 else 4 in
    let inst = make_instance ~seed:13 ~depth ~rows:2_000 () in
    (* A 20%-access user over the whole space: the tree cannot collapse the
       query into one subtree proof, so hundreds of independent ABS.Relax
       jobs fan out (the Section 8.2 workload). *)
    let user = user_20pct ~seed:13 inst in
    let query = Keyspace.whole inst.space in
    let threads = [ 1; 2; 4; 8; 16 ] in
    let base = ref 0.0 in
    let rows =
      List.map
        (fun t ->
          let (_, st), wall =
            Pool.time (fun () ->
                Ap2g.range_vo ~pmap:(Pool.map ~threads:t) drbg ~mvk inst.tree ~user
                  query)
          in
          if t = 1 then base := wall;
          [ string_of_int t; string_of_int st.Ap2g.relax_calls; Report.ms wall;
            Printf.sprintf "%.2fx" (!base /. wall) ])
        threads
    in
    Report.print_table
      ~title:
        (Printf.sprintf
           "Figure 13: parallel ABS.Relax, %d core(s) available (paper: near-linear to the core count, tapering after; on a 1-core host the sweep degenerates to ~1.0x)"
           (Pool.available_cores ()))
      ~header:[ "threads"; "relax jobs"; "SP wall (ms)"; "speedup" ]
      rows

  (* ------------------------------------------------------------------ *)
  (* Figure 14: AP2kd-tree vs AP2G-tree under the relaxed model.          *)

  let fig14 { full } =
    let depth = if full then 4 else 3 in
    let rng = Prng.create 14 in
    let roles, policies = Workload.gen_policies rng Workload.default_policies in
    let universe = Universe.create roles in
    let sk = keygen_for universe in
    let space = Keyspace.create ~dims:2 ~depth in
    let side = Keyspace.side space in
    (* Spatially clustered policies (as in the paper's Figure 6 narrative):
       records in the same quadrant share a policy, so a good split isolates
       whole quadrants. *)
    let records =
      List.concat_map
        (fun x ->
          List.filter_map
            (fun y ->
              if Prng.float rng 1.0 < 0.4 then begin
                let quadrant = (2 * (2 * x / side)) + (2 * y / side) in
                Some
                  (Record.make ~key:[| x; y |]
                     ~value:(Printf.sprintf "r%d-%d" x y)
                     ~policy:policies.(quadrant mod Array.length policies))
              end
              else None)
            (List.init side Fun.id))
        (List.init side Fun.id)
    in
    let g_tree = Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"g" records in
    let kd_tree = Ap2kd.build drbg ~mvk ~sk ~space ~universe records in
    let kd_mid = Ap2kd.build drbg ~mvk ~sk ~space ~universe ~split:`Midpoint records in
    let user =
      Workload.user_for_fraction rng ~roles ~policies ~frac:0.25
    in
    let rows =
      List.map
        (fun frac ->
          let query = Workload.range_query rng ~space ~frac in
          let vo_g, st_g = Ap2g.range_vo drbg ~mvk g_tree ~user query in
          let res_g, u_g = Pool.time (fun () ->
              Ap2g.verify ~mvk ~t_universe:universe ~user ~query vo_g) in
          let vo_k, st_k = Ap2kd.range_vo drbg ~mvk kd_tree ~user query in
          let res_k, u_k = Pool.time (fun () ->
              Ap2kd.verify ~mvk ~t_universe:universe ~user ~query vo_k) in
          let vo_m, st_m = Ap2kd.range_vo drbg ~mvk kd_mid ~user query in
          let res_m, _ = Pool.time (fun () ->
              Ap2kd.verify ~mvk ~t_universe:universe ~user ~query vo_m) in
          (match (res_g, res_k, res_m) with
           | Ok a, Ok b, Ok c ->
             assert (List.length a = List.length b && List.length b = List.length c)
           | _ -> failwith "fig14 verify failed");
          [ Printf.sprintf "%.1f%%" (frac *. 100.);
            Report.ms st_g.Ap2g.sp_time; Report.ms st_k.Ap2kd.sp_time;
            Report.ms st_m.Ap2kd.sp_time;
            Report.ms u_g; Report.ms u_k;
            Report.kb (Vo.size vo_g); Report.kb (Vo.size vo_k); Report.kb (Vo.size vo_m) ])
        [ 0.01; 0.05; 0.1; 0.3 ]
    in
    Report.print_table
      ~title:"Figure 14: AP2kd vs AP2G, relaxed model (paper: kd with clause-objective split wins; midpoint split is the ablation)"
      ~header:
        [ "range"; "SP g (ms)"; "SP kd (ms)"; "SP kd-mid (ms)"; "user g (ms)";
          "user kd (ms)"; "VO g (KB)"; "VO kd (KB)"; "VO kd-mid (KB)" ]
      rows

  (* ------------------------------------------------------------------ *)
  (* Ablation: batched vs one-by-one APS verification (extension).        *)

  let ablation_batch { full } =
    let depth = if full then 5 else 4 in
    let inst = make_instance ~seed:77 ~depth ~rows:2_000 () in
    let user = user_20pct ~seed:77 inst in
    let rng = Prng.create 770 in
    let rows =
      List.map
        (fun frac ->
          let query = Workload.range_query rng ~space:inst.space ~frac in
          let vo, _ = Ap2g.range_vo drbg ~mvk inst.tree ~user query in
          let aps_count =
            List.length
              (List.filter (function Vo.Accessible _ -> false | _ -> true) vo)
          in
          let check = function
            | Ok r -> List.length r
            | Error _ -> failwith "ablation verify failed"
          in
          let res_p, plain_t =
            Pool.time (fun () ->
                Ap2g.verify ~mvk ~t_universe:inst.universe ~user ~query vo)
          in
          let res_b, batch_t =
            Pool.time (fun () ->
                Ap2g.verify ~batch:drbg ~mvk ~t_universe:inst.universe ~user
                  ~query vo)
          in
          assert (check res_p = check res_b);
          [ Printf.sprintf "%.1f%%" (frac *. 100.); string_of_int aps_count;
            Report.ms plain_t; Report.ms batch_t;
            Printf.sprintf "%.2fx" (plain_t /. batch_t) ])
        [ 0.01; 0.05; 0.2 ]
    in
    Report.print_table
      ~title:"Ablation: small-exponent batch verification of APS entries (extension beyond the paper)"
      ~header:[ "range"; "APS entries"; "plain (ms)"; "batched (ms)"; "speedup" ]
      rows

  (* ------------------------------------------------------------------ *)
  (* Figure 15: duplicate handling.                                       *)

  let fig15 { full } =
    let depth = if full then 3 else 2 in
    let rng = Prng.create 15 in
    let roles, policies = Workload.gen_policies rng Workload.default_policies in
    let universe = Universe.create roles in
    let sk = keygen_for universe in
    let space = Keyspace.create ~dims:2 ~depth in
    let side = Keyspace.side space in
    (* Records with duplicates: every cell holds 0..3 records with random
       policies. *)
    let records =
      List.concat_map
        (fun x ->
          List.concat_map
            (fun y ->
              List.init (Prng.int rng 4) (fun i ->
                  Record.make ~key:[| x; y |]
                    ~value:(Printf.sprintf "v%d-%d-%d" x y i)
                    ~policy:policies.(Prng.int rng (Array.length policies))))
            (List.init side Fun.id))
        (List.init side Fun.id)
    in
    let user = Workload.user_for_fraction rng ~roles ~policies ~frac:0.2 in
    let query = Box.of_range ~alpha:[| 0; 0 |] ~beta:[| side - 1; side - 1 |] in
    (* ZK: virtual dimension + ordinary AP2G tree. *)
    let lifted_space, lifted = Dup.lift ~space records in
    let z_tree, z_build =
      Pool.time (fun () ->
          Ap2g.build drbg ~mvk ~sk ~space:lifted_space ~universe ~pseudo_seed:"z"
            lifted)
    in
    let z_query = Dup.lift_query ~lifted_space query in
    let vo_z, st_z = Ap2g.range_vo drbg ~mvk z_tree ~user z_query in
    let res_z, u_z = Pool.time (fun () ->
        Ap2g.verify ~mvk ~t_universe:universe ~user ~query:z_query vo_z) in
    (* non-ZK: embedded dup counts. *)
    let n_tree, n_build =
      Pool.time (fun () ->
          Dup.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"n" records)
    in
    let vo_n, st_n = Dup.range_vo drbg ~mvk n_tree ~user query in
    let res_n, u_n = Pool.time (fun () ->
        Dup.verify ~mvk ~t_universe:universe ~user ~query vo_n) in
    (* Basic on the lifted space. *)
    let flat = Equality.of_ap2g z_tree in
    let vo_b, st_b = Equality.range_vo drbg ~mvk flat ~user z_query in
    let res_b, u_b = Pool.time (fun () ->
        Equality.verify_range ~mvk ~t_universe:universe ~user ~query:z_query vo_b) in
    (match (res_z, res_n, res_b) with
     | Ok a, Ok b, Ok c ->
       assert (List.length a = List.length c);
       ignore b
     | _ -> failwith "fig15 verify failed");
    let z_stats = Ap2g.stats z_tree in
    Report.print_table
      ~title:"Figure 15: duplicate records (paper: ZK costs <= 3x non-ZK; AP2G about half of basic)"
      ~header:[ "approach"; "build (s)"; "index (MB)"; "SP (ms)"; "user (ms)"; "VO (KB)" ]
      [
        [ "AP2G (ZK, virtual dim)"; Report.s z_build;
          Report.mb (z_stats.Ap2g.structure_bytes + z_stats.Ap2g.signature_bytes);
          Report.ms st_z.Ap2g.sp_time; Report.ms u_z; Report.kb (Vo.size vo_z) ];
        [ "AP2G (non-ZK, embedded)"; Report.s n_build; "-";
          Report.ms st_n.Ap2g.sp_time; Report.ms u_n; Report.kb (Dup.size vo_n) ];
        [ "Basic (ZK)"; Report.s z_build; "-";
          Report.ms st_b.Ap2g.sp_time; Report.ms u_b; Report.kb (Vo.size vo_b) ];
      ]
end
