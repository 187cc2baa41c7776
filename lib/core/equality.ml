module Expr = Zkqac_policy.Expr
module Attr = Zkqac_policy.Attr
module Universe = Zkqac_policy.Universe

module Trace = Zkqac_telemetry.Trace
module Clock = Zkqac_telemetry.Monotonic_clock

module Make (P : Zkqac_group.Pairing_intf.PAIRING) = struct
  module Abs = Zkqac_abs.Abs.Make (P)
  module Vo = Vo.Make (P)
  module Ap2g = Ap2g.Make (P)

  module Key_map = Map.Make (struct
    type t = int list

    let compare = Stdlib.compare
  end)

  type t = {
    space : Keyspace.t;
    universe : Universe.t;
    entries : Vo.node Key_map.t;  (* the tree's leaves, by key *)
  }

  let of_ap2g tree =
    let rec walk entries (node : Vo.node) =
      match node.content with
      | Leaf record -> Key_map.add (Array.to_list record.Record.key) node entries
      | Children children | Group children -> List.fold_left walk entries children
      | Pseudo -> entries
    in
    {
      space = Ap2g.space tree;
      universe = Ap2g.universe tree;
      entries = walk Key_map.empty (Ap2g.root tree);
    }

  let universe t = t.universe
  let space t = t.space

  type outcome = Result of Record.t | Denied

  let query_vo drbg ~mvk t ~user key =
    if not (Keyspace.valid_key t.space key) then
      invalid_arg "Equality.query_vo: key outside space";
    Trace.with_span "sp.query" ~attrs:[ ("op", Trace.Str "equality.point") ]
    @@ fun _ ->
    let keep = Expr.attrs (Universe.super_policy t.universe ~user) in
    let leaf = Key_map.find (Array.to_list key) t.entries in
    match Vo.answer drbg ~mvk `Plain ~keep ~user leaf with
    | Either.Left entry -> entry
    | Either.Right job -> job ()

  let verify_equality ?batch ~mvk ~t_universe ~user ~key entry =
    let super_policy = Universe.super_policy t_universe ~user in
    let query = Box.of_point key in
    match Vo.verify ?batch ~mvk ~binding:`Plain ~super_policy ~user ~query [ entry ] with
    | Error e -> Error e
    | Ok [] -> Ok Denied
    | Ok [ r ] -> Ok (Result r)
    | Ok _ -> Error (Vo.Invalid_shape "equality VO returned more than one record")

  let range_vo drbg ~mvk t ~user query =
    Trace.with_span "sp.query" ~attrs:[ ("op", Trace.Str "equality.range") ]
    @@ fun ctx ->
    let t0 = Clock.now_ns () in
    let keep = Expr.attrs (Universe.super_policy t.universe ~user) in
    let visited = ref 0 and direct = ref [] and jobs = ref [] in
    Key_map.iter
      (fun klist leaf ->
        if Box.contains_point query (Array.of_list klist) then begin
          incr visited;
          match Vo.answer drbg ~mvk `Plain ~keep ~user leaf with
          | Either.Left e -> direct := e :: !direct
          | Either.Right job -> jobs := job :: !jobs
        end)
      t.entries;
    Vo.prove ~pmap:(List.map (fun job -> job ())) ctx ~t0 ~visited:!visited
      (List.rev_map Either.left !direct @ List.rev_map Either.right !jobs)

  let verify_range ?batch ~mvk ~t_universe ~user ~query vo =
    let super_policy = Universe.super_policy t_universe ~user in
    Vo.verify ?batch ~mvk ~binding:`Plain ~super_policy ~user ~query vo
end
