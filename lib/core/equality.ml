module Expr = Zkqac_policy.Expr
module Attr = Zkqac_policy.Attr
module Universe = Zkqac_policy.Universe

module T = Zkqac_telemetry.Telemetry
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
    entries : (Record.t * Abs.signature) Key_map.t;
  }

  let build drbg ~mvk ~sk ~space ~universe ~pseudo_seed records =
    T.span "ads.build" @@ fun () ->
    let by_key =
      List.fold_left
        (fun acc (r : Record.t) ->
          if not (Keyspace.valid_key space r.Record.key) then
            invalid_arg "Equality.build: key outside space";
          let k = Array.to_list r.Record.key in
          if Key_map.mem k acc then invalid_arg "Equality.build: duplicate key";
          Key_map.add k r acc)
        Key_map.empty records
    in
    (* Enumerate every key of the space; non-existent ones become signed
       pseudo records. *)
    let dims = Keyspace.dims space in
    let side = Keyspace.side space in
    let entries = ref Key_map.empty in
    let key = Array.make dims 0 in
    let rec enumerate d =
      if d = dims then begin
        let k = Array.to_list key in
        let record =
          match Key_map.find_opt k by_key with
          | Some r -> r
          | None -> Record.pseudo ~seed:pseudo_seed ~key:(Array.copy key)
        in
        let signature =
          Abs.sign drbg mvk sk ~msg:(Record.message_of record)
            ~policy:record.Record.policy
        in
        entries := Key_map.add k (record, signature) !entries
      end
      else
        for v = 0 to side - 1 do
          key.(d) <- v;
          enumerate (d + 1)
        done
    in
    enumerate 0;
    { space; universe; entries = !entries }

  let of_ap2g tree =
    let entries = ref Key_map.empty in
    let rec walk node =
      match Ap2g.node_children node with
      | [] ->
        let record = Option.get (Ap2g.node_leaf_record node) in
        let signature = Option.get (Ap2g.node_leaf_app tree node) in
        entries :=
          Key_map.add (Array.to_list record.Record.key) (record, signature) !entries
      | children -> List.iter walk children
    in
    walk (Ap2g.root tree);
    { space = Ap2g.space tree; universe = Ap2g.universe tree; entries = !entries }

  let universe t = t.universe
  let space t = t.space

  type outcome = Result of Record.t | Denied

  let entry_for drbg ~mvk t ~keep ~user (record, signature) =
    let drbg =
      Zkqac_hashing.Drbg.create ~seed:(Zkqac_hashing.Drbg.generate drbg 32)
    in
    if Expr.eval record.Record.policy user then
      Vo.Accessible
        { region = Box.of_point record.Record.key; record; app = signature }
    else begin
      let key = record.Record.key in
      let value_hash = Record.value_hash record.Record.value in
      let aps =
        match
          Abs.relax drbg mvk signature
            ~msg:(Record.message ~key ~value_hash)
            ~policy:record.Record.policy ~keep
        with
        | Some s -> s
        | None -> invalid_arg "Equality: relaxation failed on inaccessible record"
      in
      ignore t;
      Vo.Inaccessible_leaf { region = Box.of_point key; key; value_hash; aps }
    end

  let query_vo drbg ~mvk t ~user key =
    if not (Keyspace.valid_key t.space key) then
      invalid_arg "Equality.query_vo: key outside space";
    Trace.with_span "sp.query" ~attrs:[ ("op", Trace.Str "equality.point") ]
    @@ fun _ ->
    let keep = Expr.attrs (Universe.super_policy t.universe ~user) in
    let record, signature = Key_map.find (Array.to_list key) t.entries in
    entry_for drbg ~mvk t ~keep ~user (record, signature)

  let verify_equality ?batch ~mvk ~t_universe ~user ~key entry =
    let super_policy = Universe.super_policy t_universe ~user in
    let query = Box.of_point key in
    match Vo.verify ?batch ~mvk ~binding:`Plain ~super_policy ~user ~query [ entry ] with
    | Error e -> Error e
    | Ok [] -> Ok Denied
    | Ok [ r ] -> Ok (Result r)
    | Ok _ -> Error (Vo.Invalid_shape "equality VO returned more than one record")

  let range_vo ?(pmap = List.map (fun job -> job ())) drbg ~mvk t ~user query =
    Trace.with_span "sp.query" ~attrs:[ ("op", Trace.Str "equality.range") ]
    @@ fun ctx ->
    let t0 = Clock.now_ns () in
    let keep = Expr.attrs (Universe.super_policy t.universe ~user) in
    let jobs = ref [] in
    let count = ref 0 in
    Key_map.iter
      (fun klist entry ->
        let key = Array.of_list klist in
        if Box.contains_point query key then begin
          incr count;
          (* Fork the DRBG per job *now* (sequentially) so the thunk is safe
             to run on any domain. *)
          let job_drbg =
            Zkqac_hashing.Drbg.create ~seed:(Zkqac_hashing.Drbg.generate drbg 32)
          in
          jobs := (fun () -> entry_for job_drbg ~mvk t ~keep ~user entry) :: !jobs
        end)
      t.entries;
    let relax_calls =
      List.length
        (List.filter
           (fun (r, _) -> not (Expr.eval r.Record.policy user))
           (List.filter_map
              (fun (k, e) ->
                if Box.contains_point query (Array.of_list k) then Some e else None)
              (Key_map.bindings t.entries)))
    in
    let vo =
      Trace.with_span "sp.relax" ~parent:ctx (fun _ -> pmap (List.rev !jobs))
    in
    Trace.set_attrs ctx
      [ ("nodes_visited", Trace.Int !count);
        ("relax_calls", Trace.Int relax_calls);
        ("vo_entries", Trace.Int (List.length vo)) ];
    ( vo,
      {
        Ap2g.relax_calls;
        nodes_visited = !count;
        sp_time = Clock.elapsed_since t0;
      } )

  let verify_range ?batch ~mvk ~t_universe ~user ~query vo =
    let super_policy = Universe.super_policy t_universe ~user in
    Vo.verify ?batch ~mvk ~binding:`Plain ~super_policy ~user ~query vo
end
