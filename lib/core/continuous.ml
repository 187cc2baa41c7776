module Expr = Zkqac_policy.Expr
module Attr = Zkqac_policy.Attr
module Universe = Zkqac_policy.Universe
module Trace = Zkqac_telemetry.Trace
module Clock = Zkqac_telemetry.Monotonic_clock
module Wire = Zkqac_util.Wire

module Make (P : Zkqac_group.Pairing_intf.PAIRING) = struct
  module Abs = Zkqac_abs.Abs.Make (P)
  module Vo = Vo.Make (P)

  let pseudo_policy = Expr.Leaf Attr.pseudo_role

  (* Records are [Leaf] nodes on their unit cells, gaps [Pseudo] nodes. *)
  type t = {
    universe : Universe.t;
    records : Vo.node array;  (* sorted by key *)
    gaps : Vo.node array;     (* gaps.(i) precedes records.(i); last gap after *)
  }

  let key_of (n : Vo.node) = n.box.Box.lo.(0)

  let build drbg ~mvk ~sk ~universe records =
    List.iter
      (fun (r : Record.t) ->
        if Array.length r.Record.key <> 1 then
          invalid_arg "Continuous.build: need 1-D keys";
        if r.Record.key.(0) < 0 || r.Record.key.(0) >= Wire.max_u32 then
          invalid_arg "Continuous.build: key outside [0, 2^32 - 1)")
      records;
    let sorted =
      List.sort_uniq
        (fun (a : Record.t) (b : Record.t) -> compare a.Record.key.(0) b.Record.key.(0))
        records
    in
    if List.length sorted <> List.length records then
      invalid_arg "Continuous.build: duplicate keys";
    let signed =
      Array.of_list
        (List.map
           (fun (r : Record.t) ->
             let msg = Record.message_of r in
             { Vo.box = Box.of_point r.Record.key;
               policy = r.Record.policy;
               signature = Abs.store (Abs.sign drbg mvk sk ~msg ~policy:r.Record.policy);
               content = Leaf r })
           sorted)
    in
    let n = Array.length signed in
    (* Gap i is the half-open box [key(i-1) + 1, key(i)). The VO codec
       writes coordinates as u32, so 0 and [Wire.max_u32] stand for the
       infinite ends. *)
    let gaps =
      Array.init (n + 1) (fun i ->
          let lo = if i = 0 then 0 else key_of signed.(i - 1) + 1 in
          let hi = if i = n then Wire.max_u32 else key_of signed.(i) in
          let box = Box.make ~lo:[| lo |] ~hi:[| hi |] in
          let msg = Record.node_message box in
          { Vo.box;
            policy = pseudo_policy;
            signature = Abs.store (Abs.sign drbg mvk sk ~msg ~policy:pseudo_policy);
            content = Pseudo })
    in
    { universe; records = signed; gaps }

  let num_signatures t = Array.length t.records + Array.length t.gaps

  (* The entries [query] meets, as [Vo.prove] slots: its records in key
     order, then its non-empty gaps. Records i0 .. i1 - 1 lie in the query,
     and only gaps i0 .. i1 can meet it. *)
  let walk drbg ~mvk t ~user query =
    let keep = Expr.attrs (Universe.super_policy t.universe ~user) in
    (* The first record from [a] on whose key is at least [k]. *)
    let rec first k a b =
      if a >= b then a
      else
        let mid = (a + b) / 2 in
        if key_of t.records.(mid) < k then first k (mid + 1) b else first k a mid
    in
    let n = Array.length t.records in
    let i0 = first query.Box.lo.(0) 0 n in
    let i1 = first query.Box.hi.(0) i0 n in
    let slot = Vo.answer drbg ~mvk `Plain ~keep ~user in
    let records = List.init (i1 - i0) (fun k -> slot t.records.(i0 + k)) in
    let gaps =
      List.filter_map
        (fun (gap : Vo.node) ->
          if Box.intersects query gap.box then Some (slot gap) else None)
        (Array.to_list (Array.sub t.gaps i0 (i1 - i0 + 1)))
    in
    records @ gaps

  let equality_vo drbg ~mvk t ~user key =
    (* A key in the domain is either a record or inside exactly one gap. *)
    match walk drbg ~mvk t ~user (Box.of_point [| key |]) with
    | [ Either.Left entry ] -> entry
    | [ Either.Right job ] -> job ()
    | _ -> invalid_arg "Continuous.equality_vo: key outside [0, 2^32 - 1)"

  let range_vo drbg ~mvk t ~user ~lo ~hi =
    Trace.with_span "sp.query" ~attrs:[ ("op", Trace.Str "continuous.range") ]
    @@ fun ctx ->
    let t0 = Clock.now_ns () in
    let slots = walk drbg ~mvk t ~user (Box.of_range ~alpha:[| lo |] ~beta:[| hi |]) in
    let visited = List.length slots in
    Vo.prove ~pmap:(List.map (fun job -> job ())) ctx ~t0 ~visited slots

  let verify_range ?batch ~mvk ~t_universe ~user ~lo ~hi vo =
    let super_policy = Universe.super_policy t_universe ~user in
    Vo.verify ?batch ~mvk ~binding:`Plain ~super_policy ~user
      ~query:(Box.of_range ~alpha:[| lo |] ~beta:[| hi |])
      vo
end
