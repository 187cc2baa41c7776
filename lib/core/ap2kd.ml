module Expr = Zkqac_policy.Expr
module Attr = Zkqac_policy.Attr
module Universe = Zkqac_policy.Universe
module Kd_split = Zkqac_policy.Kd_split

module Trace = Zkqac_telemetry.Trace
module Clock = Zkqac_telemetry.Monotonic_clock

module Make (P : Zkqac_group.Pairing_intf.PAIRING) = struct
  module Abs = Zkqac_abs.Abs.Make (P)
  module Vo = Vo.Make (P)

  type build_stats = {
    leaf_signatures : int;
    node_signatures : int;
    pseudo_regions : int;
    sign_time : float;
    structure_bytes : int;
    signature_bytes : int;
  }

  type t = {
    space : Keyspace.t;
    universe : Universe.t;
    root : Vo.node;
    stats : build_stats;
  }

  (* Pick the split plane: dimension cycles with depth; position from
     Algorithm 7 over the records ordered along that dimension, falling back
     to the midpoint when the objective split is degenerate (all records on
     one side) or when the depth bound of Section 9.1 is exceeded. *)
  let choose_split ~strategy ~depth_bound box depth (records : Record.t list) =
    let dims = Box.dims box in
    let try_dim d =
      let dim = (depth + d) mod dims in
      let lo = box.Box.lo.(dim) and hi = box.Box.hi.(dim) in
      if hi - lo < 2 then None
      else begin
        let sorted =
          List.sort
            (fun (a : Record.t) (b : Record.t) ->
              compare a.Record.key.(dim) b.Record.key.(dim))
            records
        in
        let position =
          match strategy with
          | `Midpoint -> lo + ((hi - lo) / 2)
          | `Clause_objective ->
            if depth > depth_bound || List.length sorted < 2 then lo + ((hi - lo) / 2)
            else begin
              let policies =
                Array.of_list (List.map (fun (r : Record.t) -> r.Record.policy) sorted)
              in
              let x = Kd_split.split policies in
              let arr = Array.of_list sorted in
              let c = arr.(x).Record.key.(dim) in
              (* The plane must strictly separate box space; if the chosen
                 record sits at the region edge, fall back to midpoint. *)
              if c > lo && c < hi then c else lo + ((hi - lo) / 2)
            end
        in
        Some (dim, position)
      end
    in
    let rec first d = if d = dims then None else (match try_dim d with Some s -> Some s | None -> first (d + 1)) in
    first 0

  let build drbg ~mvk ~sk ~space ~universe ?(split = `Clause_objective) records =
    Trace.with_span "ads.build" @@ fun _ ->
    List.iter
      (fun (r : Record.t) ->
        if not (Keyspace.valid_key space r.Record.key) then
          invalid_arg "Ap2kd.build: key outside space")
      records;
    let leaf_sigs = ref 0 and node_sigs = ref 0 and pseudo = ref 0 in
    let sign_time = ref 0.0 in
    let structure_bytes = ref 0 and signature_bytes = ref 0 in
    let timed_sign ~msg ~policy =
      let t0 = Clock.now_ns () in
      let s = Abs.sign drbg mvk sk ~msg ~policy in
      sign_time := !sign_time +. Clock.elapsed_since t0;
      let s = Abs.store s in
      signature_bytes := !signature_bytes + Abs.stored_size s;
      s
    in
    let depth_bound = Keyspace.dims space * Keyspace.depth space in
    let pseudo_policy = Expr.Leaf Attr.pseudo_role in
    let rec build_node box depth (records : Record.t list) =
      structure_bytes := !structure_bytes + String.length (Box.encode box);
      match records with
      | [] ->
        incr pseudo;
        let signature = timed_sign ~msg:(Record.node_message box) ~policy:pseudo_policy in
        { Vo.box; policy = pseudo_policy; signature; content = Pseudo }
      | [ record ] ->
        incr leaf_sigs;
        let msg =
          Vo.leaf_message `Boxed ~region:box ~key:record.Record.key
            ~value_hash:(Record.value_hash record.Record.value)
        in
        let signature = timed_sign ~msg ~policy:record.Record.policy in
        structure_bytes :=
          !structure_bytes + String.length (Expr.to_string record.Record.policy);
        { Vo.box; policy = record.Record.policy; signature; content = Leaf record }
      | _ ->
        (match choose_split ~strategy:split ~depth_bound box depth records with
         | None ->
           (* Cannot split further: distinct keys in a unit box is impossible,
              so this is unreachable for valid input. *)
           invalid_arg "Ap2kd.build: duplicate keys"
         | Some (dim, position) ->
           let left_box =
             Box.make ~lo:box.Box.lo
               ~hi:(Array.mapi (fun i h -> if i = dim then position else h) box.Box.hi)
           in
           let right_box =
             Box.make
               ~lo:(Array.mapi (fun i l -> if i = dim then position else l) box.Box.lo)
               ~hi:box.Box.hi
           in
           let left_recs, right_recs =
             List.partition (fun (r : Record.t) -> r.Record.key.(dim) < position) records
           in
           let left = build_node left_box (depth + 1) left_recs in
           let right = build_node right_box (depth + 1) right_recs in
           let distinct =
             List.sort_uniq Expr.compare
               [ Expr.canonical left.policy; Expr.canonical right.policy ]
           in
           let policy = Expr.disj distinct in
           incr node_sigs;
           structure_bytes := !structure_bytes + String.length (Expr.to_string policy);
           let signature = timed_sign ~msg:(Record.node_message box) ~policy in
           { Vo.box; policy; signature; content = Children [ left; right ] })
    in
    let root = build_node (Keyspace.whole space) 0 records in
    {
      space;
      universe;
      root;
      stats =
        {
          leaf_signatures = !leaf_sigs;
          node_signatures = !node_sigs;
          pseudo_regions = !pseudo;
          sign_time = !sign_time;
          structure_bytes = !structure_bytes;
          signature_bytes = !signature_bytes;
        };
    }

  let stats t = t.stats
  let space t = t.space
  let universe t = t.universe

  type query_stats = Vo.query_stats = {
    relax_calls : int;
    nodes_visited : int;
    sp_time : float;
  }

  let range_vo drbg ~mvk t ~user query =
    Trace.with_span "sp.query" ~attrs:[ ("op", Trace.Str "ap2kd.range") ]
    @@ fun ctx ->
    let t0 = Clock.now_ns () in
    let keep = Expr.attrs (Universe.super_policy t.universe ~user) in
    Vo.walk ~pmap:(List.map (fun job -> job ())) drbg ~mvk `Boxed ~keep ~user ctx ~t0
      query t.root

  let verify ?batch ~mvk ~t_universe ~user ~query vo =
    let super_policy = Universe.super_policy t_universe ~user in
    Vo.verify ?batch ~mvk ~binding:`Boxed ~super_policy ~user ~query vo
end
