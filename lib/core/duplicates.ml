module Expr = Zkqac_policy.Expr
module Universe = Zkqac_policy.Universe
module Trace = Zkqac_telemetry.Trace
module Clock = Zkqac_telemetry.Monotonic_clock

module Make (P : Zkqac_group.Pairing_intf.PAIRING) = struct
  module Abs = Zkqac_abs.Abs.Make (P)
  module Vo = Vo.Make (P)

  module Key_map = Map.Make (struct
    type t = int list

    let compare = Stdlib.compare
  end)

  (* --- ZK treatment --- *)

  let merge_same_policy records =
    let tbl = Hashtbl.create 64 in
    let order = ref [] in
    List.iter
      (fun (r : Record.t) ->
        let pk = Expr.to_string (Expr.canonical r.Record.policy) in
        let k = (Array.to_list r.Record.key, pk) in
        match Hashtbl.find_opt tbl k with
        | Some prev -> Hashtbl.replace tbl k { prev with Record.value = prev.Record.value ^ "\n" ^ r.Record.value }
        | None ->
          Hashtbl.add tbl k r;
          order := k :: !order)
      records;
    List.rev_map (Hashtbl.find tbl) !order

  let lifted_space space =
    Keyspace.create ~dims:(Keyspace.dims space + 1) ~depth:(Keyspace.depth space)

  let lift ~space records =
    let records = merge_same_policy records in
    let lifted = lifted_space space in
    let side = Keyspace.side space in
    let counters = Hashtbl.create 64 in
    let lifted_records =
      List.map
        (fun (r : Record.t) ->
          let k = Array.to_list r.Record.key in
          let x = try Hashtbl.find counters k with Not_found -> 0 in
          if x >= side then
            invalid_arg "Duplicates.lift: too many duplicates for the virtual axis";
          Hashtbl.replace counters k (x + 1);
          { r with Record.key = Array.append r.Record.key [| x |] })
        records
    in
    (lifted, lifted_records)

  let lift_query ~lifted_space box =
    let side = Keyspace.side lifted_space in
    Box.make
      ~lo:(Array.append box.Box.lo [| 0 |])
      ~hi:(Array.append box.Box.hi [| side |])

  let strip_key key = Array.sub key 0 (Array.length key - 1)

  (* --- non-ZK treatment --- *)

  (* Tree nodes carry lifted boxes: the base box times the whole virtual
     axis, signed over [Record.node_message]. A base unit cell is a [Group]
     of its duplicates. Duplicate [id] of a key with [n] duplicates is the
     leaf at key ++ [id], on its unit cell of the lifted space; the last
     one's region runs to the end of the virtual axis. [`Boxed] binds the
     region into the leaf message, so a group's regions tile the axis only
     when none of its duplicates is missing or added. *)
  type t = { space : Keyspace.t; universe : Universe.t; root : Vo.node }

  let build drbg ~mvk ~sk ~space ~universe ~pseudo_seed records =
    let lifted_space = lifted_space space in
    let side = Keyspace.side space in
    let groups =
      List.fold_left
        (fun acc (r : Record.t) ->
          if not (Keyspace.valid_key space r.Record.key) then
            invalid_arg "Duplicates.build: key outside space";
          let k = Array.to_list r.Record.key in
          Key_map.update k
            (function None -> Some [ r ] | Some l -> Some (r :: l))
            acc)
        Key_map.empty records
    in
    let node box policies content =
      let box = lift_query ~lifted_space box in
      let policy =
        Expr.disj (List.sort_uniq Expr.compare (List.map Expr.canonical policies))
      in
      let signature = Abs.sign drbg mvk sk ~msg:(Record.node_message box) ~policy in
      { Vo.box; policy; signature = Abs.store signature; content }
    in
    let pseudo = Record.pseudo ~seed:pseudo_seed in
    let rec build_node box =
      if Keyspace.is_unit box then begin
        let key = Keyspace.key_of_unit box in
        let group =
          match Key_map.find_opt (Array.to_list key) groups with
          | Some rs -> List.rev rs
          | None -> [ pseudo ~key ]
        in
        let n = List.length group in
        if n > side then
          invalid_arg "Duplicates.build: too many duplicates for the virtual axis";
        let dups =
          List.mapi
            (fun id (r : Record.t) ->
              let key = Array.append key [| id |] in
              let axis_hi = if id = n - 1 then side else id + 1 in
              let region = Box.make ~lo:key ~hi:(Array.append box.Box.hi [| axis_hi |]) in
              let msg =
                Vo.leaf_message `Boxed ~region ~key
                  ~value_hash:(Record.value_hash r.Record.value)
              in
              { Vo.box = region; policy = r.Record.policy;
                signature = Abs.store (Abs.sign drbg mvk sk ~msg ~policy:r.Record.policy);
                content = Leaf { r with Record.key } })
            group
        in
        node box (List.map (fun (d : Vo.node) -> d.policy) dups) (Group dups)
      end
      else begin
        let children = List.map build_node (Keyspace.children_boxes space box) in
        node box (List.map (fun (c : Vo.node) -> c.policy) children) (Children children)
      end
    in
    { space; universe; root = build_node (Keyspace.whole space) }

  let range_vo drbg ~mvk t ~user query =
    Trace.with_span "sp.query" ~attrs:[ ("op", Trace.Str "duplicates.range") ]
    @@ fun ctx ->
    let t0 = Clock.now_ns () in
    let query = lift_query ~lifted_space:(lifted_space t.space) query in
    let keep = Expr.attrs (Universe.super_policy t.universe ~user) in
    Vo.walk ~pmap:(List.map (fun job -> job ())) drbg ~mvk `Boxed ~keep ~user ctx ~t0
      query t.root

  let verify ~mvk ~space ~t_universe ~user ~query vo =
    let super_policy = Universe.super_policy t_universe ~user in
    let query = lift_query ~lifted_space:(lifted_space space) query in
    Vo.verify ~mvk ~binding:`Boxed ~super_policy ~user ~query vo
    |> Result.map
         (List.map (fun (r : Record.t) -> { r with Record.key = strip_key r.Record.key }))
end
