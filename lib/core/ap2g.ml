module Expr = Zkqac_policy.Expr
module Attr = Zkqac_policy.Attr
module Universe = Zkqac_policy.Universe
module Hierarchy = Zkqac_policy.Hierarchy

module Trace = Zkqac_telemetry.Trace
module Clock = Zkqac_telemetry.Monotonic_clock

module Make (P : Zkqac_group.Pairing_intf.PAIRING) = struct
  module Abs = Zkqac_abs.Abs.Make (P)
  module Vo = Vo.Make (P)

  type build_stats = {
    leaf_signatures : int;
    node_signatures : int;
    sign_time : float;
    structure_bytes : int;
    signature_bytes : int;
  }

  type t = {
    space : Keyspace.t;
    universe : Universe.t;
    hierarchy : Hierarchy.t option;
    root : Vo.node;
    num_records : int;
    stats : build_stats;
  }

  module Key_map = Map.Make (struct
    type t = int list

    let compare = Stdlib.compare
  end)

  let build drbg ~mvk ~sk ~space ~universe ?hierarchy ~pseudo_seed records =
    Trace.with_span "ads.build" @@ fun _ ->
    let augment =
      match hierarchy with
      | None -> Fun.id
      | Some h -> Hierarchy.augment_policy h
    in
    let by_key =
      List.fold_left
        (fun acc (r : Record.t) ->
          if not (Keyspace.valid_key space r.Record.key) then
            invalid_arg "Ap2g.build: key outside space";
          let k = Array.to_list r.Record.key in
          if Key_map.mem k acc then invalid_arg "Ap2g.build: duplicate key";
          Key_map.add k { r with Record.policy = augment r.Record.policy } acc)
        Key_map.empty records
    in
    let leaf_sigs = ref 0 and node_sigs = ref 0 in
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
    let pseudo = Record.pseudo ~seed:pseudo_seed in
    let rec build_node box =
      structure_bytes := !structure_bytes + String.length (Box.encode box);
      if Keyspace.is_unit box then begin
        let key = Keyspace.key_of_unit box in
        let record =
          match Key_map.find_opt (Array.to_list key) by_key with
          | Some r -> r
          | None -> pseudo ~key
        in
        incr leaf_sigs;
        structure_bytes :=
          !structure_bytes + String.length (Expr.to_string record.Record.policy);
        let signature =
          timed_sign ~msg:(Record.message_of record) ~policy:record.Record.policy
        in
        { Vo.box; policy = record.Record.policy; signature; content = Leaf record }
      end
      else begin
        let children = List.map build_node (Keyspace.children_boxes space box) in
        (* OR of the children's policies, with duplicates collapsed: the
           disjunction is semantically unchanged and signing stays cheap for
           the (common) all-pseudo subtrees. *)
        let distinct =
          List.sort_uniq Expr.compare
            (List.map (fun (c : Vo.node) -> Expr.canonical c.policy) children)
        in
        let policy = Expr.disj distinct in
        incr node_sigs;
        structure_bytes := !structure_bytes + String.length (Expr.to_string policy);
        let signature = timed_sign ~msg:(Record.node_message box) ~policy in
        { Vo.box; policy; signature; content = Children children }
      end
    in
    let root = build_node (Keyspace.whole space) in
    {
      space;
      universe;
      hierarchy;
      root;
      num_records = List.length records;
      stats =
        {
          leaf_signatures = !leaf_sigs;
          node_signatures = !node_sigs;
          sign_time = !sign_time;
          structure_bytes = !structure_bytes;
          signature_bytes = !signature_bytes;
        };
    }

  let stats t = t.stats
  let space t = t.space
  let universe t = t.universe
  let hierarchy t = t.hierarchy
  let num_records t = t.num_records

  let effective_user t ~user =
    match t.hierarchy with
    | None -> user
    | Some h -> Hierarchy.close_user h user

  let super_policy_for t ~user =
    match t.hierarchy with
    | None -> Universe.super_policy t.universe ~user
    | Some h -> Hierarchy.super_policy h t.universe ~user

  type query_stats = Vo.query_stats = {
    relax_calls : int;
    nodes_visited : int;
    sp_time : float;
  }

  let range_vo ?(pmap = List.map (fun job -> job ())) drbg ~mvk t ~user query =
    Trace.with_span "sp.query"
      ~attrs:
        [ ("op", Trace.Str "ap2g.range");
          ("tree_depth", Trace.Int (Keyspace.depth t.space)) ]
    @@ fun ctx ->
    let t0 = Clock.now_ns () in
    let user = effective_user t ~user in
    let keep = Expr.attrs (super_policy_for t ~user) in
    Vo.walk ~pmap drbg ~mvk `Plain ~keep ~user ctx ~t0 query t.root

  let verify ?batch ~mvk ~t_universe ?hierarchy ~user ~query vo =
    let super_policy =
      match hierarchy with
      | None -> Universe.super_policy t_universe ~user
      | Some h -> Hierarchy.super_policy h t_universe ~user
    in
    let user =
      match hierarchy with None -> user | Some h -> Hierarchy.close_user h user
    in
    Vo.verify ?batch ~mvk ~binding:`Plain ~super_policy ~user ~query vo

  let root t = t.root

  (* --- ADS serialization (the "outsource everything to the SP" step) --- *)

  module Wire = Zkqac_util.Wire

  let magic = "ZKQAC-AP2G-v1"

  let to_bytes t =
    let w = Wire.writer () in
    Wire.bytes w magic;
    Wire.u8 w (Keyspace.dims t.space);
    Wire.u8 w (Keyspace.depth t.space);
    let roles =
      List.filter
        (fun a -> not (Attr.equal a Attr.pseudo_role))
        (Universe.to_list t.universe)
    in
    Wire.u32 w (List.length roles);
    List.iter (Wire.bytes w) roles;
    (match t.hierarchy with
     | None -> Wire.u32 w 0
     | Some h ->
       let edges = Hierarchy.edges h in
       Wire.u32 w (List.length edges);
       List.iter
         (fun (c, p) ->
           Wire.bytes w c;
           Wire.bytes w p)
         edges);
    Wire.u32 w t.num_records;
    let rec put_node (node : Vo.node) =
      Wire.bytes w (Expr.to_string node.policy);
      Abs.put_stored w node.signature;
      match node.content with
      | Leaf record ->
        Wire.u8 w 0;
        Wire.bytes w record.Record.value
      | Children children ->
        Wire.u8 w 1;
        List.iter put_node children
      | Pseudo | Group _ -> invalid_arg "Ap2g.to_bytes: not an AP²G node"
    in
    put_node t.root;
    Wire.contents w

  let decode ?limits ?off ?len data =
    Wire.decode ?limits ?off ?len data @@ fun r ->
    if not (String.equal (Wire.rbytes r) magic) then raise Wire.Malformed;
    let dims = Wire.ru8 r in
    let depth = Wire.ru8 r in
    let space = Keyspace.create ~dims ~depth in
    let n_roles = Wire.rcount r in
    let rec take k acc =
      if k = 0 then List.rev acc else take (k - 1) (Wire.rbytes r :: acc)
    in
    let roles = take n_roles [] in
    let universe = Universe.create roles in
    let n_edges = Wire.rcount r in
    let rec take_edges k acc =
      if k = 0 then List.rev acc
      else begin
        let c = Wire.rbytes r in
        let p = Wire.rbytes r in
        take_edges (k - 1) ((c, p) :: acc)
      end
    in
    let hierarchy =
      if n_edges = 0 then None else Some (Hierarchy.create (take_edges n_edges []))
    in
    let num_records = Wire.ru32 r in
    let sig_bytes = ref 0 and struct_bytes = ref 0 in
    let leaf_sigs = ref 0 and node_sigs = ref 0 in
    (* Every box of the tree encodes to the same length. *)
    let box_bytes = String.length (Box.encode (Keyspace.whole space)) in
    (* One policy value per distinct policy string: a tree repeats a few
       hundred policies over thousands of nodes. *)
    let policies = Hashtbl.create 64 in
    let rec get_node box =
      Wire.nested r @@ fun () ->
      let s = Wire.rbytes r in
      let policy =
        match Hashtbl.find_opt policies s with
        | Some p -> p
        | None ->
          let p =
            match Expr.of_string s with
            | p -> p
            | exception (Invalid_argument _ | Failure _) -> raise Wire.Malformed
          in
          Hashtbl.add policies s p;
          p
      in
      (* The signature stays where it is in [data]: only its frame is
         checked here, and the SP decodes it when it answers the node. *)
      let off, len = Wire.rslice r in
      let signature =
        match Abs.stored_of_slice data ~off ~len with
        | Some s -> s
        | None -> raise Wire.Malformed
      in
      sig_bytes := !sig_bytes + len;
      struct_bytes := !struct_bytes + box_bytes + String.length s;
      match Wire.ru8 r with
      | 0 ->
        let value = Wire.rbytes r in
        if not (Keyspace.is_unit box) then raise Wire.Malformed;
        incr leaf_sigs;
        let record = Record.make ~key:(Keyspace.key_of_unit box) ~value ~policy in
        { Vo.box; policy; signature; content = Leaf record }
      | 1 ->
        incr node_sigs;
        let children = List.map get_node (Keyspace.children_boxes space box) in
        { Vo.box; policy; signature; content = Children children }
      | _ -> raise Wire.Malformed
    in
    let root = get_node (Keyspace.whole space) in
    {
      space;
      universe;
      hierarchy;
      root;
      num_records;
      stats =
        {
          leaf_signatures = !leaf_sigs;
          node_signatures = !node_sigs;
          sign_time = 0.0;
          structure_bytes = !struct_bytes;
          signature_bytes = !sig_bytes;
        };
    }

  let of_bytes data = Result.to_option (decode data)
end
