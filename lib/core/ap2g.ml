module Expr = Zkqac_policy.Expr
module Attr = Zkqac_policy.Attr
module Universe = Zkqac_policy.Universe
module Hierarchy = Zkqac_policy.Hierarchy

module T = Zkqac_telemetry.Telemetry
module Trace = Zkqac_telemetry.Trace
module Clock = Zkqac_telemetry.Monotonic_clock

module Make (P : Zkqac_group.Pairing_intf.PAIRING) = struct
  module Abs = Zkqac_abs.Abs.Make (P)
  module Vo = Vo.Make (P)

  type node = {
    box : Box.t;
    policy : Expr.t;
    signature : Abs.signature;
    content : content;
  }

  and content =
    | Leaf of Record.t  (* real or pseudo record in this unit cell *)
    | Children of node list

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
    root : node;
    num_records : int;
    stats : build_stats;
  }

  module Key_map = Map.Make (struct
    type t = int list

    let compare = Stdlib.compare
  end)

  let build drbg ~mvk ~sk ~space ~universe ?hierarchy ~pseudo_seed records =
    T.span "ads.build" @@ fun () ->
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
      signature_bytes := !signature_bytes + Abs.size s;
      s
    in
    let rec build_node box =
      structure_bytes := !structure_bytes + String.length (Box.encode box);
      if Keyspace.is_unit box then begin
        let key = Keyspace.key_of_unit box in
        let record =
          match Key_map.find_opt (Array.to_list key) by_key with
          | Some r -> r
          | None -> Record.pseudo ~seed:pseudo_seed ~key
        in
        incr leaf_sigs;
        structure_bytes :=
          !structure_bytes + String.length (Expr.to_string record.Record.policy);
        let signature =
          timed_sign ~msg:(Record.message_of record) ~policy:record.Record.policy
        in
        { box; policy = record.Record.policy; signature; content = Leaf record }
      end
      else begin
        let children = List.map build_node (Keyspace.children_boxes space box) in
        (* OR of the children's policies, with duplicates collapsed: the
           disjunction is semantically unchanged and signing stays cheap for
           the (common) all-pseudo subtrees. *)
        let distinct =
          List.sort_uniq Expr.compare
            (List.map (fun c -> Expr.canonical c.policy) children)
        in
        let policy = Expr.disj distinct in
        incr node_sigs;
        structure_bytes := !structure_bytes + String.length (Expr.to_string policy);
        let signature = timed_sign ~msg:(Record.node_message box) ~policy in
        { box; policy; signature; content = Children children }
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

  let keep_set t ~user = Expr.attrs (super_policy_for t ~user)

  type query_stats = { relax_calls : int; nodes_visited : int; sp_time : float }

  let relax_exn drbg ~mvk ~signature ~msg ~policy ~keep =
    match Abs.relax drbg mvk signature ~msg ~policy ~keep with
    | Some s -> s
    | None ->
      (* The tree invariant (node policy = OR of subtree policies) makes an
         inaccessible node always relaxable; failure is a construction bug. *)
      invalid_arg "Ap2g: relaxation failed on an inaccessible node"

  let node_inaccessible_entry_job drbg ~mvk ~keep node =
    (* Fork a per-job DRBG at job creation (sequential) so the thunks are
       self-contained and can run on any domain (Section 8.2). *)
    let job_drbg =
      Zkqac_hashing.Drbg.create ~seed:(Zkqac_hashing.Drbg.generate drbg 32)
    in
    match node.content with
    | Leaf record ->
      let key = record.Record.key in
      let value_hash = Record.value_hash record.Record.value in
      fun () ->
        let aps =
          relax_exn job_drbg ~mvk ~signature:node.signature
            ~msg:(Record.message ~key ~value_hash)
            ~policy:node.policy ~keep
        in
        Vo.Inaccessible_leaf { region = node.box; key; value_hash; aps }
    | Children _ ->
      fun () ->
        let aps =
          relax_exn job_drbg ~mvk ~signature:node.signature
            ~msg:(Record.node_message node.box) ~policy:node.policy ~keep
        in
        Vo.Inaccessible_node { region = node.box; aps }

  let range_vo ?(pmap = List.map (fun job -> job ())) drbg ~mvk t ~user query =
    Trace.with_span "sp.query"
      ~attrs:
        [ ("op", Trace.Str "ap2g.range");
          ("tree_depth", Trace.Int (Keyspace.depth t.space)) ]
    @@ fun ctx ->
    let t0 = Clock.now_ns () in
    let user = effective_user t ~user in
    let keep = keep_set t ~user in
    let visited = ref 0 in
    let direct = ref [] in
    let jobs = ref [] in
    (* Breadth-first search of Algorithm 3 (a queue; recursion order does not
       affect the result set, only traversal bookkeeping). *)
    let queue = Queue.create () in
    Queue.add t.root queue;
    while not (Queue.is_empty queue) do
      let node = Queue.pop queue in
      incr visited;
      if Box.contains_box query node.box then begin
        if Expr.eval node.policy user then begin
          match node.content with
          | Leaf record ->
            if Expr.eval record.Record.policy user then
              direct :=
                Vo.Accessible { region = node.box; record; app = node.signature }
                :: !direct
            else
              (* Node accessible but this particular record is not: happens
                 only at leaves whose siblings make the parent accessible. *)
              jobs := node_inaccessible_entry_job drbg ~mvk ~keep node :: !jobs
          | Children children -> List.iter (fun c -> Queue.add c queue) children
        end
        else jobs := node_inaccessible_entry_job drbg ~mvk ~keep node :: !jobs
      end
      else begin
        match Box.intersect query node.box with
        | None -> ()
        | Some _ ->
          (match node.content with
           | Children children -> List.iter (fun c -> Queue.add c queue) children
           | Leaf _ ->
             (* A unit cell partially intersecting an aligned query cannot
                happen: unit cells are atomic. *)
             assert false)
      end
    done;
    let relax_jobs = List.rev !jobs in
    let relaxed =
      Trace.with_span "sp.relax" ~parent:ctx (fun _ -> pmap relax_jobs)
    in
    let vo = List.rev_append !direct relaxed in
    Trace.set_attrs ctx
      [ ("nodes_visited", Trace.Int !visited);
        ("relax_calls", Trace.Int (List.length relax_jobs));
        ("vo_entries", Trace.Int (List.length vo)) ];
    ( vo,
      {
        relax_calls = List.length relax_jobs;
        nodes_visited = !visited;
        sp_time = Clock.elapsed_since t0;
      } )

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

  (* --- node access for the join algorithm --- *)

  let root t = t.root
  let node_box n = n.box
  let node_policy n = n.policy
  let node_children n = match n.content with Leaf _ -> [] | Children c -> c

  let node_entry_inaccessible drbg ~mvk t ~user node =
    let user = effective_user t ~user in
    let keep = keep_set t ~user in
    node_inaccessible_entry_job drbg ~mvk ~keep node ()

  let node_leaf_record n = match n.content with Leaf r -> Some r | Children _ -> None

  let node_leaf_app _t n =
    match n.content with Leaf _ -> Some n.signature | Children _ -> None

  let node_accessible t ~user n =
    let user = effective_user t ~user in
    match n.content with
    | Leaf r -> Expr.eval r.Record.policy user
    | Children _ -> Expr.eval n.policy user

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
    let rec put_node node =
      Wire.bytes w (Expr.to_string node.policy);
      Wire.bytes w (Abs.to_bytes node.signature);
      match node.content with
      | Leaf record ->
        Wire.u8 w 0;
        Wire.bytes w record.Record.value
      | Children children ->
        Wire.u8 w 1;
        List.iter put_node children
    in
    put_node t.root;
    Wire.contents w

  let decode ?limits data =
    Wire.decode ?limits data @@ fun r ->
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
    let rec get_node box =
      Wire.nested r @@ fun () ->
      let policy =
        let s = Wire.rbytes r in
        match Expr.of_string s with
        | p -> p
        | exception (Invalid_argument _ | Failure _) -> raise Wire.Malformed
      in
      let sig_data = Wire.rbytes r in
      let signature =
        match Abs.of_bytes sig_data with
        | Some s -> s
        | None -> raise Wire.Malformed
      in
      sig_bytes := !sig_bytes + String.length sig_data;
      struct_bytes :=
        !struct_bytes + String.length (Box.encode box)
        + String.length (Expr.to_string policy);
      match Wire.ru8 r with
      | 0 ->
        let value = Wire.rbytes r in
        if not (Keyspace.is_unit box) then raise Wire.Malformed;
        incr leaf_sigs;
        let record = Record.make ~key:(Keyspace.key_of_unit box) ~value ~policy in
        { box; policy; signature; content = Leaf record }
      | 1 ->
        incr node_sigs;
        let children = List.map get_node (Keyspace.children_boxes space box) in
        { box; policy; signature; content = Children children }
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
