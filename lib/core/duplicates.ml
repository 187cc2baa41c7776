module Expr = Zkqac_policy.Expr
module Attr = Zkqac_policy.Attr
module Universe = Zkqac_policy.Universe
module Sha256 = Zkqac_hashing.Sha256
module Wire = Zkqac_util.Wire
module Clock = Zkqac_telemetry.Monotonic_clock

module Make (P : Zkqac_group.Pairing_intf.PAIRING) = struct
  module Abs = Zkqac_abs.Abs.Make (P)
  module Vo = Vo.Make (P)
  module Ap2g = Ap2g.Make (P)

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

  let lift ~space records =
    let records = merge_same_policy records in
    let dims = Keyspace.dims space in
    let depth = Keyspace.depth space in
    let lifted = Keyspace.create ~dims:(dims + 1) ~depth in
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

  type entry =
    | Dup_accessible of {
        key : int array;
        dup_num : int;
        dup_id : int;
        value : string;
        policy : Expr.t;
        app : Abs.signature;
      }
    | Dup_inaccessible of {
        key : int array;
        dup_num : int;
        dup_id : int;
        value_hash : string;
        aps : Abs.signature;
      }
    | Cell_inaccessible of { region : Box.t; aps : Abs.signature }

  type vo = entry list

  let dup_message ~key ~value_hash ~dup_num ~dup_id =
    Record.message ~key ~value_hash
    ^ Sha256.digest_list [ "dup"; string_of_int dup_num; string_of_int dup_id ]

  type dup = { record : Record.t; dup_id : int; app : Abs.signature }

  type node = {
    box : Box.t;
    policy : Expr.t;
    agg_sig : Abs.signature;  (* over node_message box, for whole-cell/subtree APS *)
    content : content;
  }

  and content = Group of dup list | Children of node list

  type t = { space : Keyspace.t; universe : Universe.t; root : node }

  let build drbg ~mvk ~sk ~space ~universe ~pseudo_seed records =
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
    let rec build_node box =
      if Keyspace.is_unit box then begin
        let key = Keyspace.key_of_unit box in
        let group =
          match Key_map.find_opt (Array.to_list key) groups with
          | Some rs -> List.rev rs
          | None -> [ Record.pseudo ~seed:pseudo_seed ~key ]
        in
        let dup_num = List.length group in
        let dups =
          List.mapi
            (fun dup_id (r : Record.t) ->
              let msg =
                dup_message ~key ~value_hash:(Record.value_hash r.Record.value)
                  ~dup_num ~dup_id
              in
              { record = r; dup_id; app = Abs.sign drbg mvk sk ~msg ~policy:r.Record.policy })
            group
        in
        let distinct =
          List.sort_uniq Expr.compare
            (List.map (fun d -> Expr.canonical d.record.Record.policy) dups)
        in
        let policy = Expr.disj distinct in
        let agg_sig = Abs.sign drbg mvk sk ~msg:(Record.node_message box) ~policy in
        { box; policy; agg_sig; content = Group dups }
      end
      else begin
        let children = List.map build_node (Keyspace.children_boxes space box) in
        let distinct =
          List.sort_uniq Expr.compare (List.map (fun c -> Expr.canonical c.policy) children)
        in
        let policy = Expr.disj distinct in
        let agg_sig = Abs.sign drbg mvk sk ~msg:(Record.node_message box) ~policy in
        { box; policy; agg_sig; content = Children children }
      end
    in
    { space; universe; root = build_node (Keyspace.whole space) }

  let range_vo drbg ~mvk t ~user query =
    let t0 = Clock.now_ns () in
    let keep = Expr.attrs (Universe.super_policy t.universe ~user) in
    let visited = ref 0 and relaxed = ref 0 in
    let out = ref [] in
    let relax_exn ~signature ~msg ~policy =
      incr relaxed;
      match Abs.relax drbg mvk signature ~msg ~policy ~keep with
      | Some s -> s
      | None -> invalid_arg "Duplicates: relaxation failed"
    in
    let queue = Queue.create () in
    Queue.add t.root queue;
    while not (Queue.is_empty queue) do
      let node = Queue.pop queue in
      incr visited;
      if Box.contains_box query node.box then begin
        if not (Expr.eval node.policy user) then begin
          let aps =
            relax_exn ~signature:node.agg_sig
              ~msg:(Record.node_message node.box) ~policy:node.policy
          in
          out := Cell_inaccessible { region = node.box; aps } :: !out
        end
        else begin
          match node.content with
          | Children children -> List.iter (fun c -> Queue.add c queue) children
          | Group dups ->
            let dup_num = List.length dups in
            List.iter
              (fun d ->
                let r = d.record in
                if Expr.eval r.Record.policy user then
                  out :=
                    Dup_accessible
                      {
                        key = r.Record.key;
                        dup_num;
                        dup_id = d.dup_id;
                        value = r.Record.value;
                        policy = r.Record.policy;
                        app = d.app;
                      }
                    :: !out
                else begin
                  let value_hash = Record.value_hash r.Record.value in
                  let msg =
                    dup_message ~key:r.Record.key ~value_hash ~dup_num
                      ~dup_id:d.dup_id
                  in
                  let aps = relax_exn ~signature:d.app ~msg ~policy:r.Record.policy in
                  out :=
                    Dup_inaccessible
                      { key = r.Record.key; dup_num; dup_id = d.dup_id; value_hash; aps }
                    :: !out
                end)
              dups
        end
      end
      else if Box.intersects query node.box then begin
        match node.content with
        | Children children -> List.iter (fun c -> Queue.add c queue) children
        | Group _ -> assert false
      end
    done;
    ( List.rev !out,
      {
        Ap2g.relax_calls = !relaxed;
        nodes_visited = !visited;
        sp_time = Clock.elapsed_since t0;
      } )

  let verify ~mvk ~t_universe ~user ~query vo =
    let ( let* ) = Result.bind in
    let super_policy = Universe.super_policy t_universe ~user in
    (* Group per-dup entries by key. *)
    let by_key = Hashtbl.create 64 in
    let cells = ref [] in
    List.iter
      (fun e ->
        match e with
        | Dup_accessible { key; _ } | Dup_inaccessible { key; _ } ->
          let k = Array.to_list key in
          Hashtbl.replace by_key k (e :: (try Hashtbl.find by_key k with Not_found -> []))
        | Cell_inaccessible { region; aps } -> cells := (region, aps) :: !cells)
      vo;
    (* Completeness: dup-group cells + inaccessible regions tile the query. *)
    let group_regions =
      Hashtbl.fold (fun k _ acc -> Box.of_point (Array.of_list k) :: acc) by_key []
    in
    let* () =
      if Box.covers_exactly query (group_regions @ List.map fst !cells) then Ok ()
      else Error Vo.Completeness_gap
    in
    (* Inaccessible regions. *)
    let* () =
      List.fold_left
        (fun acc (region, aps) ->
          Result.bind acc (fun () ->
              if
                Abs.verify mvk ~msg:(Record.node_message region) ~policy:super_policy
                  aps
              then Ok ()
              else Error (Vo.Bad_aps_signature "duplicate cell APS")))
        (Ok ()) !cells
    in
    (* Per-key duplicate groups: consistent counts, complete ids, valid
       signatures. *)
    let check_group _k entries acc =
      Result.bind acc (fun results ->
          let dup_nums =
            List.sort_uniq compare
              (List.map
                 (function
                   | Dup_accessible { dup_num; _ } | Dup_inaccessible { dup_num; _ } ->
                     dup_num
                   | Cell_inaccessible _ -> assert false)
                 entries)
          in
          match dup_nums with
          | [ n ] when List.length entries = n ->
            let ids =
              List.sort compare
                (List.map
                   (function
                     | Dup_accessible { dup_id; _ } | Dup_inaccessible { dup_id; _ } ->
                       dup_id
                     | Cell_inaccessible _ -> assert false)
                   entries)
            in
            if ids <> List.init n Fun.id then
              Error (Vo.Invalid_shape "duplicate ids incomplete")
            else begin
              List.fold_left
                (fun acc e ->
                  Result.bind acc (fun results ->
                      match e with
                      | Dup_accessible { key; dup_num; dup_id; value; policy; app } ->
                        if not (Box.contains_point query key) then
                          Error (Vo.Record_outside_query key)
                        else if not (Expr.eval policy user) then
                          Error (Vo.Policy_not_satisfied key)
                        else begin
                          let msg =
                            dup_message ~key ~value_hash:(Record.value_hash value)
                              ~dup_num ~dup_id
                          in
                          if Abs.verify mvk ~msg ~policy app then
                            Ok (Record.make ~key ~value ~policy :: results)
                          else Error (Vo.Bad_abs_signature "duplicate APP")
                        end
                      | Dup_inaccessible { key; dup_num; dup_id; value_hash; aps } ->
                        let msg = dup_message ~key ~value_hash ~dup_num ~dup_id in
                        if Abs.verify mvk ~msg ~policy:super_policy aps then Ok results
                        else Error (Vo.Bad_aps_signature "duplicate APS")
                      | Cell_inaccessible _ -> assert false))
                (Ok results) entries
            end
          | _ -> Error (Vo.Invalid_shape "inconsistent duplicate counts"))
    in
    let* results = Hashtbl.fold check_group by_key (Ok []) in
    Ok results

  let size vo =
    let w = Wire.writer () in
    List.iter
      (fun e ->
        match e with
        | Dup_accessible { key; dup_num; dup_id; value; policy; app } ->
          Wire.u8 w 0;
          Wire.int_array w key;
          Wire.u32 w dup_num;
          Wire.u32 w dup_id;
          Wire.bytes w value;
          Wire.bytes w (Expr.to_string policy);
          Wire.bytes w (Abs.to_bytes app)
        | Dup_inaccessible { key; dup_num; dup_id; value_hash; aps } ->
          Wire.u8 w 1;
          Wire.int_array w key;
          Wire.u32 w dup_num;
          Wire.u32 w dup_id;
          Wire.bytes w value_hash;
          Wire.bytes w (Abs.to_bytes aps)
        | Cell_inaccessible { region; aps } ->
          Wire.u8 w 2;
          Wire.bytes w (Box.encode region);
          Wire.bytes w (Abs.to_bytes aps))
      vo;
    String.length (Wire.contents w)
end
