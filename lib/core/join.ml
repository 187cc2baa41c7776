module Expr = Zkqac_policy.Expr
module Wire = Zkqac_util.Wire
module Universe = Zkqac_policy.Universe
module Trace = Zkqac_telemetry.Trace
module Clock = Zkqac_telemetry.Monotonic_clock

module Make (P : Zkqac_group.Pairing_intf.PAIRING) = struct
  module Abs = Zkqac_abs.Abs.Make (P)
  module Vo = Vo.Make (P)
  module Ap2g = Ap2g.Make (P)

  type entry =
    | Pair of {
        r_record : Record.t;
        r_app : Abs.signature;
        s_record : Record.t;
        s_app : Abs.signature;
      }
    | R_side of Vo.entry
    | S_side of Vo.entry

  type t = entry list

  type stats = { relax_calls : int; nodes_visited : int; sp_time : float }

  (* The smallest node under [start] whose box still covers [box]. *)
  let rec smallest_covering start box =
    let covering_child =
      List.find_opt
        (fun c -> Box.contains_box (Ap2g.node_box c) box)
        (Ap2g.node_children start)
    in
    match covering_child with
    | Some c -> smallest_covering c box
    | None -> start

  let join_vo drbg ~mvk ~r ~s ~user query =
    if not (Keyspace.num_leaves (Ap2g.space r) = Keyspace.num_leaves (Ap2g.space s))
    then invalid_arg "Join.join_vo: trees over different keyspaces";
    Trace.with_span "sp.query" ~attrs:[ ("op", Trace.Str "join") ] @@ fun ctx ->
    let t0 = Clock.now_ns () in
    let visited = ref 0 and relaxed = ref 0 in
    let out = ref [] in
    let queue = Queue.create () in
    Queue.add (Ap2g.root r, Ap2g.root s) queue;
    while not (Queue.is_empty queue) do
      let nr, ns = Queue.pop queue in
      incr visited;
      let rbox = Ap2g.node_box nr in
      if Box.contains_box query rbox then begin
        if Ap2g.node_accessible r ~user nr then begin
          let ns = smallest_covering ns rbox in
          if Ap2g.node_accessible s ~user ns then begin
            match Ap2g.node_leaf_record nr with
            | Some r_record ->
              (* nr is a unit cell, so the smallest covering accessible S
                 node is the matching unit leaf. *)
              let s_record = Option.get (Ap2g.node_leaf_record ns) in
              let r_app = Option.get (Ap2g.node_leaf_app r nr) in
              let s_app = Option.get (Ap2g.node_leaf_app s ns) in
              out := Pair { r_record; r_app; s_record; s_app } :: !out
            | None ->
              List.iter (fun c -> Queue.add (c, ns) queue) (Ap2g.node_children nr)
          end
          else begin
            incr relaxed;
            out := S_side (Ap2g.node_entry_inaccessible drbg ~mvk s ~user ns) :: !out
          end
        end
        else begin
          incr relaxed;
          out := R_side (Ap2g.node_entry_inaccessible drbg ~mvk r ~user nr) :: !out
        end
      end
      else if Box.intersects query rbox then
        List.iter (fun c -> Queue.add (c, ns) queue) (Ap2g.node_children nr)
    done;
    Trace.set_attrs ctx
      [ ("nodes_visited", Trace.Int !visited);
        ("relax_calls", Trace.Int !relaxed);
        ("vo_entries", Trace.Int (List.length !out)) ];
    ( List.rev !out,
      {
        relax_calls = !relaxed;
        nodes_visited = !visited;
        sp_time = Clock.elapsed_since t0;
      } )

  let rec verify ?batch ~mvk ~t_universe ~user ~query vo =
    Trace.with_span "client.verify"
      ~attrs:
        [ ("op", Trace.Str "join"); ("vo_entries", Trace.Int (List.length vo)) ]
    @@ fun vctx ->
    let ( let* ) = Result.bind in
    let fail e =
      Trace.set_attr vctx "verify_error"
        (Trace.Str (Zkqac_util.Verify_error.code e));
      Error e
    in
    let super_policy = Universe.super_policy t_universe ~user in
    (* Completeness: pair cells and APS regions together cover the range. *)
    let regions =
      List.map
        (function
          | Pair { r_record; _ } -> Box.of_point r_record.Record.key
          | R_side e | S_side e -> Vo.entry_region e)
        vo
    in
    let* () =
      if Box.covers_union query regions then Ok () else fail Vo.Completeness_gap
    in
    (* A duplicated pair would smuggle the same result row in twice (the
       coverage union above is insensitive to repetition). *)
    let* () =
      let keys =
        List.filter_map
          (function
            | Pair { r_record; _ } -> Some (Array.to_list r_record.Record.key)
            | R_side _ | S_side _ -> None)
          vo
      in
      if List.length (List.sort_uniq Stdlib.compare keys) = List.length keys
      then Ok ()
      else fail (Vo.Invalid_shape "duplicate join pair key")
    in
    let check_entry entry =
      match entry with
      | Pair { r_record; r_app; s_record; s_app } ->
        if r_record.Record.key <> s_record.Record.key then
          fail (Vo.Invalid_shape "join pair keys differ")
        else if not (Box.contains_point query r_record.Record.key) then
          fail (Vo.Record_outside_query r_record.Record.key)
        else if
          not
            (Expr.eval r_record.Record.policy user
             && Expr.eval s_record.Record.policy user)
        then fail (Vo.Policy_not_satisfied r_record.Record.key)
        else if batch <> None then Ok () (* checked below in one batch *)
        else begin
          let check record app =
            Abs.verify_result mvk ~msg:(Record.message_of record)
              ~policy:record.Record.policy app
          in
          match check r_record r_app with
          | Error e -> fail e
          | Ok () ->
            (match check s_record s_app with
             | Error e -> fail e
             | Ok () -> Ok ())
        end
      | R_side e | S_side e ->
        (match e with
         | Vo.Accessible _ ->
           fail (Vo.Invalid_shape "accessible entry in join APS slot")
         | Vo.Inaccessible_leaf { region; key; value_hash; aps } ->
           (* In [`Plain] binding the APS message does not include the
              region, so the claimed region must be pinned structurally —
              otherwise a widened region could mask dropped rows in the
              coverage union above. *)
           if not (Box.equal region (Box.of_point key)) then
             fail
               (Vo.Bad_aps_policy
                  "inaccessible leaf region is not the key's unit cell")
           else if batch <> None then Ok ()
           else
             let msg = Vo.leaf_message `Plain ~region ~key ~value_hash in
             (match Abs.verify_result mvk ~msg ~policy:super_policy aps with
              | Ok () -> Ok ()
              | Error e -> fail (Zkqac_util.Verify_error.as_aps e))
         | Vo.Inaccessible_node { region; aps } ->
           if batch <> None then Ok ()
           else
             (match
                Abs.verify_result mvk ~msg:(Vo.node_aps_message ~region)
                  ~policy:super_policy aps
              with
              | Ok () -> Ok ()
              | Error e -> fail (Zkqac_util.Verify_error.as_aps e)))
    in
    let* () =
      List.fold_left
        (fun acc e -> Result.bind acc (fun () -> check_entry e))
        (Ok ()) vo
    in
    let* () =
      match batch with
      | None -> Ok ()
      | Some drbg ->
        (* Pair APPs batch per record policy; side APSes batch under the
           super-policy. On rejection, fall back to the sequential pass so
           the caller sees the same precise typed error as unbatched. *)
        let app_groups :
            (string, Expr.t * (string * Abs.signature) list ref) Hashtbl.t =
          Hashtbl.create 8
        in
        let aps_entries = ref [] in
        List.iter
          (function
            | Pair { r_record; r_app; s_record; s_app } ->
              let add record app =
                let key = Expr.to_string record.Record.policy in
                let item = (Record.message_of record, app) in
                match Hashtbl.find_opt app_groups key with
                | Some (_, l) -> l := item :: !l
                | None ->
                  Hashtbl.add app_groups key (record.Record.policy, ref [ item ])
              in
              add r_record r_app;
              add s_record s_app
            | R_side e | S_side e ->
              (match e with
               | Vo.Accessible _ -> ()
               | Vo.Inaccessible_leaf { region; key; value_hash; aps } ->
                 aps_entries :=
                   (Vo.leaf_message `Plain ~region ~key ~value_hash, aps)
                   :: !aps_entries
               | Vo.Inaccessible_node { region; aps } ->
                 aps_entries :=
                   (Vo.node_aps_message ~region, aps) :: !aps_entries))
          vo;
        let batches_ok =
          Abs.verify_batch drbg mvk ~policy:super_policy (List.rev !aps_entries)
          && Hashtbl.fold
               (fun _ (policy, sigs) acc ->
                 acc && Abs.verify_batch drbg mvk ~policy (List.rev !sigs))
               app_groups true
        in
        if batches_ok then Ok ()
        else begin
          match verify ~mvk ~t_universe ~user ~query vo with
          | Error e -> fail e
          | Ok _ -> fail (Vo.Bad_aps_signature "batched APS verification")
        end
    in
    let pairs =
      List.filter_map
        (function
          | Pair { r_record; s_record; _ } -> Some (r_record, s_record)
          | R_side _ | S_side _ -> None)
        vo
    in
    Trace.set_attr vctx "result_rows" (Trace.Int (List.length pairs));
    Ok pairs

  (* --- codec --- *)

  let put_record w (r : Record.t) =
    Wire.int_array w r.Record.key;
    Wire.bytes w r.Record.value;
    Wire.bytes w (Expr.to_string r.Record.policy)

  let get_record r =
    let key = Wire.rint_array r in
    let value = Wire.rbytes r in
    let policy =
      let s = Wire.rbytes r in
      match Expr.of_string s with
      | p -> p
      | exception (Invalid_argument _ | Failure _) -> raise Wire.Malformed
    in
    Record.make ~key ~value ~policy

  let to_bytes vo =
    let w = Wire.writer () in
    Wire.u32 w (List.length vo);
    List.iter
      (fun entry ->
        match entry with
        | Pair { r_record; r_app; s_record; s_app } ->
          Wire.u8 w 0;
          put_record w r_record;
          Wire.bytes w (Abs.to_bytes r_app);
          put_record w s_record;
          Wire.bytes w (Abs.to_bytes s_app)
        | R_side e ->
          Wire.u8 w 1;
          Wire.bytes w (Vo.to_bytes [ e ])
        | S_side e ->
          Wire.u8 w 2;
          Wire.bytes w (Vo.to_bytes [ e ]))
      vo;
    Wire.contents w

  let decode ?limits data =
    Wire.decode ?limits data @@ fun r ->
    let get_sig () =
      match Abs.of_bytes (Wire.rbytes r) with
      | Some s -> s
      | None -> raise Wire.Malformed
    in
    let get_side () =
      match Vo.of_bytes (Wire.rbytes r) with
      | Some [ e ] -> e
      | Some _ | None -> raise Wire.Malformed
    in
    let n = Wire.rcount r in
    let rec go k acc =
      if k = 0 then List.rev acc
      else begin
        let entry =
          match Wire.ru8 r with
          | 0 ->
            let r_record = get_record r in
            let r_app = get_sig () in
            let s_record = get_record r in
            let s_app = get_sig () in
            Pair { r_record; r_app; s_record; s_app }
          | 1 -> R_side (get_side ())
          | 2 -> S_side (get_side ())
          | _ -> raise Wire.Malformed
        in
        go (k - 1) (entry :: acc)
      end
    in
    go n []

  let of_bytes data = Result.to_option (decode data)
  let size vo = String.length (to_bytes vo)
end
