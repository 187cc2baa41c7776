module Expr = Zkqac_policy.Expr
module Wire = Zkqac_util.Wire
module Attr = Zkqac_policy.Attr
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

  type stats = Vo.query_stats = {
    relax_calls : int;
    nodes_visited : int;
    sp_time : float;
  }

  (* The smallest node under [start] whose box still covers [box]. *)
  let rec smallest_covering (start : Vo.node) box =
    match start.content with
    | Children children -> (
      match List.find_opt (fun (c : Vo.node) -> Box.contains_box c.box box) children with
      | Some c -> smallest_covering c box
      | None -> start)
    | Leaf _ | Pseudo | Group _ -> start

  let join_vo drbg ~mvk ~r ~s ~user query =
    (* [verify] knows only the user and one universe: it checks every APS
       entry under the plain super policy, and pairs leaves by their boxes. *)
    if Option.is_some (Ap2g.hierarchy r) || Option.is_some (Ap2g.hierarchy s) then
      invalid_arg "Join.join_vo: tree built with a role hierarchy";
    let same f = f (Ap2g.space r) = f (Ap2g.space s) in
    if not (same Keyspace.dims && same Keyspace.depth) then
      invalid_arg "Join.join_vo: trees over different keyspaces";
    let universe = Ap2g.universe r in
    if not (Attr.Set.equal (Universe.attrs universe) (Universe.attrs (Ap2g.universe s)))
    then invalid_arg "Join.join_vo: trees over different universes";
    Trace.with_span "sp.query" ~attrs:[ ("op", Trace.Str "join") ] @@ fun ctx ->
    let t0 = Clock.now_ns () in
    (* One universe and no hierarchy: both trees share the one keep set. *)
    let keep = Expr.attrs (Universe.super_policy universe ~user) in
    let slots = ref [] in
    let aps side node =
      let job = Vo.aps_job drbg ~mvk `Plain ~keep node in
      slots := Either.Right (fun () -> side (job ())) :: !slots
    in
    (* [Vo.walk]'s rule over an R node and the S node that covers it: skip
       an R node that misses the query; answer an inaccessible R node, or
       else an inaccessible covering S node, with one APS entry; pair two
       accessible leaves; descend otherwise. *)
    let visit ((nr : Vo.node), ns) push =
      if Box.intersects query nr.box then
        if not (Expr.eval nr.policy user) then aps (fun e -> R_side e) nr
        else
          let ns = smallest_covering ns nr.box in
          if not (Expr.eval ns.policy user) then aps (fun e -> S_side e) ns
          else
            match (nr.content, ns.content) with
            | Leaf r_record, Leaf s_record ->
              (* nr is a unit cell, so the smallest covering accessible S
                 node is the matching unit leaf. *)
              let pair =
                Pair
                  { r_record; r_app = Abs.of_stored nr.signature; s_record;
                    s_app = Abs.of_stored ns.signature }
              in
              slots := Either.Left pair :: !slots
            | Children children, _ -> List.iter (fun c -> push (c, ns)) children
            | (Leaf _ | Pseudo | Group _), _ -> ()
    in
    let visited = Vo.bfs (Ap2g.root r, Ap2g.root s) visit in
    Vo.prove ~pmap:(List.map (fun job -> job ())) ctx ~t0 ~visited (List.rev !slots)

  let verify ?batch ~mvk ~t_universe ~user ~query vo =
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
    (* Soundness: structure first, signatures after, as in [Vo.verify]. *)
    let claims = ref [] in
    let push c =
      claims := c :: !claims;
      Ok ()
    in
    let app_claim record sigma =
      push
        { Abs.msg = Record.message_of record; policy = record.Record.policy; sigma;
          blame = Fun.id }
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
        else
          let* () = app_claim r_record r_app in
          app_claim s_record s_app
      | R_side e | S_side e ->
        Result.fold ~ok:push ~error:fail (Vo.aps_claim `Plain ~super_policy ~query e)
    in
    let* () =
      List.fold_left
        (fun acc e -> Result.bind acc (fun () -> check_entry e))
        (Ok ()) vo
    in
    let* () =
      match Abs.check ?batch mvk (List.rev !claims) with
      | Ok () -> Ok ()
      | Error e -> fail e
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

  (* A side entry keeps the bytes of a one-entry VO (its length, the count
     1, the entry), written and read by [Vo]'s entry codec in place. *)
  let put_side w e =
    let one = Wire.writer () in
    Wire.u32 one 1;
    Vo.put_entry one e;
    Wire.bytes w (Wire.contents one)

  let get_side r =
    let len = Wire.ru32 r in
    let stop = Wire.pos r + len in
    if Wire.ru32 r <> 1 then raise Wire.Malformed;
    let e = Vo.get_entry r in
    if Wire.pos r <> stop then raise Wire.Malformed;
    e

  let to_bytes vo =
    Trace.with_span "vo.encode" @@ fun ctx ->
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
          put_side w e
        | S_side e ->
          Wire.u8 w 2;
          put_side w e)
      vo;
    let bytes = Wire.contents w in
    Trace.set_attr ctx "vo_bytes" (Trace.Int (String.length bytes));
    bytes

  let decode ?limits data =
    Trace.with_span "vo.decode"
      ~attrs:[ ("vo_bytes", Trace.Int (String.length data)) ]
    @@ fun _ ->
    Wire.decode ?limits data @@ fun r ->
    let get_sig () =
      match Abs.of_bytes (Wire.rbytes r) with
      | Some s -> s
      | None -> raise Wire.Malformed
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
          | 1 -> R_side (get_side r)
          | 2 -> S_side (get_side r)
          | _ -> raise Wire.Malformed
        in
        go (k - 1) (entry :: acc)
      end
    in
    go n []

  let of_bytes data = Result.to_option (decode data)
  let size vo = String.length (to_bytes vo)
end
