module Expr = Zkqac_policy.Expr
module Wire = Zkqac_util.Wire
module Attr = Zkqac_policy.Attr
module Trace = Zkqac_telemetry.Trace
module Clock = Zkqac_telemetry.Monotonic_clock
module Drbg = Zkqac_hashing.Drbg

module Make (P : Zkqac_group.Pairing_intf.PAIRING) = struct
  module Abs = Zkqac_abs.Abs.Make (P)

  type entry =
    | Accessible of { region : Box.t; record : Record.t; app : Abs.signature }
    | Inaccessible_leaf of {
        region : Box.t;
        key : int array;
        value_hash : string;
        aps : Abs.signature;
      }
    | Inaccessible_node of { region : Box.t; aps : Abs.signature }

  type t = entry list

  let entry_region = function
    | Accessible { region; _ } | Inaccessible_leaf { region; _ }
    | Inaccessible_node { region; _ } ->
      region

  type binding = [ `Plain | `Boxed ]

  (* Re-exported so [Vo.Completeness_gap] etc. pattern-match and unify with
     the shared taxonomy used across every verifier and the CLI. *)
  type error = Zkqac_util.Verify_error.t =
    | Completeness_gap
    | Bad_abs_signature of string
    | Bad_aps_signature of string
    | Bad_aps_policy of string
    | Record_outside_query of int array
    | Policy_not_satisfied of int array
    | Malformed of { offset : int }
    | Limit_exceeded of { what : string; limit : int }
    | Digest_mismatch of string
    | Envelope_open_failed of string
    | Query_mismatch
    | Invalid_shape of string

  let error_to_string = Zkqac_util.Verify_error.to_string

  let leaf_message binding ~region ~key ~value_hash =
    let base = Record.message ~key ~value_hash in
    match binding with
    | `Plain -> base
    | `Boxed -> Record.node_message region ^ base

  (* --- the prover side: every APS entry of every query type --- *)

  type node = {
    box : Box.t;
    policy : Expr.t;
    signature : Abs.stored;
    content : content;
  }

  and content = Leaf of Record.t | Pseudo | Children of node list | Group of node list

  let relax drbg ~mvk ~keep ~msg ~policy sigma =
    match Abs.relax drbg mvk sigma ~msg ~policy ~keep with
    | Some s -> s
    | None ->
      (* The tree invariant (node policy = OR of subtree policies) makes an
         inaccessible node always relaxable; failure is a construction bug. *)
      invalid_arg "Vo.relax: relaxation failed on an inaccessible entry"

  let aps_job drbg ~mvk binding ~keep { box = region; policy; signature; content } =
    (* Fork a per-job DRBG at job creation (sequential) so the thunks are
       self-contained and can run on any domain (Section 8.2). The stored
       signature is decoded inside the thunk, on the domain that relaxes
       it, into values of its own. *)
    let drbg = Drbg.create ~seed:(Drbg.generate drbg 32) in
    let relaxed ~msg = relax drbg ~mvk ~keep ~msg ~policy (Abs.of_stored signature) in
    match content with
    | Leaf record ->
      let key = record.Record.key in
      let value_hash = Record.value_hash record.Record.value in
      fun () ->
        let msg = leaf_message binding ~region ~key ~value_hash in
        Inaccessible_leaf { region; key; value_hash; aps = relaxed ~msg }
    | Pseudo | Children _ | Group _ ->
      fun () -> Inaccessible_node { region; aps = relaxed ~msg:(Record.node_message region) }

  let answer drbg ~mvk binding ~keep ~user node =
    match node.content with
    | Leaf record when Expr.eval node.policy user ->
      Either.Left
        (Accessible { region = node.box; record; app = Abs.of_stored node.signature })
    | Leaf _ | Pseudo | Children _ | Group _ ->
      Either.Right (aps_job drbg ~mvk binding ~keep node)

  type query_stats = { relax_calls : int; nodes_visited : int; sp_time : float }

  let prove ~pmap ctx ~t0 ~visited slots =
    let jobs = List.filter_map Either.find_right slots in
    let relaxed = Trace.with_span "sp.relax" ~parent:ctx (fun _ -> pmap jobs) in
    (* Put each relaxed entry back into its job's slot. *)
    let vo, _ =
      List.fold_left
        (fun (vo, relaxed) -> function
          | Either.Left e -> (e :: vo, relaxed)
          | Either.Right _ -> (List.hd relaxed :: vo, List.tl relaxed))
        ([], relaxed) slots
    in
    let vo = List.rev vo in
    let relax_calls = List.length jobs in
    Trace.set_attrs ctx
      [ ("nodes_visited", Trace.Int visited);
        ("relax_calls", Trace.Int relax_calls);
        ("vo_entries", Trace.Int (List.length vo)) ];
    (vo, { relax_calls; nodes_visited = visited; sp_time = Clock.elapsed_since t0 })

  let bfs root visit =
    let queue = Queue.create () in
    Queue.add root queue;
    let visited = ref 0 in
    while not (Queue.is_empty queue) do
      incr visited;
      visit (Queue.pop queue) (fun child -> Queue.add child queue)
    done;
    !visited

  let walk ~pmap drbg ~mvk binding ~keep ~user ctx ~t0 query root =
    let direct = ref [] and jobs = ref [] in
    (* The one walk rule: skip a node that misses the query, descend into an
       accessible inner node, answer any other node with one entry. *)
    let rec visit node push =
      if Box.intersects query node.box then
        match node.content with
        | Children kids when Expr.eval node.policy user -> List.iter push kids
        | Group members when Expr.eval node.policy user ->
          List.iter (fun m -> visit m push) members
        | Leaf _ | Pseudo | Children _ | Group _ -> (
          match answer drbg ~mvk binding ~keep ~user node with
          | Either.Left e -> direct := e :: !direct
          | Either.Right job -> jobs := job :: !jobs)
    in
    let visited = bfs root visit in
    prove ~pmap ctx ~t0 ~visited
      (List.rev_map Either.left !direct @ List.rev_map Either.right !jobs)

  (* An APS entry's structure check and signature claim; [Vo.verify] and
     [Join.verify] both check their inaccessible entries here. *)
  let aps_claim binding ~super_policy ~query entry =
    let claim msg sigma =
      Ok { Abs.msg; policy = super_policy; sigma; blame = Zkqac_util.Verify_error.as_aps }
    in
    match entry with
    | Accessible _ -> Error (Invalid_shape "accessible entry in an APS slot")
    | (Inaccessible_leaf { region; _ } | Inaccessible_node { region; _ })
      when not (Box.intersects query region) ->
      (* The tiling sees regions clipped to the query, where this entry
         vanishes; an entry that accounts for nothing of the query is refused
         here, or a VO for a larger query would verify for a smaller one. *)
      Error Completeness_gap
    | Inaccessible_leaf { region; key; value_hash; aps } ->
      if binding = `Plain && not (Box.equal region (Box.of_point key)) then
        (* Under [`Plain] the message does not bind the region, so the
           region is pinned to the key's unit cell structurally: a widened
           region could otherwise mask dropped rows in a coverage check. *)
        Error (Bad_aps_policy "inaccessible leaf region is not the key's unit cell")
      else claim (leaf_message binding ~region ~key ~value_hash) aps
    | Inaccessible_node { region; aps } -> claim (Record.node_message region) aps

  let verify ?batch ~mvk ~binding ~super_policy ~user ~query vo =
    Trace.with_span "client.verify"
      ~attrs:[ ("vo_entries", Trace.Int (List.length vo)) ]
    @@ fun vctx ->
    let ( let* ) = Result.bind in
    (* Completeness: the regions, clipped to the query (a node answered
       whole may reach past it), tile the query box exactly. *)
    let regions = List.filter_map (fun e -> Box.intersect query (entry_region e)) vo in
    let fail e =
      Trace.set_attr vctx "verify_error"
        (Trace.Str (Zkqac_util.Verify_error.code e));
      Error e
    in
    let* () =
      if Box.covers_exactly query regions then Ok () else fail Completeness_gap
    in
    (* Soundness. Every entry's structure is checked before any signature,
       so the batched and unbatched paths stop at the same check; the
       signature claims the entries make go to one [Abs.check] after. *)
    let claims = ref [] in
    let push c =
      claims := c :: !claims;
      Ok ()
    in
    let check_entry entry =
      match entry with
      | Accessible { region; record; app } ->
        if binding = `Plain && not (Box.equal region (Box.of_point record.Record.key))
        then fail (Bad_abs_signature "accessible region is not the record's unit cell")
        else if not (Box.contains_point region record.Record.key) then
          fail (Bad_abs_signature "accessible key outside its region")
        else if not (Box.intersects query region) then
          fail (Record_outside_query record.Record.key)
        else if not (Expr.eval record.Record.policy user) then
          fail (Policy_not_satisfied record.Record.key)
        else
          push
            { Abs.msg =
                leaf_message binding ~region ~key:record.Record.key
                  ~value_hash:(Record.value_hash record.Record.value);
              policy = record.Record.policy;
              sigma = app;
              blame = Fun.id }
      | Inaccessible_leaf _ | Inaccessible_node _ ->
        Result.fold ~ok:push ~error:fail (aps_claim binding ~super_policy ~query entry)
    in
    let* () =
      List.fold_left
        (fun acc entry -> Result.bind acc (fun () -> check_entry entry))
        (Ok ()) vo
    in
    let* () =
      match Abs.check ?batch mvk (List.rev !claims) with
      | Ok () -> Ok ()
      | Error e -> fail e
    in
    let records =
      List.filter_map
        (function
          | Accessible { record; _ }
            when Box.contains_point query record.Record.key ->
            Some record
          | Accessible _ | Inaccessible_leaf _ | Inaccessible_node _ -> None)
        vo
    in
    Trace.set_attr vctx "result_rows" (Trace.Int (List.length records));
    Ok records

  (* --- codec --- *)

  let put_box w box =
    Wire.int_array w box.Box.lo;
    Wire.int_array w box.Box.hi

  let get_box r =
    let lo = Wire.rint_array r in
    let hi = Wire.rint_array r in
    Box.make ~lo ~hi

  (* Untrusted input: any parse failure (including e.g. int_of_string
     overflow inside the policy parser) is a malformed VO, never an
     escaping exception. *)
  let policy_of_wire r =
    let s = Wire.rbytes r in
    match Expr.of_string s with
    | policy -> policy
    | exception (Invalid_argument _ | Failure _) -> raise Wire.Malformed

  let put_entry w = function
    | Accessible { region; record; app } ->
      Wire.u8 w 0;
      put_box w region;
      Wire.int_array w record.Record.key;
      Wire.bytes w record.Record.value;
      Wire.bytes w (Expr.to_string record.Record.policy);
      Wire.bytes w (Abs.to_bytes app)
    | Inaccessible_leaf { region; key; value_hash; aps } ->
      Wire.u8 w 1;
      put_box w region;
      Wire.int_array w key;
      Wire.bytes w value_hash;
      Wire.bytes w (Abs.to_bytes aps)
    | Inaccessible_node { region; aps } ->
      Wire.u8 w 2;
      put_box w region;
      Wire.bytes w (Abs.to_bytes aps)

  let get_entry r =
    match Wire.ru8 r with
    | 0 ->
      let region = get_box r in
      let key = Wire.rint_array r in
      let value = Wire.rbytes r in
      let policy = policy_of_wire r in
      let app =
        match Abs.of_bytes (Wire.rbytes r) with
        | Some s -> s
        | None -> raise Wire.Malformed
      in
      Accessible { region; record = Record.make ~key ~value ~policy; app }
    | 1 ->
      let region = get_box r in
      let key = Wire.rint_array r in
      let value_hash = Wire.rbytes r in
      let aps =
        match Abs.of_bytes (Wire.rbytes r) with
        | Some s -> s
        | None -> raise Wire.Malformed
      in
      Inaccessible_leaf { region; key; value_hash; aps }
    | 2 ->
      let region = get_box r in
      let aps =
        match Abs.of_bytes (Wire.rbytes r) with
        | Some s -> s
        | None -> raise Wire.Malformed
      in
      Inaccessible_node { region; aps }
    | _ -> raise Wire.Malformed

  let to_bytes vo =
    Trace.with_span "vo.encode" @@ fun ctx ->
    let w = Wire.writer () in
    Wire.u32 w (List.length vo);
    List.iter (put_entry w) vo;
    let bytes = Wire.contents w in
    Trace.set_attr ctx "vo_bytes" (Trace.Int (String.length bytes));
    bytes

  let decode ?limits data =
    Trace.with_span "vo.decode"
      ~attrs:[ ("vo_bytes", Trace.Int (String.length data)) ]
    @@ fun _ ->
    Wire.decode ?limits data @@ fun r ->
    let n = Wire.rcount r in
    let rec go k acc =
      if k = 0 then List.rev acc else go (k - 1) (get_entry r :: acc)
    in
    go n []

  let of_bytes data = Result.to_option (decode data)

  let size vo = String.length (to_bytes vo)
end
