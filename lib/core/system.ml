module Expr = Zkqac_policy.Expr
module Attr = Zkqac_policy.Attr
module Universe = Zkqac_policy.Universe
module Hierarchy = Zkqac_policy.Hierarchy
module Drbg = Zkqac_hashing.Drbg
module Trace = Zkqac_telemetry.Trace
module Clock = Zkqac_telemetry.Monotonic_clock
module Flight = Zkqac_telemetry.Flight
module Metrics = Zkqac_telemetry.Metrics
module Json = Zkqac_telemetry.Json
module Audit = Zkqac_audit.Audit
module VE = Zkqac_util.Verify_error

(* The weights are a function of bytes the SP committed to before they
   existed, so a prover who grinds VO variants still passes a bad batch
   with probability at most 1/r per try. *)
let batch_weights vo_bytes = Drbg.create ~seed:("zkqac-vo-batch:" ^ vo_bytes)

let ms_since t0 = Int64.to_float (Int64.sub (Clock.now_ns ()) t0) /. 1e6

module Make (P : Zkqac_group.Pairing_intf.PAIRING) = struct
  module Abs = Zkqac_abs.Abs.Make (P)
  module Cpabe = Zkqac_cpabe.Cpabe.Make (P)
  module Envelope = Zkqac_cpabe.Envelope.Make (P)
  module Ap2g = Ap2g.Make (P)
  module Vo = Vo.Make (P)

  type owner = {
    drbg : Drbg.t;
    abs_msk : Abs.msk;
    abs_mvk : Abs.mvk;
    cpabe_mk : Cpabe.mk;
    cpabe_pp : Cpabe.pp;
    universe : Universe.t;
    hierarchy : Hierarchy.t option;
  }

  type server = {
    sp_drbg : Drbg.t;
    tree : Ap2g.t;
    mvk : Abs.mvk;
    pp : Cpabe.pp;
  }

  type user = {
    roles : Attr.Set.t;
    user_mvk : Abs.mvk;
    user_pp : Cpabe.pp;
    cpabe_sk : Cpabe.secret_key;
    user_universe : Universe.t;
    user_hierarchy : Hierarchy.t option;
  }

  type plain_record = { key : int array; content : string; policy : Expr.t }

  let setup ~seed ~space ~roles ?hierarchy plain_records =
    Trace.with_span "do.setup" @@ fun _ ->
    let drbg = Drbg.create ~seed:("zkqac-system:" ^ seed) in
    let abs_msk, abs_mvk = Abs.setup drbg in
    let cpabe_mk, cpabe_pp = Cpabe.setup drbg in
    let universe = Universe.create roles in
    let sk = Abs.keygen drbg abs_msk (Universe.attrs universe) in
    (* Content confidentiality: encrypt each value with CP-ABE under the
       record's own policy before it ever reaches the SP. *)
    let records =
      List.map
        (fun { key; content; policy } ->
          let sealed = Envelope.seal drbg cpabe_pp ~policy content in
          Record.make ~key ~value:(Envelope.to_bytes sealed) ~policy)
        plain_records
    in
    let tree =
      Ap2g.build drbg ~mvk:abs_mvk ~sk ~space ~universe ?hierarchy
        ~pseudo_seed:(seed ^ ":pseudo") records
    in
    let owner = { drbg; abs_msk; abs_mvk; cpabe_mk; cpabe_pp; universe; hierarchy } in
    let server =
      {
        sp_drbg = Drbg.create ~seed:("zkqac-sp:" ^ seed);
        tree;
        mvk = abs_mvk;
        pp = cpabe_pp;
      }
    in
    (owner, server)

  let register_user owner roles =
    Universe.validate_user owner.universe roles;
    let roles_closed =
      match owner.hierarchy with
      | None -> roles
      | Some h -> Hierarchy.close_user h roles
    in
    {
      roles = roles_closed;
      user_mvk = owner.abs_mvk;
      user_pp = owner.cpabe_pp;
      cpabe_sk = Cpabe.keygen owner.drbg owner.cpabe_mk owner.cpabe_pp roles_closed;
      user_universe = owner.universe;
      user_hierarchy = owner.hierarchy;
    }

  type response = { sealed : Envelope.sealed; query : Box.t }

  let range_query server ~claimed_roles query =
    Trace.with_span "system.range_query" ~parent:Trace.none @@ fun ctx ->
    let vo, _stats =
      Ap2g.range_vo server.sp_drbg ~mvk:server.mvk server.tree
        ~user:claimed_roles query
    in
    let payload = Vo.to_bytes vo in
    (* Seal under the AND of the claimed roles: only a user actually holding
       them can open the response. *)
    let policy = Expr.of_attrs_and (Attr.Set.elements claimed_roles) in
    let sealed = Envelope.seal server.sp_drbg server.pp ~policy payload in
    Trace.set_attrs ctx
      [ ("vo_entries", Trace.Int (List.length vo));
        ("vo_bytes", Trace.Int (String.length payload)) ];
    { sealed; query }

  let response_size r = Envelope.size r.sealed

  type verified = {
    results : (int array * string) list;
    vo_entries : int;
    vo_size : int;
  }

  (* Every decision — acceptance or typed rejection — leaves a verdict in
     the flight recorder and, when a sink is enabled, one hash-chained
     audit entry carrying the evidence an offline auditor needs: what was
     verified, under which batch path, and how long each stage took. A
     rejection also counts under its code and trips the recorder. The path
     reads the process-wide fallback counter, so verifiers running
     concurrently may see each other's fallbacks. *)
  let decide ~fallbacks0 ~query ~stages ?payload ?(vo_entries = 0) result =
    let outcome, rows =
      match result with
      | Ok records -> ("ok", List.length records)
      | Error e -> (VE.code e, 0)
    in
    if Result.is_error result then Metrics.rejection outcome;
    Flight.record ~cat:"verdict" ~detail:outcome ~v:rows "system.verify";
    if Audit.enabled () then begin
      let path =
        if Metrics.batch_fallbacks () > fallbacks0 then "batch-fallback" else "batch"
      in
      let digest, size =
        match payload with
        | Some p -> (Zkqac_hashing.Sha256.hex p, String.length p)
        | None -> ("", 0)
      in
      Audit.record ~kind:"verify"
        (Json.Obj
           [ ("query", Json.Str (Box.to_string query));
             ("vo_digest", Json.Str digest);
             ("vo_bytes", Json.Int size);
             ("vo_entries", Json.Int vo_entries);
             ("path", Json.Str path);
             ("outcome", Json.Str outcome);
             ("rows", Json.Int rows);
             ( "stages_ms",
               Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) stages) ) ])
    end;
    if Result.is_error result then Flight.trip ~reason:("verify-error:" ^ outcome)

  let verify_vo ?envelope_open_ms ~mvk ~universe ?hierarchy ~roles ~query payload =
    let t_start = Clock.now_ns () in
    let fallbacks0 = Metrics.batch_fallbacks () in
    let decode_ms = ref 0.0 and verify_ms = ref 0.0 and vo_entries = ref 0 in
    let timed cell f =
      let t0 = Clock.now_ns () in
      let r = f () in
      cell := ms_since t0;
      r
    in
    let result =
      match timed decode_ms (fun () -> Vo.decode payload) with
      | Error e -> Error e
      | Ok vo ->
        vo_entries := List.length vo;
        timed verify_ms (fun () ->
            Ap2g.verify ~batch:(batch_weights payload) ~mvk ~t_universe:universe
              ?hierarchy ~user:roles ~query vo)
    in
    let total = Option.value envelope_open_ms ~default:0.0 +. ms_since t_start in
    let stages =
      Option.to_list (Option.map (fun ms -> ("envelope_open", ms)) envelope_open_ms)
      @ [ ("vo_decode", !decode_ms); ("vo_verify", !verify_ms); ("total", total) ]
    in
    decide ~fallbacks0 ~query ~stages ~payload ~vo_entries:!vo_entries result;
    Result.map (fun records -> (records, !vo_entries)) result

  let open_and_verify_v user ~query response =
    Trace.with_span "system.open_and_verify" ~parent:Trace.none @@ fun ctx ->
    let fail e =
      Trace.set_attr ctx "verify_error" (Trace.Str (VE.code e));
      Error e
    in
    let t_start = Clock.now_ns () in
    let opened =
      if not (Box.equal query response.query) then Error VE.Query_mismatch
      else Envelope.open_result user.user_pp user.cpabe_sk response.sealed
    in
    let open_ms = ms_since t_start in
    match opened with
    | Error e ->
      decide ~fallbacks0:(Metrics.batch_fallbacks ()) ~query (Error e)
        ~stages:
          [ ("envelope_open", open_ms); ("vo_decode", 0.0); ("vo_verify", 0.0);
            ("total", open_ms) ];
      fail e
    | Ok payload -> (
      match
        verify_vo ~envelope_open_ms:open_ms ~mvk:user.user_mvk
          ~universe:user.user_universe ?hierarchy:user.user_hierarchy
          ~roles:user.roles ~query payload
      with
      | Error e -> fail e
      | Ok (records, vo_entries) ->
        let results =
          List.map
            (fun (r : Record.t) ->
              match Envelope.of_bytes r.Record.value with
              | None -> (r.Record.key, "<malformed content>")
              | Some sealed ->
                (match Envelope.open_ user.user_pp user.cpabe_sk sealed with
                 | Some content -> (r.Record.key, content)
                 | None -> (r.Record.key, "<undecryptable content>")))
            records
        in
        Trace.set_attr ctx "result_rows" (Trace.Int (List.length results));
        Ok { results; vo_entries; vo_size = String.length payload })

  let open_and_verify user ~query response =
    Result.map_error VE.to_string (open_and_verify_v user ~query response)

  let user_roles u = u.roles
  let universe o = o.universe
end
