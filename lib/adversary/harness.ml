module Expr = Zkqac_policy.Expr
module Attr = Zkqac_policy.Attr
module Universe = Zkqac_policy.Universe
module Drbg = Zkqac_hashing.Drbg
module Prng = Zkqac_rng.Prng
module VE = Zkqac_util.Verify_error
module Wire = Zkqac_util.Wire
module Audit = Zkqac_audit.Audit
module Json = Zkqac_telemetry.Json
module Flight = Zkqac_telemetry.Flight
module Box = Zkqac_core.Box
module Keyspace = Zkqac_core.Keyspace
module Record = Zkqac_core.Record
module System = Zkqac_core.System

module Make (P : Zkqac_group.Pairing_intf.PAIRING) = struct
  module Abs = Zkqac_abs.Abs.Make (P)
  module Vo = Zkqac_core.Vo.Make (P)
  module Equality = Zkqac_core.Equality.Make (P)
  module Ap2g = Zkqac_core.Ap2g.Make (P)
  module Ap2kd = Zkqac_core.Ap2kd.Make (P)
  module Join = Zkqac_core.Join.Make (P)
  module Envelope = Zkqac_cpabe.Envelope.Make (P)

  type kind = Equality_q | Range_q | Kd_q | Join_q | Envelope_q

  let all_kinds = [ Equality_q; Range_q; Kd_q; Join_q; Envelope_q ]

  let kind_name = function
    | Equality_q -> "equality"
    | Range_q -> "range"
    | Kd_q -> "kd"
    | Join_q -> "join"
    | Envelope_q -> "envelope"

  type outcome =
    | Rejected of VE.t
    | Misclassified of VE.t
    | Accepted
    | Not_applicable

  type cell = { scenario : Scenario.t; kind : kind; outcome : outcome }
  type report = { seed : int; cells : cell list; ok : bool }

  (* A target bundles one honest query exchange: the encoded VO, the
     decode-and-verify closure the client would run, and the typed-level
     tamper function (tampers are applied to the decoded structure and
     re-encoded; format tampers work on the bytes directly). *)
  type target = {
    kind : kind;
    bytes : string;
    verify : string -> (unit, VE.t) result;
    verify_batched : string -> (unit, VE.t) result;
        (* same check, but through the batched verification path (weights
           derived from the bytes under test, like the CLI does) — must
           reach the same verdict on every input, tampered or honest *)
    tamper : Prng.t -> string -> string option;
  }

  (* --- shared tamper helpers --- *)

  let flip_string prng s =
    if String.length s = 0 then "?"
    else begin
      let b = Bytes.of_string s in
      let i = Prng.int prng (Bytes.length b) in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
      Bytes.to_string b
    end

  let shrink_box box =
    let dims = Array.length box.Box.lo in
    let rec find d =
      if d = dims then None
      else if box.Box.hi.(d) - box.Box.lo.(d) >= 2 then Some d
      else find (d + 1)
    in
    match find 0 with
    | None -> None
    | Some d ->
      let extent = box.Box.hi.(d) - box.Box.lo.(d) in
      let hi =
        Array.mapi
          (fun i h -> if i = d then h - (extent / 2) else h)
          box.Box.hi
      in
      Some (Box.make ~lo:box.Box.lo ~hi)

  let indices p arr =
    let out = ref [] in
    Array.iteri (fun i e -> if p e then out := i :: !out) arr;
    Array.of_list (List.rev !out)

  (* Drop every element of [entries] whose sort key falls in the upper half
     of the sorted order — the "prune a subtree and pretend it was never
     there" move. Keeps at least one entry and drops at least one. *)
  let drop_upper_half ~key entries =
    let n = List.length entries in
    if n < 2 then None
    else begin
      let sorted = List.stable_sort (fun a b -> compare (key a) (key b)) entries in
      let kept = List.filteri (fun i _ -> i < (n + 1) / 2) sorted in
      Some (List.filter (fun e -> List.memq e kept) entries)
    end

  (* --- typed tampers over a plain Vo.t (equality / range / kd) --- *)

  let vo_tamper ~alt_policy prng name (vo : Vo.t) : Vo.t option =
    let arr = Array.of_list vo in
    let n = Array.length arr in
    let acc = indices (function Vo.Accessible _ -> true | _ -> false) arr in
    let inacc =
      indices
        (function
          | Vo.Inaccessible_leaf _ | Vo.Inaccessible_node _ -> true
          | Vo.Accessible _ -> false)
        arr
    in
    let inleaf = indices (function Vo.Inaccessible_leaf _ -> true | _ -> false) arr in
    let result () = Some (Array.to_list arr) in
    match name with
    | "flip-value" ->
      if Array.length acc = 0 then None
      else begin
        let i = Prng.pick prng acc in
        (match arr.(i) with
         | Vo.Accessible { region; record; app } ->
           let record =
             Record.make ~key:record.Record.key
               ~value:(flip_string prng record.Record.value)
               ~policy:record.Record.policy
           in
           arr.(i) <- Vo.Accessible { region; record; app }
         | _ -> assert false);
        result ()
      end
    | "swap-app" ->
      if Array.length acc < 2 then None
      else begin
        let i = acc.(0) and j = acc.(1) in
        (match (arr.(i), arr.(j)) with
         | ( Vo.Accessible ({ app = a; _ } as ea),
             Vo.Accessible ({ app = b; _ } as eb) ) ->
           arr.(i) <- Vo.Accessible { ea with app = b };
           arr.(j) <- Vo.Accessible { eb with app = a }
         | _ -> assert false);
        result ()
      end
    | "forge-pseudo" ->
      if Array.length acc = 0 then None
      else begin
        let i = Prng.pick prng acc in
        (match arr.(i) with
         | Vo.Accessible { region; record; app } ->
           arr.(i) <-
             Vo.Inaccessible_leaf
               {
                 region;
                 key = record.Record.key;
                 value_hash = Record.value_hash record.Record.value;
                 aps = app;
               }
         | _ -> assert false);
        result ()
      end
    | "replay-aps" ->
      if Array.length inacc < 2 then None
      else begin
        let i = inacc.(0) and j = inacc.(1) in
        let aps_of = function
          | Vo.Inaccessible_leaf { aps; _ } | Vo.Inaccessible_node { aps; _ } ->
            aps
          | Vo.Accessible _ -> assert false
        in
        let with_aps e aps =
          match e with
          | Vo.Inaccessible_leaf l -> Vo.Inaccessible_leaf { l with aps }
          | Vo.Inaccessible_node nd -> Vo.Inaccessible_node { nd with aps }
          | Vo.Accessible _ -> assert false
        in
        let ai = aps_of arr.(i) and aj = aps_of arr.(j) in
        arr.(i) <- with_aps arr.(i) aj;
        arr.(j) <- with_aps arr.(j) ai;
        result ()
      end
    | "value-hash-lie" ->
      if Array.length inleaf = 0 then None
      else begin
        let i = Prng.pick prng inleaf in
        (match arr.(i) with
         | Vo.Inaccessible_leaf l ->
           arr.(i) <-
             Vo.Inaccessible_leaf
               { l with value_hash = flip_string prng l.value_hash }
         | _ -> assert false);
        result ()
      end
    | "tamper-policy" ->
      if Array.length acc = 0 then None
      else begin
        let i = Prng.pick prng acc in
        (match arr.(i) with
         | Vo.Accessible { region; record; app } ->
           let record =
             Record.make ~key:record.Record.key ~value:record.Record.value
               ~policy:alt_policy
           in
           arr.(i) <- Vo.Accessible { region; record; app }
         | _ -> assert false);
        result ()
      end
    | "drop-entry" ->
      if n < 2 then None
      else begin
        let i = Prng.int prng n in
        Some (List.filteri (fun j _ -> j <> i) (Array.to_list arr))
      end
    | "prune-subtree" ->
      drop_upper_half
        ~key:(fun e -> Array.to_list (Vo.entry_region e).Box.lo)
        (Array.to_list arr)
    | "shrink-boundary" ->
      let shrinkable = ref [] in
      Array.iteri
        (fun i e ->
          match e with
          | Vo.Inaccessible_leaf { region; _ } | Vo.Inaccessible_node { region; _ }
            -> (
              match shrink_box region with
              | Some b -> shrinkable := (i, b) :: !shrinkable
              | None -> ())
          | Vo.Accessible _ -> ())
        arr;
      (match !shrinkable with
       | [] -> None
       | candidates ->
         let i, box = Prng.pick prng (Array.of_list candidates) in
         (match arr.(i) with
          | Vo.Inaccessible_leaf l ->
            arr.(i) <- Vo.Inaccessible_leaf { l with region = box }
          | Vo.Inaccessible_node nd ->
            arr.(i) <- Vo.Inaccessible_node { nd with region = box }
          | Vo.Accessible _ -> assert false);
         result ())
    | "duplicate-entry" ->
      if n = 0 then None
      else begin
        let i = Prng.int prng n in
        Some (Array.to_list arr @ [ arr.(i) ])
      end
    | _ -> None

  (* --- typed tampers over a Join.t --- *)

  let join_tamper ~alt_policy prng name (vo : Join.t) : Join.t option =
    let arr = Array.of_list vo in
    let n = Array.length arr in
    let pairs = indices (function Join.Pair _ -> true | _ -> false) arr in
    let sides =
      indices (function Join.R_side _ | Join.S_side _ -> true | _ -> false) arr
    in
    let side_entry = function
      | Join.R_side e | Join.S_side e -> e
      | Join.Pair _ -> assert false
    in
    let rewrap original e =
      match original with
      | Join.R_side _ -> Join.R_side e
      | Join.S_side _ -> Join.S_side e
      | Join.Pair _ -> assert false
    in
    let entry_region = function
      | Join.Pair { r_record; _ } -> Box.of_point r_record.Record.key
      | Join.R_side e | Join.S_side e -> Vo.entry_region e
    in
    let result () = Some (Array.to_list arr) in
    match name with
    | "flip-value" ->
      if Array.length pairs = 0 then None
      else begin
        let i = Prng.pick prng pairs in
        (match arr.(i) with
         | Join.Pair p ->
           let r_record =
             Record.make ~key:p.r_record.Record.key
               ~value:(flip_string prng p.r_record.Record.value)
               ~policy:p.r_record.Record.policy
           in
           arr.(i) <- Join.Pair { p with r_record }
         | _ -> assert false);
        result ()
      end
    | "swap-app" ->
      if Array.length pairs = 0 then None
      else begin
        let i = Prng.pick prng pairs in
        (match arr.(i) with
         | Join.Pair p ->
           arr.(i) <- Join.Pair { p with r_app = p.s_app; s_app = p.r_app }
         | _ -> assert false);
        result ()
      end
    | "forge-pseudo" ->
      if Array.length pairs = 0 then None
      else begin
        let i = Prng.pick prng pairs in
        (match arr.(i) with
         | Join.Pair { r_record; r_app; _ } ->
           arr.(i) <-
             Join.R_side
               (Vo.Inaccessible_leaf
                  {
                    region = Box.of_point r_record.Record.key;
                    key = r_record.Record.key;
                    value_hash = Record.value_hash r_record.Record.value;
                    aps = r_app;
                  })
         | _ -> assert false);
        result ()
      end
    | "replay-aps" ->
      if Array.length sides < 2 then None
      else begin
        let i = sides.(0) and j = sides.(1) in
        let aps_of e =
          match side_entry e with
          | Vo.Inaccessible_leaf { aps; _ } | Vo.Inaccessible_node { aps; _ } ->
            aps
          | Vo.Accessible _ -> assert false
        in
        let with_aps e aps =
          let inner =
            match side_entry e with
            | Vo.Inaccessible_leaf l -> Vo.Inaccessible_leaf { l with aps }
            | Vo.Inaccessible_node nd -> Vo.Inaccessible_node { nd with aps }
            | Vo.Accessible _ -> assert false
          in
          rewrap e inner
        in
        let ai = aps_of arr.(i) and aj = aps_of arr.(j) in
        arr.(i) <- with_aps arr.(i) aj;
        arr.(j) <- with_aps arr.(j) ai;
        result ()
      end
    | "value-hash-lie" ->
      let leaves =
        indices
          (function
            | (Join.R_side (Vo.Inaccessible_leaf _) |
               Join.S_side (Vo.Inaccessible_leaf _)) ->
              true
            | _ -> false)
          arr
      in
      if Array.length leaves = 0 then None
      else begin
        let i = Prng.pick prng leaves in
        let inner =
          match side_entry arr.(i) with
          | Vo.Inaccessible_leaf l ->
            Vo.Inaccessible_leaf
              { l with value_hash = flip_string prng l.value_hash }
          | _ -> assert false
        in
        arr.(i) <- rewrap arr.(i) inner;
        result ()
      end
    | "tamper-policy" ->
      if Array.length pairs = 0 then None
      else begin
        let i = Prng.pick prng pairs in
        (match arr.(i) with
         | Join.Pair p ->
           let r_record =
             Record.make ~key:p.r_record.Record.key
               ~value:p.r_record.Record.value ~policy:alt_policy
           in
           arr.(i) <- Join.Pair { p with r_record }
         | _ -> assert false);
        result ()
      end
    | "drop-entry" ->
      if n < 2 then None
      else begin
        let i = Prng.int prng n in
        Some (List.filteri (fun j _ -> j <> i) (Array.to_list arr))
      end
    | "prune-subtree" ->
      drop_upper_half
        ~key:(fun e -> Array.to_list (entry_region e).Box.lo)
        (Array.to_list arr)
    | "shrink-boundary" ->
      let shrinkable = ref [] in
      Array.iteri
        (fun i e ->
          match e with
          | Join.R_side _ | Join.S_side _ -> (
            match side_entry e with
            | Vo.Inaccessible_node { region; _ }
            | Vo.Inaccessible_leaf { region; _ } -> (
              match shrink_box region with
              | Some b -> shrinkable := (i, b) :: !shrinkable
              | None -> ())
            | Vo.Accessible _ -> ())
          | Join.Pair _ -> ())
        arr;
      (match !shrinkable with
       | [] -> None
       | candidates ->
         let i, box = Prng.pick prng (Array.of_list candidates) in
         let inner =
           match side_entry arr.(i) with
           | Vo.Inaccessible_leaf l -> Vo.Inaccessible_leaf { l with region = box }
           | Vo.Inaccessible_node nd ->
             Vo.Inaccessible_node { nd with region = box }
           | Vo.Accessible _ -> assert false
         in
         arr.(i) <- rewrap arr.(i) inner;
         result ())
    | "duplicate-entry" ->
      (* Duplicating an APS entry would pass: union coverage is insensitive
         to repetition. Duplicating a Pair smuggles a result row in twice —
         exactly what the distinct-pair-keys check exists to stop. *)
      if Array.length pairs = 0 then None
      else begin
        let i = Prng.pick prng pairs in
        Some (Array.to_list arr @ [ arr.(i) ])
      end
    | _ -> None

  (* --- wire-level tampers, uniform over every query type --- *)

  let patch_count bytes f =
    let n =
      (Char.code bytes.[0] lsl 24)
      lor (Char.code bytes.[1] lsl 16)
      lor (Char.code bytes.[2] lsl 8)
      lor Char.code bytes.[3]
    in
    let n' = f n in
    let b = Bytes.of_string bytes in
    Bytes.set b 0 (Char.chr ((n' lsr 24) land 0xff));
    Bytes.set b 1 (Char.chr ((n' lsr 16) land 0xff));
    Bytes.set b 2 (Char.chr ((n' lsr 8) land 0xff));
    Bytes.set b 3 (Char.chr (n' land 0xff));
    Bytes.to_string b

  let format_tamper prng name bytes =
    let len = String.length bytes in
    if len < 5 then None
    else begin
      match name with
      | "bit-flip" ->
        let i = Prng.int prng len in
        let bit = 1 lsl Prng.int prng 8 in
        let b = Bytes.of_string bytes in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor bit));
        Some (Bytes.to_string b)
      | "truncate" ->
        let k = 1 + Prng.int prng (min 16 (len - 1)) in
        Some (String.sub bytes 0 (len - k))
      | "length-inflate" -> Some (patch_count bytes (fun n -> n + 1))
      | "huge-count" -> Some (patch_count bytes (fun _ -> 0xffff_ffff))
      | "trailing-garbage" ->
        Some (bytes ^ Prng.bytes prng (1 + Prng.int prng 8))
      | _ -> None
    end

  (* --- fixtures: one small honest exchange per query type --- *)

  let role_a = "RoleA"
  let role_b = "RoleB"
  let alt_policy = Expr.of_string "RoleA | RoleB"
  let user = Attr.set_of_list [ role_a ]

  let keys ~seed universe =
    let drbg = Drbg.create ~seed in
    let msk, mvk = Abs.setup drbg in
    let sk = Abs.keygen drbg msk (Universe.attrs universe) in
    (drbg, mvk, sk)

  let rec_ key value policy =
    Record.make ~key ~value ~policy:(Expr.of_string policy)

  let vo_target ~kind ~verify_vo vo =
    let check batch bytes =
      match Vo.decode bytes with
      | Error e -> Error e
      | Ok vo -> (
        match verify_vo ?batch vo with Error e -> Error e | Ok _ -> Ok ())
    in
    {
      kind;
      bytes = Vo.to_bytes vo;
      verify = check None;
      verify_batched = (fun bytes -> check (Some (System.batch_weights bytes)) bytes);
      tamper =
        (fun prng name ->
          Option.map Vo.to_bytes (vo_tamper ~alt_policy prng name vo));
    }

  let make_equality () =
    let space = Keyspace.create ~dims:1 ~depth:2 in
    let universe = Universe.create [ role_a; role_b ] in
    let drbg, mvk, sk = keys ~seed:"zkqac-attack:eq" universe in
    let records =
      [
        rec_ [| 0 |] "pub-0" "RoleA";
        rec_ [| 1 |] "pub-1" "RoleA";
        rec_ [| 2 |] "sec-2" "RoleB";
        rec_ [| 3 |] "sec-3" "RoleB";
      ]
    in
    let t =
      Equality.of_ap2g
        (Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"eq-pseudo" records)
    in
    let query = Keyspace.whole space in
    let vo, _ = Equality.range_vo drbg ~mvk t ~user query in
    vo_target ~kind:Equality_q
      ~verify_vo:(Equality.verify_range ~mvk ~t_universe:universe ~user ~query)
      vo

  let make_range () =
    let space = Keyspace.create ~dims:2 ~depth:2 in
    let universe = Universe.create [ role_a; role_b ] in
    let drbg, mvk, sk = keys ~seed:"zkqac-attack:rg" universe in
    let records =
      [
        rec_ [| 0; 0 |] "pub-00" "RoleA";
        rec_ [| 0; 1 |] "pub-01" "RoleA";
        rec_ [| 1; 0 |] "sec-10" "RoleB";
        rec_ [| 3; 3 |] "sec-33" "RoleB";
      ]
    in
    let t =
      Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"rg-pseudo" records
    in
    let query = Keyspace.whole space in
    let vo, _ = Ap2g.range_vo drbg ~mvk t ~user query in
    vo_target ~kind:Range_q
      ~verify_vo:(fun ?batch vo ->
        Ap2g.verify ?batch ~mvk ~t_universe:universe ~user ~query vo)
      vo

  let make_kd () =
    let space = Keyspace.create ~dims:2 ~depth:2 in
    let universe = Universe.create [ role_a; role_b ] in
    let drbg, mvk, sk = keys ~seed:"zkqac-attack:kd" universe in
    (* RoleB records in opposite corners, each paired with a nearby RoleA
       record, so the kd tree cannot merge the inaccessible area into one
       subtree: the VO then carries two inaccessible leaf regions, giving
       the APS-replay and value-hash scenarios targets in the kd matrix
       column. *)
    let records =
      [
        rec_ [| 0; 0 |] "pub-00" "RoleA";
        rec_ [| 0; 1 |] "sec-01" "RoleB";
        rec_ [| 3; 3 |] "pub-33" "RoleA";
        rec_ [| 3; 2 |] "sec-32" "RoleB";
      ]
    in
    let t = Ap2kd.build drbg ~mvk ~sk ~space ~universe records in
    let query = Keyspace.whole space in
    let vo, _ = Ap2kd.range_vo drbg ~mvk t ~user query in
    vo_target ~kind:Kd_q
      ~verify_vo:(Ap2kd.verify ~mvk ~t_universe:universe ~user ~query)
      vo

  let make_join () =
    let space = Keyspace.create ~dims:1 ~depth:2 in
    let universe = Universe.create [ role_a; role_b ] in
    let drbg, mvk, sk = keys ~seed:"zkqac-attack:jn" universe in
    let r_records =
      [
        rec_ [| 0 |] "r-0" "RoleA";
        rec_ [| 1 |] "r-1" "RoleA";
        rec_ [| 2 |] "r-2" "RoleB";
      ]
    in
    let s_records = [ rec_ [| 0 |] "s-0" "RoleA"; rec_ [| 2 |] "s-2" "RoleB" ] in
    let r =
      Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"jn-r" r_records
    in
    let s =
      Ap2g.build drbg ~mvk ~sk ~space ~universe ~pseudo_seed:"jn-s" s_records
    in
    let query = Keyspace.whole space in
    let vo, _ = Join.join_vo drbg ~mvk ~r ~s ~user query in
    let check batch bytes =
      match Join.decode bytes with
      | Error e -> Error e
      | Ok vo -> (
        match Join.verify ?batch ~mvk ~t_universe:universe ~user ~query vo with
        | Error e -> Error e
        | Ok _ -> Ok ())
    in
    {
      kind = Join_q;
      bytes = Join.to_bytes vo;
      verify = check None;
      verify_batched = (fun bytes -> check (Some (System.batch_weights bytes)) bytes);
      tamper =
        (fun prng name ->
          Option.map Join.to_bytes (join_tamper ~alt_policy prng name vo));
    }

  (* A Gt encoding the backend must refuse to decode. The first candidate
     (a tiny nonzero field element) is accepted by the raw F_p2 parser but
     lies outside the order-r subgroup on the real backend — exactly the
     class of input the subgroup membership check exists to reject; on the
     mock backend the same bytes violate encoding canonicity. The all-0xff
     fallback is out of range on every backend. *)
  let non_subgroup_gt_bytes len =
    let tiny =
      let b = Bytes.make len '\x00' in
      Bytes.set b (len - 1) '\x02';
      Bytes.to_string b
    in
    List.find_opt
      (fun s -> Option.is_none (P.Gt.of_bytes s))
      [ tiny; String.make len '\xff' ]

  (* Wire surgery on a sealed response: split the envelope, split the KEM
     ciphertext inside it, substitute c_tilde, and re-assemble byte-exactly
     around the substitution. *)
  let envelope_tamper name bytes =
    if not (String.equal name "gt-subgroup") then None
    else begin
      match
        let r = Wire.reader bytes in
        let kem = Wire.rbytes r in
        let nonce = Wire.rbytes r in
        let body = Wire.rbytes r in
        let tag = Wire.rbytes r in
        if not (Wire.at_end r) then raise Wire.Malformed;
        let kr = Wire.reader kem in
        let policy = Wire.rbytes kr in
        let c_tilde = Wire.rbytes kr in
        let rest =
          String.sub kem (Wire.pos kr) (String.length kem - Wire.pos kr)
        in
        (policy, c_tilde, rest, nonce, body, tag)
      with
      | exception (Wire.Malformed | Wire.Limit _) -> None
      | policy, c_tilde, rest, nonce, body, tag ->
        (match non_subgroup_gt_bytes (String.length c_tilde) with
         | None -> None
         | Some bad ->
           let kw = Wire.writer () in
           Wire.bytes kw policy;
           Wire.bytes kw bad;
           Buffer.add_string kw rest;
           let w = Wire.writer () in
           Wire.bytes w (Wire.contents kw);
           Wire.bytes w nonce;
           Wire.bytes w body;
           Wire.bytes w tag;
           Some (Wire.contents w))
    end

  let envelope_payload = "zkqac-attack: envelope payload"

  let make_envelope () =
    let drbg = Drbg.create ~seed:"zkqac-attack:env" in
    let mk, pp = Envelope.C.setup drbg in
    let sk = Envelope.C.keygen drbg mk pp user in
    let sealed =
      Envelope.seal drbg pp ~policy:(Expr.of_string role_a) envelope_payload
    in
    let bytes = Envelope.to_bytes sealed in
    (* There is no ABS batching inside an envelope open: the batched path
       is the sequential one. *)
    let check bytes =
      match Envelope.decode bytes with
      | Error e -> Error e
      | Ok sealed ->
        (match Envelope.open_result pp sk sealed with
         | Error e -> Error e
         | Ok payload ->
           if String.equal payload envelope_payload then Ok ()
           else Error (VE.Digest_mismatch "envelope payload"))
    in
    {
      kind = Envelope_q;
      bytes;
      verify = check;
      verify_batched = check;
      tamper = (fun _prng name -> envelope_tamper name bytes);
    }

  let targets () =
    [ make_equality (); make_range (); make_kd (); make_join (); make_envelope () ]

  let fixtures () =
    List.map (fun (t : target) -> (t.kind, t.bytes, t.verify)) (targets ())

  (* --- driver --- *)

  let run ?scenario ?(batched = false) ~seed () =
    let targets = targets () in
    let check t = if batched then t.verify_batched else t.verify in
    List.iter
      (fun t ->
        match (check t) t.bytes with
        | Ok () -> ()
        | Error e ->
          invalid_arg
            (Printf.sprintf "adversary harness: honest %s VO rejected: %s"
               (kind_name t.kind) (VE.to_string e)))
      targets;
    let scenarios =
      match scenario with
      | None -> Scenario.all
      | Some name -> (
        match Scenario.find name with
        | Some s -> [ s ]
        | None ->
          invalid_arg
            (Printf.sprintf "unknown scenario %S (have: %s)" name
               (String.concat ", " Scenario.names)))
    in
    let cells =
      List.concat_map
        (fun (sc : Scenario.t) ->
          List.map
            (fun tgt ->
              (* Deterministic per-cell stream: the same seed always attacks
                 the same bytes the same way, independent of cell order. *)
              let prng =
                Prng.create
                  (seed lxor Hashtbl.hash (sc.Scenario.name, kind_name tgt.kind))
              in
              let tampered =
                match sc.Scenario.category with
                (* Transport faults live on the socket and crash faults on
                   the process, not in VO bytes; the chaos proxy and the
                   crash harness inject them against a live daemon. *)
                | Scenario.Transport | Scenario.Crash -> None
                | Scenario.Format -> format_tamper prng sc.Scenario.name tgt.bytes
                | Scenario.Soundness | Scenario.Completeness ->
                  tgt.tamper prng sc.Scenario.name
              in
              let outcome =
                match tampered with
                | None -> Not_applicable
                | Some bytes -> (
                  match (check tgt) bytes with
                  | Ok () -> Accepted
                  | Error e ->
                    Zkqac_telemetry.Metrics.rejection (VE.code e);
                    if Scenario.expected sc.Scenario.name e then Rejected e
                    else Misclassified e)
              in
              (match outcome with
              | Rejected e | Misclassified e ->
                Flight.record ~cat:"verdict" ~detail:(VE.code e)
                  ("attack:" ^ sc.Scenario.name)
              | Accepted | Not_applicable -> ());
              (* Expected rejections are the sweep working as designed; only
                 a survivor or a wrong classification is a forensic event
                 worth a flight dump. *)
              (match outcome with
              | Accepted ->
                Flight.trip ~reason:("attack-accepted:" ^ sc.Scenario.name)
              | Misclassified e ->
                Flight.trip
                  ~reason:
                    ("attack-misclassified:" ^ sc.Scenario.name ^ ":" ^ VE.code e)
              | Rejected _ | Not_applicable -> ());
              { scenario = sc; kind = tgt.kind; outcome })
            targets)
        scenarios
    in
    let ok =
      List.for_all
        (fun c ->
          match c.outcome with
          | Rejected _ | Not_applicable -> true
          | Accepted | Misclassified _ -> false)
        cells
    in
    (* With an audit sink enabled, every cell becomes one chained entry and
       the sweep closes with a summary whose counts must reconcile with the
       rendered matrix footer — CI cross-checks exactly that. *)
    if Audit.enabled () then begin
      let outcome_name = function
        | Rejected _ -> "rejected"
        | Misclassified _ -> "misclassified"
        | Accepted -> "accepted"
        | Not_applicable -> "not-applicable"
      in
      List.iter
        (fun c ->
          let error =
            match c.outcome with
            | Rejected e | Misclassified e -> VE.code e
            | Accepted | Not_applicable -> ""
          in
          Audit.record ~kind:"attack"
            (Json.Obj
               [ ("scenario", Json.Str c.scenario.Scenario.name);
                 ("query", Json.Str (kind_name c.kind));
                 ("batched", Json.Bool batched);
                 ("outcome", Json.Str (outcome_name c.outcome));
                 ("error", Json.Str error) ]))
        cells;
      let count p = List.length (List.filter (fun c -> p c.outcome) cells) in
      Audit.record ~kind:"attack-summary"
        (Json.Obj
           [ ("seed", Json.Int seed);
             ("batched", Json.Bool batched);
             ("cells", Json.Int (List.length cells));
             ( "applied",
               Json.Int (count (function Not_applicable -> false | _ -> true)) );
             ("rejected", Json.Int (count (function Rejected _ -> true | _ -> false)));
             ("accepted", Json.Int (count (function Accepted -> true | _ -> false)));
             ( "misclassified",
               Json.Int (count (function Misclassified _ -> true | _ -> false)) );
             ("ok", Json.Bool ok) ])
    end;
    { seed; cells; ok }

  (* --- matrix rendering --- *)

  let cell_text = function
    | Rejected e -> VE.code e
    | Misclassified e -> "WRONG:" ^ VE.code e
    | Accepted -> "ACCEPTED!"
    | Not_applicable -> "-"

  let render report =
    let buf = Buffer.create 4096 in
    (* Rows in registry order, restricted to scenarios actually run. *)
    let present name =
      List.exists (fun (c : cell) -> c.scenario.Scenario.name = name) report.cells
    in
    let scenarios =
      List.filter (fun (s : Scenario.t) -> present s.name) Scenario.all
    in
    let cell sc kind =
      match
        List.find_opt
          (fun (c : cell) -> c.kind = kind && c.scenario.Scenario.name = sc)
          report.cells
      with
      | Some c -> cell_text c.outcome
      | None -> ""
    in
    let w0 = 18 and w = 22 in
    let pad width s =
      if String.length s >= width then s
      else s ^ String.make (width - String.length s) ' '
    in
    Buffer.add_string buf
      (Printf.sprintf "attack matrix (seed %d)\n\n" report.seed);
    Buffer.add_string buf (pad w0 "scenario");
    List.iter (fun k -> Buffer.add_string buf (pad w (kind_name k))) all_kinds;
    Buffer.add_char buf '\n';
    Buffer.add_string buf
      (String.make (w0 + (w * List.length all_kinds)) '-');
    Buffer.add_char buf '\n';
    List.iter
      (fun (sc : Scenario.t) ->
        Buffer.add_string buf (pad w0 sc.name);
        List.iter
          (fun k -> Buffer.add_string buf (pad w (cell sc.name k)))
          all_kinds;
        Buffer.add_char buf '\n')
      scenarios;
    let applied, rejected =
      List.fold_left
        (fun (a, r) c ->
          match c.outcome with
          | Not_applicable -> (a, r)
          | Rejected _ -> (a + 1, r + 1)
          | Accepted | Misclassified _ -> (a + 1, r))
        (0, 0) report.cells
    in
    Buffer.add_string buf
      (Printf.sprintf
         "\n%d/%d tampered responses rejected with the expected error; %s\n"
         rejected applied
         (if report.ok then "all attacks defeated."
          else "ATTACKS SURVIVED VERIFICATION."));
    Buffer.contents buf
end
