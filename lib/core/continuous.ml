module Expr = Zkqac_policy.Expr
module Attr = Zkqac_policy.Attr
module Universe = Zkqac_policy.Universe
module Sha256 = Zkqac_hashing.Sha256

module Make (P : Zkqac_group.Pairing_intf.PAIRING) = struct
  module Abs = Zkqac_abs.Abs.Make (P)
  module Vo = Vo.Make (P)

  let pseudo_policy = Expr.Leaf Attr.pseudo_role

  let bound_str = function None -> "inf" | Some v -> string_of_int v

  let gap_message ~lo ~hi =
    Sha256.digest_list [ "zkqac-gap"; bound_str lo; bound_str hi ]

  type signed_record = { record : Record.t; app : Abs.signature }
  type signed_gap = { lo : int option; hi : int option; gap_app : Abs.signature }

  type t = {
    universe : Universe.t;
    records : signed_record array;  (* sorted by key *)
    gaps : signed_gap array;        (* gaps.(i) precedes records.(i); last gap after *)
  }

  type entry =
    | Rec_accessible of { record : Record.t; app : Abs.signature }
    | Rec_inaccessible of { key : int; value_hash : string; aps : Abs.signature }
    | Gap of { lo : int option; hi : int option; aps : Abs.signature }

  type vo = entry list

  let build drbg ~mvk ~sk ~universe records =
    List.iter
      (fun (r : Record.t) ->
        if Array.length r.Record.key <> 1 then
          invalid_arg "Continuous.build: need 1-D keys")
      records;
    let sorted =
      List.sort_uniq
        (fun (a : Record.t) (b : Record.t) -> compare a.Record.key.(0) b.Record.key.(0))
        records
    in
    if List.length sorted <> List.length records then
      invalid_arg "Continuous.build: duplicate keys";
    let signed =
      Array.of_list
        (List.map
           (fun (r : Record.t) ->
             { record = r;
               app = Abs.sign drbg mvk sk ~msg:(Record.message_of r) ~policy:r.Record.policy })
           sorted)
    in
    let n = Array.length signed in
    let gap_bounds i =
      let lo = if i = 0 then None else Some signed.(i - 1).record.Record.key.(0) in
      let hi = if i = n then None else Some signed.(i).record.Record.key.(0) in
      (lo, hi)
    in
    let gaps =
      Array.init (n + 1) (fun i ->
          let lo, hi = gap_bounds i in
          { lo; hi;
            gap_app = Abs.sign drbg mvk sk ~msg:(gap_message ~lo ~hi) ~policy:pseudo_policy })
    in
    { universe; records = signed; gaps }

  let num_signatures t = Array.length t.records + Array.length t.gaps

  let keep_of t ~user = Expr.attrs (Universe.super_policy t.universe ~user)

  let record_entry drbg ~mvk ~keep ~user (sr : signed_record) =
    let r = sr.record in
    if Expr.eval r.Record.policy user then Rec_accessible { record = r; app = sr.app }
    else begin
      let value_hash = Record.value_hash r.Record.value in
      let aps =
        Vo.relax drbg ~mvk ~keep
          ~msg:(Record.message ~key:r.Record.key ~value_hash)
          ~policy:r.Record.policy sr.app
      in
      Rec_inaccessible { key = r.Record.key.(0); value_hash; aps }
    end

  let gap_entry drbg ~mvk ~keep (g : signed_gap) =
    let aps =
      Vo.relax drbg ~mvk ~keep ~msg:(gap_message ~lo:g.lo ~hi:g.hi)
        ~policy:pseudo_policy g.gap_app
    in
    Gap { lo = g.lo; hi = g.hi; aps }

  let equality_vo drbg ~mvk t ~user key =
    let keep = keep_of t ~user in
    let n = Array.length t.records in
    let rec bsearch lo hi =
      if lo >= hi then None
      else begin
        let mid = (lo + hi) / 2 in
        let k = t.records.(mid).record.Record.key.(0) in
        if k = key then Some mid
        else if k < key then bsearch (mid + 1) hi
        else bsearch lo mid
      end
    in
    match bsearch 0 n with
    | Some i -> record_entry drbg ~mvk ~keep ~user t.records.(i)
    | None ->
      (* Find the gap containing the key. *)
      let idx = ref 0 in
      while
        !idx < n && t.records.(!idx).record.Record.key.(0) < key
      do
        incr idx
      done;
      gap_entry drbg ~mvk ~keep t.gaps.(!idx)

  let range_vo drbg ~mvk t ~user ~lo ~hi =
    let keep = keep_of t ~user in
    let out = ref [] in
    Array.iter
      (fun (sr : signed_record) ->
        let k = sr.record.Record.key.(0) in
        if k >= lo && k <= hi then
          out := record_entry drbg ~mvk ~keep ~user sr :: !out)
      t.records;
    Array.iter
      (fun (g : signed_gap) ->
        (* The open interval (g.lo, g.hi) intersects [lo, hi]? *)
        let glo = match g.lo with None -> min_int | Some v -> v in
        let ghi = match g.hi with None -> max_int | Some v -> v in
        if glo < hi && ghi > lo && glo + 1 <= ghi - 1 && glo + 1 <= hi && ghi - 1 >= lo
        then out := gap_entry drbg ~mvk ~keep g :: !out)
      t.gaps;
    List.rev !out

  let verify_range ?batch ~mvk ~t_universe ~user ~lo ~hi vo =
    let ( let* ) = Result.bind in
    let super_policy = Universe.super_policy t_universe ~user in
    (* Completeness: points and open gaps must cover every integer of
       [lo, hi]. Collect covered intervals and sweep. *)
    let intervals =
      List.filter_map
        (fun e ->
          match e with
          | Rec_accessible { record; _ } ->
            Some (record.Record.key.(0), record.Record.key.(0))
          | Rec_inaccessible { key; _ } -> Some (key, key)
          | Gap { lo = glo; hi = ghi; _ } ->
            let a = match glo with None -> min_int / 2 | Some v -> v + 1 in
            let b = match ghi with None -> max_int / 2 | Some v -> v - 1 in
            if a > b then None else Some (a, b))
        vo
      |> List.sort compare
    in
    let rec sweep pos = function
      | [] -> pos > hi
      | (a, b) :: rest ->
        if a > pos then false
        else sweep (max pos (if b = max_int then b else b + 1)) rest
    in
    let* () = if sweep lo intervals then Ok () else Error Vo.Completeness_gap in
    (* Soundness: structure first, signatures after, as in [Vo.verify]. *)
    let claims = ref [] in
    let claim what msg policy sigma =
      claims := { Abs.msg; policy; sigma; blame = (fun _ -> what) } :: !claims;
      Ok ()
    in
    let check entry =
      match entry with
      | Rec_accessible { record; app } ->
        if record.Record.key.(0) < lo || record.Record.key.(0) > hi then
          Error (Vo.Record_outside_query record.Record.key)
        else if not (Expr.eval record.Record.policy user) then
          Error (Vo.Policy_not_satisfied record.Record.key)
        else
          claim (Vo.Bad_abs_signature "continuous record APP")
            (Record.message_of record) record.Record.policy app
      | Rec_inaccessible { key; value_hash; aps } ->
        claim (Vo.Bad_aps_signature "continuous record APS")
          (Record.message ~key:[| key |] ~value_hash) super_policy aps
      | Gap { lo = glo; hi = ghi; aps } ->
        claim (Vo.Bad_aps_signature "continuous gap APS")
          (gap_message ~lo:glo ~hi:ghi) super_policy aps
    in
    let* () =
      List.fold_left (fun acc e -> Result.bind acc (fun () -> check e)) (Ok ()) vo
    in
    let* () = Abs.check ?batch mvk (List.rev !claims) in
    Ok
      (List.filter_map
         (function Rec_accessible { record; _ } -> Some record | _ -> None)
         vo)
end
