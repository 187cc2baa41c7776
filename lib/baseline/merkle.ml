module Sha256 = Zkqac_hashing.Sha256
module Record = Zkqac_core.Record
module Wire = Zkqac_util.Wire

module Make (P : Zkqac_group.Pairing_intf.PAIRING) = struct
  module Sig = Schnorr.Make (P)

  let leaf_digest (r : Record.t) =
    Sha256.digest_list
      [ "mht-leaf"; Record.key_bytes r.Record.key; r.Record.value ]

  let node_digest l r = Sha256.digest_list [ "mht-node"; l; r ]

  type t = {
    records : Record.t array;  (* sorted by key *)
    levels : string array array;  (* levels.(0) = leaf digests *)
    root_sig : Sig.signature;
    n : int;
  }

  let build_levels leaves =
    let rec go acc level =
      if Array.length level <= 1 then List.rev (level :: acc)
      else begin
        let m = Array.length level in
        let next =
          Array.init ((m + 1) / 2) (fun i ->
              if (2 * i) + 1 < m then node_digest level.(2 * i) level.((2 * i) + 1)
              else level.(2 * i) (* odd node promoted *))
        in
        go (level :: acc) next
      end
    in
    Array.of_list (go [] leaves)

  let signed_message ~root ~n = Sha256.digest_list [ "mht-root"; root; string_of_int n ]

  let build drbg secret records =
    let records =
      Array.of_list
        (List.sort
           (fun (a : Record.t) b -> compare a.Record.key.(0) b.Record.key.(0))
           records)
    in
    Array.iteri
      (fun i (r : Record.t) ->
        if Array.length r.Record.key <> 1 then invalid_arg "Merkle.build: need 1-D keys";
        if i > 0 && records.(i - 1).Record.key.(0) = r.Record.key.(0) then
          invalid_arg "Merkle.build: duplicate keys")
      records;
    if Array.length records = 0 then invalid_arg "Merkle.build: empty";
    let leaves = Array.map leaf_digest records in
    let levels = build_levels leaves in
    let root = levels.(Array.length levels - 1).(0) in
    let n = Array.length records in
    { records; levels; root_sig = Sig.sign drbg secret (signed_message ~root ~n); n }

  let num_records t = t.n

  type vo = {
    segment : Record.t list;  (* contiguous run: boundaries + results *)
    start : int;              (* index of the first segment record *)
    total : int;              (* n, as signed *)
    fringes : (string option * string option) list;  (* per level: left, right *)
    signature : Sig.signature;
  }

  let range_vo t ~lo ~hi =
    (* Contiguous segment: every record in range plus one boundary record on
       each side (when one exists). *)
    let first_in = ref t.n and last_in = ref (-1) in
    Array.iteri
      (fun i (r : Record.t) ->
        let k = r.Record.key.(0) in
        if k >= lo && k <= hi then begin
          if i < !first_in then first_in := i;
          last_in := i
        end)
      t.records;
    let i0, j0 =
      if !last_in < 0 then begin
        (* Empty range: return the two records straddling it. *)
        let succ = ref t.n in
        Array.iteri
          (fun i (r : Record.t) ->
            if r.Record.key.(0) > hi && i < !succ then succ := i)
          t.records;
        (max 0 (!succ - 1), min (t.n - 1) !succ)
      end
      else (max 0 (!first_in - 1), min (t.n - 1) (!last_in + 1))
    in
    (* Collect per-level fringe digests for the segment [i0, j0]. *)
    let fringes = ref [] in
    let i = ref i0 and j = ref j0 in
    for level = 0 to Array.length t.levels - 2 do
      let row = t.levels.(level) in
      let left = if !i mod 2 = 1 then Some row.(!i - 1) else None in
      let right =
        if !j mod 2 = 0 && !j + 1 < Array.length row then Some row.(!j + 1) else None
      in
      fringes := (left, right) :: !fringes;
      i := !i / 2;
      j := !j / 2
    done;
    {
      segment = Array.to_list (Array.sub t.records i0 (j0 - i0 + 1));
      start = i0;
      total = t.n;
      fringes = List.rev !fringes;
      signature = t.root_sig;
    }

  let verify ~public ~lo ~hi vo =
    let seg = Array.of_list vo.segment in
    let len = Array.length seg in
    if len = 0 then Error "empty VO"
    else begin
      (* Keys strictly increasing. *)
      let sorted = ref true in
      for i = 1 to len - 1 do
        if seg.(i - 1).Record.key.(0) >= seg.(i).Record.key.(0) then sorted := false
      done;
      if not !sorted then Error "segment keys not increasing"
      else begin
        (* Boundary conditions: the segment must provably bracket the
           range. *)
        let first = seg.(0).Record.key.(0) and last = seg.(len - 1).Record.key.(0) in
        let left_ok = first < lo || vo.start = 0 in
        let right_ok = last > hi || vo.start + len = vo.total in
        if not (left_ok && right_ok) then Error "boundaries do not bracket the range"
        else begin
          (* Rebuild the root from the segment and fringes. *)
          let digests = ref (Array.to_list (Array.map leaf_digest seg)) in
          let i = ref vo.start and j = ref (vo.start + len - 1) in
          List.iter
            (fun (lfringe, rfringe) ->
              let row = !digests in
              let row = match lfringe with Some d -> d :: row | None -> row in
              let row = row @ (match rfringe with Some d -> [ d ] | None -> []) in
              let i' = (!i - match lfringe with Some _ -> 1 | None -> 0) / 2 in
              let rec pair = function
                | a :: b :: rest -> node_digest a b :: pair rest
                | [ a ] -> [ a ]
                | [] -> []
              in
              (* Alignment: the first element of [row] sits at an even
                 position by construction (we added the left sibling when the
                 index was odd). *)
              digests := pair row;
              i := i';
              j := !j / 2)
            vo.fringes;
          match !digests with
          | [ root ] ->
            if Sig.verify public (signed_message ~root ~n:vo.total) vo.signature then
              Ok
                (List.filter
                   (fun (r : Record.t) ->
                     r.Record.key.(0) >= lo && r.Record.key.(0) <= hi)
                   vo.segment)
            else Error "root signature invalid"
          | _ -> Error "fringe reconstruction failed"
        end
      end
    end

  let vo_size vo =
    let w = Wire.writer () in
    List.iter
      (fun (r : Record.t) ->
        Wire.bytes w (Record.key_bytes r.Record.key);
        Wire.bytes w r.Record.value)
      vo.segment;
    Wire.u32 w vo.start;
    Wire.u32 w vo.total;
    List.iter
      (fun (l, r) ->
        Wire.bytes w (Option.value ~default:"" l);
        Wire.bytes w (Option.value ~default:"" r))
      vo.fringes;
    Wire.bytes w (Sig.to_bytes vo.signature);
    String.length (Wire.contents w)
end
