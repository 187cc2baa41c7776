module B = Zkqac_bigint.Bigint
module Attr = Zkqac_policy.Attr
module Expr = Zkqac_policy.Expr
module Msp = Zkqac_policy.Msp
module Drbg = Zkqac_hashing.Drbg
module Htf = Zkqac_hashing.Hash_to_field
module T = Zkqac_telemetry.Telemetry
module Trace = Zkqac_telemetry.Trace

module Make (P : Zkqac_group.Pairing_intf.PAIRING) = struct
  module G = P.G

  let order = P.order

  type mvk = {
    g : G.t;
    h0 : G.t;
    h : G.t;
    cap_a0 : G.t; (* A0 = h0^a0 *)
    cap_a : G.t;  (* A  = h^a *)
    cap_b : G.t;  (* B  = h^b *)
    cap_c : G.t;  (* C *)
  }

  type msk = { a0 : B.t; a : B.t; b : B.t; issued : mvk (* the mvk made with it *) }

  module Attr_map = Map.Make (String)

  (* Every base ABS.Sign raises to a power is fixed by the key or its mvk,
     so the key carries their tables: K_base, K0, each K_u, the mvk's C and
     g, and A·B^u for each held attribute. *)
  type signing_key = {
    attrs : Attr.Set.t;
    issuer : mvk;
    k_base : G.table;
    k0 : G.table;
    k_u : G.table Attr_map.t;
    cap_c_t : G.table;
    g_t : G.table;
    attr_bases : G.table Attr_map.t;
  }

  type signature = {
    tau : string;
    y : G.t;
    w : G.t;
    s : G.t array;
    p : G.t array;
  }

  (* Attribute names are mapped into Z_order by hashing; zero is remapped so
     that a + b*u is invertible with overwhelming probability. *)
  let attr_scalar a =
    let v = Htf.to_zp ~domain:"zkqac-abs-attr" ~p:order a in
    if B.is_zero v then B.one else v

  let msg_scalar tau msg = Htf.to_zp_list ~domain:"zkqac-abs-msg" ~p:order [ tau; msg ]

  let setup drbg =
    let a0 = P.rand_scalar drbg in
    let a = P.rand_scalar drbg in
    let b = P.rand_scalar drbg in
    let g = P.rand_g drbg in
    let cap_c = P.rand_g drbg in
    let h0 = P.rand_g drbg in
    let h = P.rand_g drbg in
    let mvk =
      {
        g;
        h0;
        h;
        cap_a0 = G.pow h0 a0;
        cap_a = G.pow h a;
        cap_b = G.pow h b;
        cap_c;
      }
    in
    ({ a0; a; b; issued = mvk }, mvk)

  (* C * g^hash -- the message-binding base of the S components. *)
  let msg_base mvk hash = G.mul mvk.cap_c (G.pow mvk.g hash)

  (* A * B^u -- the attribute base of the P components. *)
  let attr_base mvk u = G.mul mvk.cap_a (G.pow mvk.cap_b (attr_scalar u))

  let mvk_elements mvk = [ mvk.g; mvk.h0; mvk.h; mvk.cap_a0; mvk.cap_a; mvk.cap_b; mvk.cap_c ]

  let keygen drbg msk attrs =
    let mvk = msk.issued in
    let k_base = P.rand_g drbg in
    let k0 = G.pow k_base (B.invmod msk.a0 order) in
    let per_attr f =
      Attr.Set.fold (fun u acc -> Attr_map.add u (G.precompute (f u)) acc) attrs Attr_map.empty
    in
    {
      attrs;
      issuer = mvk;
      k_base = G.precompute k_base;
      k0 = G.precompute k0;
      k_u =
        per_attr (fun u ->
            let d = B.erem (B.add msk.a (B.mul msk.b (attr_scalar u))) order in
            G.pow k_base (B.invmod d order));
      cap_c_t = G.precompute mvk.cap_c;
      g_t = G.precompute mvk.g;
      attr_bases = per_attr (attr_base mvk);
    }

  (* Sign raises only tabled bases: Y = K_base^r0, W = K0^r0, each row
     S_i = K_u^r0 * C^rr_i * g^(h rr_i) and each column
     P_j = prod_i (A B^u_i)^(M_ij rr_i), one [G.pow_prod] each. The draws
     must stay in the order tau, r0, rr: every signature, and so every
     ADS, depends on it (pinned by the goldens in test_core.ml). *)
  let sign drbg mvk sk ~msg ~policy =
    Trace.with_span "abs.sign" @@ fun _ ->
    T.bump T.Abs_sign;
    if not (mvk == sk.issuer
            || List.for_all2 G.equal (mvk_elements mvk) (mvk_elements sk.issuer))
    then invalid_arg "Abs.sign: the mvk did not issue this signing key";
    let msp = Msp.build policy in
    let v =
      match Msp.satisfying_rows msp policy sk.attrs with
      | Some v -> v
      | None -> invalid_arg "Abs.sign: key attributes do not satisfy the policy"
    in
    let tau = Drbg.generate drbg 32 in
    let hash = msg_scalar tau msg in
    let r0 = P.rand_scalar drbg in
    let rr = Array.init msp.Msp.rows (fun _ -> P.rand_scalar drbg) in
    let y = G.pow_prod [ (sk.k_base, r0) ] in
    let w = G.pow_prod [ (sk.k0, r0) ] in
    let s =
      Array.init msp.Msp.rows (fun i ->
          let msg_part = [ (sk.cap_c_t, rr.(i)); (sk.g_t, B.mul hash rr.(i)) ] in
          if v.(i) = 0 then G.pow_prod msg_part
          else
            (* satisfying_rows only selects held attributes *)
            G.pow_prod ((Attr_map.find msp.Msp.labels.(i) sk.k_u, r0) :: msg_part))
    in
    (* A label the key does not hold gets its table on the spot. *)
    let bases =
      Array.map
        (fun u ->
          match Attr_map.find_opt u sk.attr_bases with
          | Some t -> t
          | None -> G.precompute (attr_base mvk u))
        msp.Msp.labels
    in
    let p =
      Array.init msp.Msp.cols (fun j ->
          G.pow_prod
            (List.filter_map
               (fun i ->
                 match msp.Msp.matrix.(i).(j) with
                 | 0 -> None
                 | 1 -> Some (bases.(i), rr.(i))
                 | mij -> Some (bases.(i), B.mul (B.of_int mij) rr.(i)))
               (List.init msp.Msp.rows Fun.id)))
    in
    { tau; y; w; s; p }

  (* --- serialization (needed below to commit to sigma in the verifier's
     weight derivation) --- *)

  let put_u16 buf n =
    Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
    Buffer.add_char buf (Char.chr (n land 0xff))

  let to_bytes sigma =
    let buf = Buffer.create 256 in
    put_u16 buf (String.length sigma.tau);
    Buffer.add_string buf sigma.tau;
    Buffer.add_string buf (G.to_bytes sigma.y);
    Buffer.add_string buf (G.to_bytes sigma.w);
    put_u16 buf (Array.length sigma.s);
    Array.iter (fun x -> Buffer.add_string buf (G.to_bytes x)) sigma.s;
    put_u16 buf (Array.length sigma.p);
    Array.iter (fun x -> Buffer.add_string buf (G.to_bytes x)) sigma.p;
    Buffer.contents buf

  (* A signature fits a span program when it has one S per row and one P
     per column. *)
  let fits msp sigma =
    Array.length sigma.s = msp.Msp.rows && Array.length sigma.p = msp.Msp.cols

  (* The column weights folded into one exponent per row:
     c_i = sum_j M_ij z_j. *)
  let row_weights msp z =
    Array.map
      (fun row ->
        let c = ref B.zero in
        Array.iteri
          (fun j mij -> if mij <> 0 then c := B.erem (B.add !c (B.mul (B.of_int mij) z.(j))) order)
          row;
        !c)
      msp.Msp.matrix

  (* The one ABS verification equation (DESIGN.md §5.1). Claim m is a
     message, a signature, its span program and its row weights c_{m,i}
     under the column weights [zs]; it gets the weight d_m, with d_1 = 1
     and each later d_m a [d ()] draw:

       e(prod_m W_m^{d_m z_kb}, A0)
         * e((prod_m Y_m^{d_m})^{-1}, h0^{z_kb} h^{z_0})
         * prod_u e(prod_{u(m,i) = u} S_{m,i}^{d_m c_{m,i}}, AB^u)
         * prod_h e(C g^h, prod_{h_m = h} prod_j P_{m,j}^{-z_j d_m})
       = 1

     Row terms merge by attribute, whatever policy the row came from, and
     column terms by message hash: 2 + distinct attributes + distinct
     hashes Miller loops and one final exponentiation, for one claim or
     many. For one claim the product is ABS.Verify's key-binding equation
     to the power z_kb times column j's to the power z_j, so zero weights
     pick out a single equation. *)
  let holds mvk ~zkb ~zs ~d claims =
    let merge x = function Some acc -> G.mul acc x | None -> x in
    let add tbl key x = Hashtbl.replace tbl key (merge x (Hashtbl.find_opt tbl key)) in
    let rows = Hashtbl.create 16 and msgs = Hashtbl.create 16 in
    let w_acc = ref None and y_acc = ref None in
    List.iteri
      (fun m (msg, s, msp, cs) ->
        let d = if m = 0 then B.one else d () in
        let weigh x = if m = 0 then x else G.pow x d in
        w_acc := Some (merge (weigh s.w) !w_acc);
        y_acc := Some (merge (weigh s.y) !y_acc);
        Array.iteri
          (fun i ci ->
            if not (B.is_zero ci) then
              add rows msp.Msp.labels.(i) (G.pow s.s.(i) (B.erem (B.mul d ci) order)))
          cs;
        (* (tau, msg) fixes the message hash h_m. *)
        Array.iteri
          (fun j pj ->
            if not (B.is_zero zs.(j)) then
              add msgs (s.tau, msg) (G.pow pj (B.erem (B.neg (B.mul d zs.(j))) order)))
          s.p)
      claims;
    let total acc = Option.value ~default:G.one !acc in
    let terms =
      (G.pow (total w_acc) zkb, mvk.cap_a0)
      :: (G.inv (total y_acc), G.mul (G.pow mvk.h0 zkb) (G.pow mvk.h zs.(0)))
      :: Hashtbl.fold (fun u acc l -> (acc, attr_base mvk u) :: l) rows []
      @ Hashtbl.fold
          (fun (tau, msg) acc l -> (msg_base mvk (msg_scalar tau msg), acc) :: l)
          msgs []
    in
    P.Gt.is_one (P.e_prod terms)

  (* Typed verification: each way ABS.Verify can fail is a distinct
     [Bad_abs_signature] payload, so a client rejection is attributable.

     [verify] takes no randomness, so the weights z_0 .. z_{l-1}, then
     z_kb, are derived Fiat-Shamir style from the (message, policy,
     signature) under check. A forger commits to sigma before the weights
     exist, so a combination that cancels a bad equation against another
     is a ~1/order event per attempt -- the same bound as
     verifier-sampled small-exponent batching. Only when the product is
     not 1 is it re-weighted, one equation at a time, to name the
     culprit. *)
  let verify_result mvk ~msg ~policy sigma =
    Trace.with_span "abs.verify" @@ fun _ ->
    T.bump T.Abs_verify;
    let fail what = Error (Zkqac_util.Verify_error.Bad_abs_signature what) in
    let msp = Msp.build policy in
    let cols = msp.Msp.cols in
    if not (fits msp sigma)
    then fail "component count does not match the policy's span program"
    else if G.is_one sigma.y then fail "degenerate Y component"
    else begin
      let holds ~zkb zs =
        holds mvk ~zkb ~zs ~d:(fun () -> B.one) [ (msg, sigma, msp, row_weights msp zs) ]
      in
      let drbg =
        Drbg.create
          ~seed:
            (String.concat "\x00"
               [ "zkqac-abs-verify-weights"; msg; Expr.to_string policy; to_bytes sigma ])
      in
      let zs = Array.init cols (fun _ -> P.rand_scalar drbg) in
      let zkb = P.rand_scalar drbg in
      let column j = Array.init cols (fun k -> if k = j then B.one else B.zero) in
      if holds ~zkb zs then Ok ()
      else if not (holds ~zkb:B.one (Array.make cols B.zero))
      then fail "key-binding pairing equation"
      else
        let bad j = not (holds ~zkb:B.zero (column j)) in
        match List.find_opt bad (List.init cols Fun.id) with
        | Some j -> fail (Printf.sprintf "span-program equation (column %d)" j)
        | None ->
          (* The product rejected but every single equation holds: a
             ~1/order coincidence in the weights. The product is
             authoritative. *)
          fail "combined verification equation"
    end

  let verify mvk ~msg ~policy sigma =
    Result.is_ok (verify_result mvk ~msg ~policy sigma)

  type claim = {
    msg : string;
    policy : Expr.t;
    sigma : signature;
    blame : Zkqac_util.Verify_error.t -> Zkqac_util.Verify_error.t;
  }

  (* Every claim of a VO in one product: the column and key-binding
     weights are shared, and each claim after the first gets its own
     weight d_m, all drawn from [drbg]. The product is the exponent
     L_1(z) + sum_{m>1} d_m L_m(z), where L_m is claim m's equations
     weighted by the z's; a bad equation makes it a nonzero polynomial of
     degree 2 in the weights, so it vanishes with probability at most
     2/order (Schwartz-Zippel). *)
  let batch_holds drbg mvk claims =
    Trace.with_span "abs.verify_batch"
      ~attrs:[ ("batch", Trace.Int (List.length claims)) ]
    @@ fun _ ->
    T.bump T.Abs_verify;
    let programs = Hashtbl.create 8 in
    let claims =
      List.map
        (fun c ->
          let key = Expr.to_string c.policy in
          if not (Hashtbl.mem programs key) then Hashtbl.add programs key (Msp.build c.policy);
          (c, key, Hashtbl.find programs key))
        claims
    in
    List.for_all (fun (c, _, msp) -> fits msp c.sigma && not (G.is_one c.sigma.y)) claims
    && begin
      let zs =
        Array.init (Hashtbl.fold (fun _ msp n -> max n msp.Msp.cols) programs 1) (fun _ ->
            P.rand_scalar drbg)
      in
      let zkb = P.rand_scalar drbg in
      let cs = Hashtbl.create 8 in
      Hashtbl.iter (fun key msp -> Hashtbl.add cs key (row_weights msp zs)) programs;
      holds mvk ~zkb ~zs
        ~d:(fun () -> P.rand_scalar drbg)
        (List.map (fun (c, key, msp) -> (c.msg, c.sigma, msp, Hashtbl.find cs key)) claims)
    end

  let rec check_each mvk = function
    | [] -> Ok ()
    | c :: rest ->
      (match verify_result mvk ~msg:c.msg ~policy:c.policy c.sigma with
       | Ok () -> check_each mvk rest
       | Error e -> Error (c.blame e))

  (* A rejected product only says that some claim is bad, so the
     sequential pass names it. *)
  let check ?batch mvk claims =
    match batch with
    | None -> check_each mvk claims
    | Some drbg when batch_holds drbg mvk claims -> Ok ()
    | Some _ ->
      Zkqac_telemetry.Metrics.batch_fallback ();
      Zkqac_telemetry.Flight.record ~cat:"verdict" ~detail:"batch-rejected"
        "vo.batch_fallback";
      (match check_each mvk claims with
       | Error e -> Error e
       | Ok () ->
         (* Sequential accepts what the product rejected: a ~2/order
            coincidence in the weights. The product is authoritative. *)
         Error (Zkqac_util.Verify_error.Bad_aps_signature "batched APS verification"))

  let relaxed_policy keep = Expr.of_attrs_or (Attr.Set.elements keep)

  let relax drbg mvk sigma ~msg ~policy ~keep =
    Trace.with_span "abs.relax" @@ fun _ ->
    T.bump T.Abs_relax;
    match Msp.purge policy ~keep with
    | None -> None
    | Some { Msp.kept_rows; kept_cols } ->
      let msp = Msp.build policy in
      if not (fits msp sigma) then None
      else begin
        let hash = msg_scalar sigma.tau msg in
        let base_c = msg_base mvk hash in
        (* Step 1: collapse the kept columns into a single P component. *)
        let p1 = ref G.one in
        List.iter (fun j -> p1 := G.mul !p1 sigma.p.(j)) kept_cols;
        (* Steps 2-3: one S component per kept attribute, in the canonical
           (sorted) order of the relaxed predicate; duplicates merge by
           multiplication, missing attributes are synthesized. *)
        let attrs_sorted = Attr.Set.elements keep in
        let s =
          List.map
            (fun u ->
              let dup_rows = List.filter (fun i -> Attr.equal msp.Msp.labels.(i) u) kept_rows in
              match dup_rows with
              | [] ->
                let r = P.rand_scalar drbg in
                p1 := G.mul !p1 (G.pow (attr_base mvk u) r);
                G.pow base_c r
              | rows ->
                List.fold_left (fun acc i -> G.mul acc sigma.s.(i)) G.one rows)
            attrs_sorted
        in
        (* Step 4: re-randomize so the result is distributed like a fresh
           signature on the relaxed predicate. *)
        let r = P.rand_scalar drbg in
        Some
          {
            tau = sigma.tau;
            y = G.pow sigma.y r;
            w = G.pow sigma.w r;
            s = Array.of_list (List.map (fun si -> G.pow si r) s);
            p = [| G.pow !p1 r |];
          }
      end

  (* --- deserialization (encoding lives above, with the verifier) --- *)

  let g_size = String.length (G.to_bytes G.g)

  (* The one parser of an encoded signature, the [len] bytes of [data] from
     [off]: a u16 tau length and tau, Y, W, a u16 count of S elements and
     the elements, the same for P, and nothing after. Every length is
     checked before the bytes under it are read. [elt data pos] decodes the
     element at [pos] and raises [Exit] if it cannot: the client's decode
     and the SP's stored decode differ only in it, and the frame check
     passes [G.one] for every element. *)
  let parse elt data ~off ~len =
    let stop = off + len and pos = ref off in
    let take n =
      if n > stop - !pos then raise Exit;
      let at = !pos in
      pos := at + n;
      at
    in
    let u16 () =
      let at = take 2 in
      (Char.code data.[at] lsl 8) lor Char.code data.[at + 1]
    in
    let elt () = elt data (take g_size) in
    let elts n =
      (* Explicit loop: Array.init has no specified evaluation order. *)
      let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (elt () :: acc) in
      Array.of_list (go n [])
    in
    match
      let tl = u16 () in
      let tau = String.sub data (take tl) tl in
      let y = elt () in
      let w = elt () in
      let s = elts (u16 ()) in
      let p = elts (u16 ()) in
      if !pos <> stop then raise Exit;
      { tau; y; w; s; p }
    with
    | sigma -> Some sigma
    | exception Exit -> None

  let element of_bytes data at =
    match of_bytes (String.sub data at g_size) with Some e -> e | None -> raise Exit

  let of_bytes data = parse (element G.of_bytes) data ~off:0 ~len:(String.length data)

  (* --- the stored form: the SP's signatures stay encoded --- *)

  type stored = { data : string; off : int; len : int }

  let store sigma =
    let data = to_bytes sigma in
    { data; off = 0; len = String.length data }

  let stored_of_slice data ~off ~len =
    Option.map (fun _ -> { data; off; len }) (parse (fun _ _ -> G.one) data ~off ~len)

  let of_stored { data; off; len } =
    match parse (element G.of_bytes_unchecked) data ~off ~len with
    | Some sigma -> sigma
    | None -> invalid_arg "Abs.of_stored: an element of the signature does not decode"

  let stored_size st = st.len
  let put_stored w st = Zkqac_util.Wire.bytes_sub w st.data ~off:st.off ~len:st.len

  let size sigma = String.length (to_bytes sigma)

  let mvk_to_bytes mvk =
    String.concat "" (List.map G.to_bytes (mvk_elements mvk))

  let mvk_of_bytes data =
    if String.length data <> 7 * g_size then None
    else begin
      let elt i = G.of_bytes (String.sub data (i * g_size) g_size) in
      match (elt 0, elt 1, elt 2, elt 3, elt 4, elt 5, elt 6) with
      | Some g, Some h0, Some h, Some cap_a0, Some cap_a, Some cap_b, Some cap_c ->
        Some { g; h0; h; cap_a0; cap_a; cap_b; cap_c }
      | _ -> None
    end
end
