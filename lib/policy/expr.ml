type t =
  | Leaf of Attr.t
  | And of t list
  | Or of t list
  | Threshold of int * t list

let leaf a =
  if not (Attr.is_valid a) then invalid_arg ("Expr.leaf: invalid attribute " ^ a);
  Leaf a

let flatten_under ctor children =
  List.concat_map
    (fun c ->
      match (ctor, c) with
      | `And, And xs -> xs
      | `Or, Or xs -> xs
      | _, other -> [ other ])
    children

let conj children =
  match flatten_under `And children with
  | [] -> invalid_arg "Expr.conj: empty"
  | [ x ] -> x
  | xs -> And xs

let disj children =
  match flatten_under `Or children with
  | [] -> invalid_arg "Expr.disj: empty"
  | [ x ] -> x
  | xs -> Or xs

let of_attrs_or attrs = disj (List.map leaf attrs)
let of_attrs_and attrs = conj (List.map leaf attrs)

let threshold k children =
  let n = List.length children in
  if k < 1 || k > n then invalid_arg "Expr.threshold: k out of range";
  if k = 1 then disj children
  else if k = n then conj children
  else Threshold (k, children)

(* All k-element sublists, preserving order. *)
let rec combinations k xs =
  if k = 0 then [ [] ]
  else begin
    match xs with
    | [] -> []
    | x :: rest ->
      List.map (fun c -> x :: c) (combinations (k - 1) rest) @ combinations k rest
  end

let rec expand_thresholds = function
  | Leaf a -> Leaf a
  | And xs -> conj (List.map expand_thresholds xs)
  | Or xs -> disj (List.map expand_thresholds xs)
  | Threshold (k, xs) ->
    let xs = List.map expand_thresholds xs in
    disj (List.map conj (combinations k xs))

let rec eval t attrs =
  match t with
  | Leaf a -> Attr.Set.mem a attrs
  | And xs -> List.for_all (fun x -> eval x attrs) xs
  | Or xs -> List.exists (fun x -> eval x attrs) xs
  | Threshold (k, xs) ->
    List.length (List.filter (fun x -> eval x attrs) xs) >= k

let rec attrs = function
  | Leaf a -> Attr.Set.singleton a
  | And xs | Or xs | Threshold (_, xs) ->
    List.fold_left (fun acc x -> Attr.Set.union acc (attrs x)) Attr.Set.empty xs

let rec compare a b =
  match (a, b) with
  | Leaf x, Leaf y -> Attr.compare x y
  | Leaf _, _ -> -1
  | _, Leaf _ -> 1
  | And xs, And ys -> List.compare compare xs ys
  | And _, _ -> -1
  | _, And _ -> 1
  | Or xs, Or ys -> List.compare compare xs ys
  | Or _, _ -> -1
  | _, Or _ -> 1
  | Threshold (j, xs), Threshold (k, ys) ->
    let c = Stdlib.compare j k in
    if c <> 0 then c else List.compare compare xs ys

let equal a b = compare a b = 0

let rec num_leaves = function
  | Leaf _ -> 1
  | And xs | Or xs | Threshold (_, xs) ->
    List.fold_left (fun acc x -> acc + num_leaves x) 0 xs

(* Printing: '&' binds tighter than '|'; parenthesize an Or under an And. *)
let rec to_string = function
  | Leaf a -> a
  | And xs ->
    String.concat " & "
      (List.map
         (fun x ->
           match x with Or _ -> "(" ^ to_string x ^ ")" | _ -> to_string x)
         xs)
  | Or xs -> String.concat " | " (List.map to_string xs)
  | Threshold (k, xs) ->
    Printf.sprintf "%dof(%s)" k (String.concat ", " (List.map to_string xs))

let pp fmt t = Format.pp_print_string fmt (to_string t)

(* Recursive-descent parser for the same syntax. Nesting is capped so a
   hostile policy string of a million open parens fails with
   Invalid_argument instead of exhausting the stack mid-decode. *)
let max_parse_depth = 64

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let depth = ref 0 in
  let peek () =
    while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t' || s.[!pos] = '\n') do
      incr pos
    done;
    if !pos < n then Some s.[!pos] else None
  in
  let fail msg = invalid_arg (Printf.sprintf "Expr.of_string: %s at offset %d" msg !pos) in
  let ident () =
    let start = !pos in
    while
      !pos < n
      && not (List.mem s.[!pos] [ '&'; '|'; '('; ')'; ','; ' '; '\t'; '\n' ])
    do
      incr pos
    done;
    if !pos = start then fail "expected attribute";
    String.sub s start (!pos - start)
  in
  let rec parse_or () =
    let first = parse_and () in
    let rec more acc =
      match peek () with
      | Some '|' ->
        incr pos;
        more (parse_and () :: acc)
      | _ -> List.rev acc
    in
    match more [ first ] with [ x ] -> x | xs -> disj xs
  and parse_and () =
    let first = parse_atom () in
    let rec more acc =
      match peek () with
      | Some '&' ->
        incr pos;
        more (parse_atom () :: acc)
      | _ -> List.rev acc
    in
    match more [ first ] with [ x ] -> x | xs -> conj xs
  and parse_atom () =
    match peek () with
    | Some '(' ->
      incr pos;
      incr depth;
      if !depth > max_parse_depth then fail "nesting too deep";
      let e = parse_or () in
      (match peek () with
       | Some ')' -> incr pos
       | _ -> fail "expected ')'");
      decr depth;
      e
    | Some (')' | '&' | '|' | ',') -> fail "unexpected operator"
    | Some _ ->
      let name = ident () in
      (* "<k>of(e1, e2, ...)" is a threshold gate. *)
      let is_threshold =
        String.length name > 2
        && String.for_all (fun c -> c >= '0' && c <= '9')
             (String.sub name 0 (String.length name - 2))
        && String.sub name (String.length name - 2) 2 = "of"
        && peek () = Some '('
      in
      if is_threshold then begin
        let k = int_of_string (String.sub name 0 (String.length name - 2)) in
        incr pos;
        incr depth;
        if !depth > max_parse_depth then fail "nesting too deep";
        let rec children acc =
          let e = parse_or () in
          match peek () with
          | Some ',' ->
            incr pos;
            children (e :: acc)
          | Some ')' ->
            incr pos;
            List.rev (e :: acc)
          | _ -> fail "expected ',' or ')'"
        in
        let xs = children [] in
        decr depth;
        (try threshold k xs with Invalid_argument m -> fail m)
      end
      else leaf name
    | None -> fail "unexpected end of input"
  in
  let e = parse_or () in
  match peek () with None -> e | Some _ -> fail "trailing input"

type dnf = Attr.Set.t list

let absorb clauses =
  (* Drop clauses that are supersets of another clause. *)
  let sorted = List.sort (fun a b -> Stdlib.compare (Attr.Set.cardinal a) (Attr.Set.cardinal b)) clauses in
  List.fold_left
    (fun kept c ->
      if List.exists (fun k -> Attr.Set.subset k c) kept then kept else c :: kept)
    [] sorted
  |> List.rev

let rec to_dnf = function
  | Leaf a -> [ Attr.Set.singleton a ]
  | Threshold _ as t -> to_dnf (expand_thresholds t)
  | Or xs -> absorb (List.concat_map to_dnf xs)
  | And xs ->
    let parts = List.map to_dnf xs in
    let cross acc part =
      List.concat_map (fun c1 -> List.map (fun c2 -> Attr.Set.union c1 c2) part) acc
    in
    absorb (List.fold_left cross [ Attr.Set.empty ] parts)

let of_dnf clauses =
  match clauses with
  | [] -> invalid_arg "Expr.of_dnf: empty"
  | _ ->
    disj
      (List.map
         (fun clause ->
           match Attr.Set.elements clause with
           | [] -> invalid_arg "Expr.of_dnf: empty clause"
           | attrs -> of_attrs_and attrs)
         clauses)

let eval_dnf dnf attrs = List.exists (fun clause -> Attr.Set.subset clause attrs) dnf

let canonical t =
  let dnf = to_dnf t in
  let sorted =
    List.sort
      (fun a b -> List.compare Attr.compare (Attr.Set.elements a) (Attr.Set.elements b))
      dnf
  in
  of_dnf sorted

let random rng ~roles ~or_fanin ~and_fanin =
  if Array.length roles = 0 then invalid_arg "Expr.random: no roles";
  let module Prng = Zkqac_rng.Prng in
  let n_clauses = 1 + Prng.int rng or_fanin in
  let clause () =
    let n_attrs = min (Array.length roles) (1 + Prng.int rng and_fanin) in
    let picked = Array.copy roles in
    Prng.shuffle rng picked;
    of_attrs_and (Array.to_list (Array.sub picked 0 n_attrs))
  in
  disj (List.init n_clauses (fun _ -> clause ()))
