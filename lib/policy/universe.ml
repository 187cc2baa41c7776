type t = { set : Attr.Set.t }

let create roles =
  List.iter
    (fun r ->
      if not (Attr.is_valid r) then invalid_arg ("Universe.create: invalid role " ^ r);
      if Attr.equal r Attr.pseudo_role then
        invalid_arg "Universe.create: the pseudo role is implicit")
    roles;
  { set = Attr.Set.add Attr.pseudo_role (Attr.set_of_list roles) }

let attrs t = t.set
let mem t a = Attr.Set.mem a t.set
let size t = Attr.Set.cardinal t.set
let to_list t = Attr.Set.elements t.set

let bad_role t user =
  if Attr.Set.mem Attr.pseudo_role user then Some Attr.pseudo_role
  else Attr.Set.min_elt_opt (Attr.Set.diff user t.set)

let validate_user t user =
  match bad_role t user with
  | None -> ()
  | Some a when Attr.equal a Attr.pseudo_role ->
    invalid_arg "Universe.validate_user: no user holds the pseudo role"
  | Some a -> invalid_arg ("Universe.validate_user: unknown role " ^ a)

let missing t ~user =
  validate_user t user;
  Attr.Set.diff t.set user

let super_policy t ~user = Expr.of_attrs_or (Attr.Set.elements (missing t ~user))

let roles ~prefix n = List.init n (fun i -> Printf.sprintf "%s%d" prefix i)
