(** The global access role universe 𝔸 and super access policies.

    The universe always contains the pseudo role [Role_∅], so that pseudo
    records' policies are well-formed and every user's super policy
    (Definition 5.2) includes it. *)

type t

val create : Attr.t list -> t
(** Builds 𝔸 from the given roles plus [Attr.pseudo_role]. Duplicates are
    merged. @raise Invalid_argument if any role is invalid or if a role
    equals the pseudo role. *)

val attrs : t -> Attr.Set.t
val mem : t -> Attr.t -> bool
val size : t -> int
val to_list : t -> Attr.t list

val bad_role : t -> Attr.Set.t -> Attr.t option
(** A role of the set that no user may hold — the pseudo role, else the
    least role outside the universe — if there is one. *)

val validate_user : t -> Attr.Set.t -> unit
(** @raise Invalid_argument if {!bad_role} finds one. *)

val missing : t -> user:Attr.Set.t -> Attr.Set.t
(** 𝔸 ∖ A: the roles the user does not hold (always contains Role_∅). *)

val super_policy : t -> user:Attr.Set.t -> Expr.t
(** The weakest policy the user still fails: [∨_{a ∈ 𝔸∖A} a]
    (Definition 5.2). *)

val roles : prefix:string -> int -> Attr.t list
(** [roles ~prefix n] is the conventional role naming [prefix0 .. prefix(n-1)]
    used by generators and benches. *)
