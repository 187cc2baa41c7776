(** Hierarchical role assignment (Section 8.1).

    In a role hierarchy, holding a role implies holding its ancestors
    (a professor of university A is a member of university A), so *lacking* a
    role implies lacking all of its descendants. Two consequences the paper
    exploits:

    - record policies are augmented so that every clause mentioning a role
      also requires its ancestors (the paper's [Role_A ∧ Role_{A,P}]);
    - the user's inaccessible predicate shrinks to the *maximal* missing
      roles, since missing descendants are implied. *)

type t

val create : (Attr.t * Attr.t) list -> t
(** [(child, parent)] edges. @raise Invalid_argument on cycles or on a child
    with two parents. *)

val flat : t
(** The trivial hierarchy (no edges): reduces nothing. *)

val edges : t -> (Attr.t * Attr.t) list
(** The [(child, parent)] edges, in deterministic order (for serialization). *)

val close_user : t -> Attr.Set.t -> Attr.Set.t
(** Add all implied ancestors to a user's role set. *)

val augment_policy : t -> Expr.t -> Expr.t
(** DNF-normalize and extend every clause with the ancestors of its roles. *)

val super_policy : t -> Universe.t -> user:Attr.Set.t -> Expr.t
(** The reduced super policy of Section 8.1: OR over the roles missing from
    [close_user user] that have no missing ancestor. *)
